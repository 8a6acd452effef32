"""Scheduled TDM MAC for one base station and its subscriber stations.

Fixed-length frames split into a downlink and an uplink subframe.  Grants
are sized from per-station demand and packed in station-id order, so a
station keeps its relative position while its slot enlarges or contracts.
A short preamble region at the frame start and a turnaround gap between
the subframes stay unallocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .medium import Bounded

DL = "DL"
UL = "UL"


@dataclass(frozen=True)
class WimaxConfig(Bounded):
    """Frame geometry and capacity; the scenario's ``wimax`` section."""

    # finite upper bounds keep a frame's top-up, capacity times frame length,
    # a finite byte count
    frame_us: int = field(default=5000, metadata={"lo": 100, "hi": 1_000_000})
    dl_ratio: float = field(default=0.6, metadata={"lo": 0.05, "hi": 0.95})
    capacity_bytes_per_us: float = field(default=2.0, metadata={"lo": 0.01, "hi": 1000.0})
    preamble_us: int = field(default=200, metadata={"lo": 0})
    ttg_us: int = field(default=100, metadata={"lo": 0})

    def __post_init__(self) -> None:
        super().__post_init__()
        dl_end = int(self.frame_us * self.dl_ratio)
        if not self.preamble_us <= dl_end <= self.frame_us - self.ttg_us:
            raise ValueError("dl_ratio: subframe split leaves no room for preamble/turnaround: "
                             "need preamble_us <= int(frame_us * dl_ratio) <= frame_us - ttg_us")


class Grant(NamedTuple):
    ss: str
    direction: str  # DL | UL
    offset_us: int  # from frame start
    len_us: int


class SsDemand(NamedTuple):
    ss: str
    queued_bytes: int
    direction: str


def _pack(claimants: list[SsDemand], window_start: int, window_len: int,
          capacity_bytes_per_us: float, direction: str) -> list[Grant]:
    """Grants for the demands that claim, in station-id order."""
    if not claimants or window_len <= 0:
        return []
    claimants.sort(key=lambda d: d.ss)
    needed = [math.ceil(d.queued_bytes / capacity_bytes_per_us) for d in claimants]
    total = sum(needed)
    grants = []
    cursor = window_start
    for d, need in zip(claimants, needed):
        length = need if total <= window_len else (window_len * need) // total
        if length <= 0:
            continue
        grants.append(Grant(d.ss, direction, cursor, length))
        cursor += length
    return grants


def build_frame_map(demands: Sequence[SsDemand], wimax: WimaxConfig) -> tuple[Grant, ...]:
    """Allocate one frame's slots proportionally to demand; the grants come
    in time order and do not overlap.

    DL grants live in [preamble_us, dl_end), dl_end = int(frame_us *
    dl_ratio); UL grants in [dl_end + ttg_us, frame_us).  When aggregate
    demand exceeds a subframe the window is split proportionally, rounding
    down, in ascending station-id order.  Zero-demand stations get no slot.
    """
    claims: dict[str, list[SsDemand]] = {DL: [], UL: []}
    for d in demands:
        if d.queued_bytes < 0:
            raise ValueError("queued_bytes must be non-negative")
        if d.direction not in (DL, UL):
            raise ValueError(f"bad direction: {d.direction!r}")
        if d.queued_bytes:
            claims[d.direction].append(d)
    dl_end, capacity = int(wimax.frame_us * wimax.dl_ratio), wimax.capacity_bytes_per_us
    ul_start = dl_end + wimax.ttg_us
    dl = _pack(claims[DL], wimax.preamble_us, dl_end - wimax.preamble_us, capacity, DL)
    ul = _pack(claims[UL], ul_start, wimax.frame_us - ul_start, capacity, UL)
    return tuple(dl + ul)
