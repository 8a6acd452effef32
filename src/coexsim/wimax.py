"""Scheduled TDM MAC for one base station and its subscriber stations.

Fixed-length frames split into a downlink and an uplink subframe.  Grants
are sized from per-station demand and packed in station-id order, so a
station keeps its relative position while its slot enlarges or contracts.
A short preamble region at the frame start and a turnaround gap between
the subframes stay unallocated.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

DL = "DL"
UL = "UL"


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


def build_frame_map(demands: Sequence[SsDemand], frame_len_us: int, dl_ratio: float,
                    capacity_bytes_per_us: float, preamble_us: int,
                    ttg_us: int) -> tuple[Grant, ...]:
    """Allocate one frame's slots proportionally to demand; the grants come
    in time order and do not overlap.

    DL grants live in [preamble_us, dl_end); UL grants in
    [dl_end + ttg_us, frame_len).  When aggregate demand exceeds a subframe
    the window is split proportionally, rounding down, in ascending
    station-id order.  Zero-demand stations get no slot.
    """
    claims: dict[str, list[SsDemand]] = {DL: [], UL: []}
    for d in demands:
        if d.queued_bytes < 0:
            raise ValueError("queued_bytes must be non-negative")
        if d.direction not in (DL, UL):
            raise ValueError(f"bad direction: {d.direction!r}")
        if d.queued_bytes:
            claims[d.direction].append(d)
    if frame_len_us <= 0:
        raise ValueError("frame_len_us must be positive")
    if not 0 < dl_ratio < 1:
        raise ValueError("dl_ratio must be in (0, 1)")
    if capacity_bytes_per_us <= 0:
        raise ValueError("capacity must be positive")
    dl_end = int(frame_len_us * dl_ratio)
    if not preamble_us <= dl_end <= frame_len_us - ttg_us:
        raise ValueError("subframe split leaves no room for preamble/turnaround")
    dl = _pack(claims[DL], preamble_us, dl_end - preamble_us, capacity_bytes_per_us, DL)
    ul = _pack(claims[UL], dl_end + ttg_us, frame_len_us - dl_end - ttg_us,
               capacity_bytes_per_us, UL)
    return tuple(dl + ul)
