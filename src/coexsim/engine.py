"""Deterministic discrete-event simulation core.

Virtual time is integer microseconds.  Events pop in (time, phase, seq)
order; the phase layering makes same-microsecond interactions
deterministic and physical: frame ends land before control decisions,
control decisions before scheduled transmission starts, and contention
attempts last, so a station whose backoff expires the instant a
scheduled emission begins defers to it, while two data stations whose
backoffs expire in the same slot collide.  Contention attempts take
(station config order, attempt token) as seq, so same-time attempts pop
in config order however they were scheduled; every other event takes its
push order.

All randomness flows from one seeded PRNG, drawn only for WiFi backoff,
in event order.

The trace hash covers what the run did, not how the engine got there: the
behaviour notes (``air``, ``outcome``, ``nav``, ``arb``, ``deny``,
``reserve-skip``, ``pacing``, ``gate``), each line ending in a newline.
A collected trace also holds one ``time|phase|kind|data`` line per popped
event, which no hash covers; its data names the event's subject.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import arbiter as arb
from .arbiter import RX, TX
from .medium import (BELOW_SENSITIVITY, CORRUPTED, DATA, DECODED, WIMAX_BURST,
                     MediumModel, Memo, RadioInterface, Transmission, delivery_result,
                     invert_path_loss)
from .reservation import CTS_POWER_CEILING_DBM, Reservation, build_cts_train
from .scenario import ScenarioConfig
from .wifi import OUTCOME_DROP, OUTCOME_RETRY, WifiStation, data_airtime_us, sense
from .wimax import DL, UL, SsDemand, build_frame_map

P_END = 0      # frame ends, deliveries, NAV updates, releases
P_CTRL = 1     # frame boundaries, ticks, arrivals, reservation decisions
P_START = 2    # scheduled transmission starts (bursts, CTS)
P_ACCESS = 3   # WiFi contention attempts

# event kind -> its phase; the engine handles kind k in _on_<k>
_PHASES = {
    "warmup": P_END, "txend": P_END,
    "arrival": P_CTRL, "boundary": P_CTRL, "reserve": P_CTRL, "inject": P_CTRL,
    "pacing": P_CTRL, "eval": P_CTRL, "retry": P_CTRL,
    "burst": P_START, "cts": P_START,
    "access": P_ACCESS,
}

_WIMAX_ARRIVAL_TICK_US = 10_000
# behaviour notes buffered before they go into the hash in one update
_HASH_BATCH_LINES = 256
# relative slack on the reach radius, far above float rounding in the
# distance and the inverted path loss
_REACH_MARGIN = 1e-9
# side of a neighbour-grid cell
_CELL_M = 32.0
# how far the cells searched reach past a radius: coordinates lie within
# POSITION_LIMIT_M of 0, where float rounding in the bounds of the window
# and in a squared distance moves a point by under 1e-9 m
_WINDOW_PAD_M = 1e-6
# slack in dB on the test of which sources can corrupt a frame, far above
# float rounding in the received powers
_CORRUPT_MARGIN_DB = 1e-9
_NO_SOURCES: frozenset = frozenset()
# the data field of a traced per-event line, for events whose data is not
# already a node id; every other one prints its string
_SUBJECTS = {
    "warmup": lambda _: "",
    "access": lambda d: f"{d[2].node.id} {d[1]}",  # (order, token, station)
    "txend": lambda rec: f"{rec.tx.kind} {rec.tx.source}>{rec.tx.dest}",
    "cts": lambda d: f"{d[0].kind} {d[0].source}>{d[0].dest}",
    "burst": lambda grant: f"{grant.ss} {grant.direction}",
    "reserve": lambda d: f"{d[0].node.id} {d[1]}",  # subscriber station, last us
}


class _Grid:
    """A pool of interfaces in square cells of ``_CELL_M``, floored from
    their coordinates, each occupied cell's members as (pool index, x, y);
    and each platform's members, by pool index."""

    __slots__ = ("pool", "cells", "platforms")

    def __init__(self, pool):
        self.pool = tuple(pool)
        self.cells: dict[tuple[int, int], list[tuple]] = {}
        self.platforms: dict[str, list[int]] = {}
        for i, iface in enumerate(self.pool):
            x, y = iface.position.x, iface.position.y
            self.cells.setdefault((math.floor(x / _CELL_M), math.floor(y / _CELL_M)),
                                  []).append((i, x, y))
            if iface.platform is not None:
                self.platforms.setdefault(iface.platform, []).append(i)

    def near(self, center: RadioInterface, radius_m: float) -> list[RadioInterface]:
        """The interfaces of the pool other than ``center`` that share its
        platform or lie within ``radius_m`` of it, in pool order.

        Spillage rejection is never negative and path loss never falls with
        distance, so only these can receive, from ``center`` or at it, more
        than path loss alone over ``radius_m`` leaves.  The cells searched
        are the window reaching ``_WINDOW_PAD_M`` past the radius, or every
        occupied cell when the window holds more cells than that."""
        x, y = center.position.x, center.position.y
        radius = radius_m * (1.0 + _REACH_MARGIN)
        radius2, reach = radius ** 2, radius + _WINDOW_PAD_M
        pool, cells = self.pool, self.cells
        x0, x1 = math.floor((x - reach) / _CELL_M), math.floor((x + reach) / _CELL_M)
        y0, y1 = math.floor((y - reach) / _CELL_M), math.floor((y + reach) / _CELL_M)
        if (x1 - x0 + 1) * (y1 - y0 + 1) > len(cells):
            searched = cells.values()
        else:
            searched = [cells.get((cx, cy), ()) for cx in range(x0, x1 + 1)
                        for cy in range(y0, y1 + 1)]
        hits = set(self.platforms.get(center.platform, ()))
        for members in searched:
            for i, px, py in members:
                if (px - x) ** 2 + (py - y) ** 2 <= radius2:
                    hits.add(i)
        return [pool[i] for i in sorted(hits) if pool[i] is not center]


def jain_index(shares: list[float]) -> float:
    """Fairness of a share vector: (sum x)^2 / (n * sum x^2), 1 when equal."""
    if not shares:
        raise ValueError("no shares")
    if any(s < 0 for s in shares):
        raise ValueError("shares must be non-negative")
    sq = sum(s * s for s in shares)
    if sq == 0:
        raise ValueError("all shares are zero")
    total = sum(shares)
    return (total * total) / (len(shares) * sq)


@dataclass
class LinkStats:
    offered_bytes: int = 0
    delivered_bytes: int = 0
    corrupted_frames: int = 0
    retransmissions: int = 0
    dropped_frames: int = 0
    airtime_us: int = 0
    # the delivered frames' delays: how many, their sum and their maximum
    delay_count: int = 0
    delay_sum_us: int = 0
    max_delay_us: int = 0

    def to_dict(self, measure_us: int) -> dict:
        return {
            "offered_bytes": self.offered_bytes,
            "delivered_bytes": self.delivered_bytes,
            "corrupted_frames": self.corrupted_frames,
            "retransmissions": self.retransmissions,
            "dropped_frames": self.dropped_frames,
            "airtime_us": self.airtime_us,
            "airtime_share": self.airtime_us / measure_us,
            "throughput_bytes_per_s": self.delivered_bytes * 1e6 / measure_us,
            "mean_delay_us": self.delay_sum_us / self.delay_count if self.delay_count else 0.0,
            "max_delay_us": self.max_delay_us,
        }


@dataclass
class RunResult:
    seed: int
    duration_us: int
    warmup_us: int
    links: dict
    system_airtime_us: dict
    system_delivered_bytes: dict
    fairness_index: float
    colocated_conflict_us: int
    cts_count: int
    cts_airtime_us: int
    trace_hash: str

    @property
    def measure_us(self) -> int:
        return self.duration_us - self.warmup_us

    def system_share(self, system: str) -> float:
        return self.system_airtime_us[system] / self.measure_us

    def to_dict(self) -> dict:
        measure = self.measure_us
        return {
            "seed": self.seed,
            "duration_us": self.duration_us,
            "warmup_us": self.warmup_us,
            "links": {lid: st.to_dict(measure) for lid, st in sorted(self.links.items())},
            "systems": {
                sys: {
                    "airtime_us": air,
                    "share": air / measure,
                    "delivered_bytes": self.system_delivered_bytes[sys],
                    "throughput_bytes_per_s": self.system_delivered_bytes[sys] * 1e6 / measure,
                }
                for sys, air in sorted(self.system_airtime_us.items())
            },
            "fairness_index": self.fairness_index,
            "colocated_conflict_us": self.colocated_conflict_us,
            "cts_count": self.cts_count,
            "cts_airtime_us": self.cts_airtime_us,
            "trace_hash": self.trace_hash,
        }


class _Emitter:
    """What every emission from one source at one power to one addressee
    (None for a CTS) shares, derived once from the static config."""

    __slots__ = ("corrupters", "busy", "hearers", "src_plat", "rx_plat", "system", "monitors",
                 "pair", "power")

    def __init__(self, engine: Engine, source: str, power_dbm: float, dest: Optional[str]):
        ifaces, own = engine.interfaces, engine.stations.get(source)
        # the WiFi radios it makes busy: its own source, then those whose
        # carrier sense it trips; for a CTS, its hearers: the other stations
        # that receive it at or above decode sensitivity
        self.busy = ((own,) if own is not None else ()) + engine._reached(
            source, power_dbm, "cca_threshold_dbm")
        self.hearers = (engine._reached(source, power_dbm, "decode_sensitivity_dbm")
                        if dest is None else ())
        self.corrupters = engine._corrupting(source, power_dbm, dest, self.hearers)
        self.src_plat = plat = ifaces[source].platform
        self.rx_plat = None if dest is None else ifaces[dest].platform
        self.system = engine.system_of[source]
        # (controller, power it hears) per coordinator on another platform
        self.monitors = tuple((res, power_dbm - row[source])
                              for p, res, row in engine._monitors if p != plat)
        self.pair, self.power = f"|{source}>{dest}|", f"|{power_dbm}"  # its notes' text


class _TxRec:
    __slots__ = ("tx", "emitter", "link", "served_bytes", "missed", "overlappers", "corrupters",
                 "holds", "rx_plat")

    def __init__(self, tx: Transmission, holds: list[str], link: Optional[_Link] = None,
                 served_bytes: int = 0):
        self.tx = tx
        self.holds = holds           # interfaces whose arbiter grant the end releases
        self.link = link
        self.served_bytes = served_bytes
        self.missed = False          # addressee was not listening (arbiter denial)
        # the overlapping emissions from its corrupters, the sources able to
        # corrupt it at a receiver
        self.overlappers: list[Transmission] = []
        self.corrupters = _NO_SOURCES
        self.emitter = self.rx_plat = None  # its _Emitter; its addressee's platform if heard


class _ByteQueue:
    """FIFO of (enqueue time, bytes) items with partial consumption."""

    __slots__ = ("items", "queued_bytes")

    def __init__(self):
        self.items: deque = deque()
        self.queued_bytes = 0

    def enqueue(self, t: int, nbytes: int) -> None:
        self.items.append([t, nbytes])
        self.queued_bytes += nbytes

    def consume(self, nbytes: int, now: int) -> list[int]:
        """Remove nbytes; returns delay samples of fully served items."""
        delays = []
        remaining = nbytes
        while remaining > 0 and self.items:
            head = self.items[0]
            if head[1] <= remaining:
                remaining -= head[1]
                self.queued_bytes -= head[1]
                delays.append(now - head[0])
                self.items.popleft()
            else:
                head[1] -= remaining
                self.queued_bytes -= remaining
                remaining = 0
        return delays


class _System:
    """One system's airtime and counters.  ``airtime`` is clipped to the
    measurement window; the ``_cum`` ones count from time 0 for the
    reservation controllers; ``busy_until`` is the end of its last emission."""

    __slots__ = ("name", "airtime", "air_cum", "busy_until", "delivered_cum", "retx_cum")

    def __init__(self, name: str):
        self.name = name
        self.airtime = self.air_cum = self.busy_until = 0
        self.delivered_cum = self.retx_cum = 0


class _Link:
    """One directed link: its id, its source's system, the queue that feeds
    it (a WifiStation or a _ByteQueue), its counters and, from its first
    emission on, its emitter record: every frame of a link has one source,
    power and addressee."""

    __slots__ = ("id", "src", "dst", "system", "queue", "stats", "emitter")

    def __init__(self, src: str, dst: str, system: _System, queue):
        self.id = f"{src}->{dst}"
        self.src = src
        self.dst = dst
        self.system = system
        self.queue = queue
        self.stats = LinkStats()
        self.emitter: Optional[_Emitter] = None

    def offer(self, now: int, nbytes: int) -> None:
        self.queue.enqueue(now, nbytes)
        self.stats.offered_bytes += nbytes


class _WifiRt(WifiStation):
    """A WiFi station with its node, its data frames' airtime, its config
    order among the WiFi stations and its link, whose queue is the station
    itself."""

    def __init__(self, node, iface: RadioInterface, params, rng, order: int, system: _System):
        super().__init__(iface, params, rng)
        self.node = node
        self.airtime_us = data_airtime_us(node.traffic.frame_bytes, params.phy_rate_mbps)
        self.order = order
        self.link = _Link(node.id, node.peer, system, self) if node.peer else None


class _SsRt:
    __slots__ = ("node", "links", "saturated", "reservation", "slots")

    def __init__(self, node, bs_node, system_of: dict[str, _System],
                 reservation: Optional[Reservation], slots: Optional[deque]):
        self.node = node
        self.links = {DL: _Link(bs_node.id, node.id, system_of[bs_node.id], _ByteQueue()),
                      UL: _Link(node.id, bs_node.id, system_of[node.id], _ByteQueue())}
        # its links topped up at each boundary, DL then UL; a station without
        # wimax traffic offers nothing, whatever its flags say
        t = node.traffic
        self.saturated = [self.links[d] for d, sat in ((DL, t.dl_saturated), (UL, t.ul_saturated))
                          if sat and t.kind == "wimax"]
        self.reservation = reservation  # None with reservation off
        self.slots = slots  # its slots not yet ended if watched, else None


class Engine:
    """One scenario run over an event queue. Use :func:`run` for the one-liner."""

    def __init__(self, config: ScenarioConfig, seed: Optional[int] = None,
                 collect_trace: bool = False):
        self.cfg = config
        self.seed = config.seed if seed is None else seed
        # the measurement window, read on every emission
        self._warmup_us, self._end_us = config.warmup_us, config.duration_us
        self.rng = random.Random(self.seed)
        self.now = 0
        self._heap: list = []
        self._seq = itertools.count()
        self._hash = hashlib.sha256()
        self._lines: list[str] = []  # behaviour notes not yet hashed
        self._trace: Optional[list[str]] = [] if collect_trace else None

        self.medium: MediumModel = config.medium
        self.interfaces: dict[str, RadioInterface] = config.interfaces()
        # platform -> the ids of its interfaces, in config order
        platforms: dict[str, list[str]] = {}
        for iface in self.interfaces.values():
            if iface.platform is not None:
                platforms.setdefault(iface.platform, []).append(iface.id)
        # filled once on first use: receiver -> its loss row, source -> link
        # loss towards it; (source, power, addressee) -> its _Emitter
        self._loss_rows = Memo(lambda dst: Memo(lambda src: self.medium.link_loss_db(
            self.interfaces[src], self.interfaces[dst])))
        self._emitters = Memo(lambda key: _Emitter(self, *key))
        self.dcf = config.wifi

        # system name -> its record, in name order; node id -> its system's record
        self.systems = {s: _System(s) for s in sorted({n.system for n in config.nodes})}
        self.system_of = {n.id: self.systems[n.system] for n in config.nodes}

        # node id -> the strongest power any of its emissions can have: its
        # own, an injector's, and a coordinator's strongest CTS
        self._ceiling = {n.id: n.tx_power_dbm for n in config.nodes}
        self.stations: dict[str, _WifiRt] = {}
        for n in config.nodes:
            if n.kind == "wifi":
                self.stations[n.id] = _WifiRt(n, self.interfaces[n.id], self.dcf, self.rng,
                                              len(self.stations), self.system_of[n.id])
                if n.traffic.kind == "cts-inject" and n.traffic.power_dbm is not None:
                    self._ceiling[n.id] = max(n.tx_power_dbm, n.traffic.power_dbm)
        # per threshold level, its lowest value among the stations, which
        # bounds how far an emission can reach at that level
        wifi_ifaces = [rt.iface for rt in self.stations.values()]
        self._lowest = {level: min((getattr(i, level) for i in wifi_ifaces), default=0.0)
                        for level in ("cca_threshold_dbm", "decode_sensitivity_dbm")}
        # stations whose attempt was voided; they re-arm at the next frame end
        self._resched: dict[_WifiRt, None] = {}

        # interface id -> its platform's arbiter
        self.arbiters: dict[str, arb.RadioArbiter] = {}
        if config.arbiter.enabled:
            for ids in platforms.values():
                self.arbiters.update(dict.fromkeys(ids, arb.RadioArbiter(ids)))
        watch = config.arbiter.enabled and config.arbiter.schedule_aware
        # WiFi interface id -> the slots of its platform's subscriber stations,
        # each (direction, start, end) in time order, which a schedule-aware
        # arbiter checks the radio's spans against
        self._watched: dict[str, list[deque]] = {}
        # (platform, controller, loss row) of each coordinator, the first WiFi
        # radio on its station's platform; it hears other platforms
        self._monitors: list[tuple] = []
        rc = config.reservation
        cts_ceiling = CTS_POWER_CEILING_DBM if rc.power_sizing else rc.cts_power_dbm
        self.sses: dict[str, _SsRt] = {}
        for n in config.nodes:
            if n.kind != "wimax-ss":
                continue
            plat = self.interfaces[n.id].platform
            mates = [self.stations[i] for i in platforms.get(plat, ()) if i in self.stations]
            res = None
            if rc.enabled:
                coord = mates[0] if mates else None
                res = Reservation(rc, coord, self.medium.path_loss, config.warmup_us)
                if coord is not None:
                    self._monitors.append((plat, res, self._loss_rows[coord.node.id]))
                    self._ceiling[coord.node.id] = max(self._ceiling[coord.node.id], cts_ceiling)
            slots = deque() if watch and mates else None
            if slots is not None:
                for rt in mates:
                    self._watched.setdefault(rt.node.id, []).append(slots)
            self.sses[n.id] = _SsRt(n, config.node(n.bs), self.system_of, res, slots)
        self._top_ceiling = max(self._ceiling.values(), default=0.0)
        # base station id -> its subscriber stations, in id order
        self.cells: dict[str, list[_SsRt]] = {n.id: [] for n in config.nodes
                                              if n.kind == "wimax-bs"}
        for ss_id in sorted(self.sses):
            self.cells[self.sses[ss_id].node.bs].append(self.sses[ss_id])
        wx = config.wimax
        self._frame_us = wx.frame_us
        self._capacity = wx.capacity_bytes_per_us
        self._top_up_bytes = int(wx.capacity_bytes_per_us * wx.frame_us) * 2
        # a cell's frame plan, filled once per demand vector; see _plan
        self._plans = Memo(self._plan)

        self.active: dict[_TxRec, None] = {}  # frames on air, in start order
        self.conflict_us = 0
        self.cts_count = 0
        self.cts_airtime_us = 0

        self._handlers = {kind: getattr(self, f"_on_{kind}") for kind in _PHASES}

    # ------------------------------------------------------------------ utils

    def _push(self, time_us: int, kind: str, data) -> None:
        assert time_us >= self.now, f"{kind} scheduled in the past"
        heapq.heappush(self._heap, (time_us, _PHASES[kind], next(self._seq), kind, data))

    def _note(self, line: str) -> None:
        """Record a behaviour note: it goes into the trace hash, and into the
        trace if one is kept."""
        lines = self._lines
        lines.append(line)
        if self._trace is not None:
            self._trace.append(line)
        if len(lines) >= _HASH_BATCH_LINES:
            self._flush()

    def _flush(self) -> None:
        """Hash the buffered notes, each ending in a newline; SHA-256 of the
        concatenation equals that of one update per line."""
        lines = self._lines
        if lines:
            self._hash.update(("\n".join(lines) + "\n").encode())
            lines.clear()

    # the neighbour grid of every interface, in config order, that each memo
    # fill queries; built on first use, as the fills run
    @cached_property
    def _grid(self) -> _Grid:
        return _Grid(self.interfaces.values())

    def _reached(self, src: str, power_dbm: float, level: str) -> tuple[_WifiRt, ...]:
        """WiFi stations other than ``src`` that receive its emission at
        ``power_dbm`` at or above their ``level``, in config order.  Only
        the stations among the grid's interfaces near enough for path loss
        alone to leave ``power_dbm`` minus the lowest threshold of that
        level take the exact test."""
        radius = invert_path_loss(power_dbm - self._lowest[level], self.medium.path_loss)
        stations = self.stations
        return tuple(stations[iface.id]
                     for iface in self._grid.near(self.interfaces[src], radius)
                     if iface.id in stations
                     and power_dbm - self._loss_rows[iface.id][src] >= getattr(iface, level))

    def _corrupting(self, src: str, power_dbm: float, dest: Optional[str],
                    hearers: tuple[_WifiRt, ...]) -> frozenset:
        """Sources able to corrupt a frame from ``src`` at ``power_dbm`` at one
        of its receivers, the addressee ``dest`` or, for a CTS, each of its
        ``hearers``.
        Empty if the addressee gets it below sensitivity.

        ``delivery_result`` corrupts a frame only through the receiver's own
        emission or one that arrives above the frame's signal minus the SINR
        threshold, and no source emits above its config ceiling.  So the set
        holds each receiver and each source whose ceiling arrives at or above
        that level.  Only sources near enough for path loss alone to leave
        the highest ceiling at that level take the exact test."""
        if dest is not None:
            rx = self.interfaces[dest]
            receivers = [rx] if (power_dbm - self._loss_rows[dest][src]
                                 >= rx.decode_sensitivity_dbm) else []
        else:
            receivers = [rt.iface for rt in hearers]
        ceiling, model = self._ceiling, self.medium.path_loss
        found = set()
        for rx in receivers:
            row = self._loss_rows[rx.id]
            floor = power_dbm - row[src] - self.medium.sinr_threshold_db - _CORRUPT_MARGIN_DB
            radius = invert_path_loss(self._top_ceiling - floor, model)
            found.add(rx.id)  # half-duplex
            found.update(iface.id for iface in self._grid.near(rx, radius)
                         if ceiling[iface.id] - row[iface.id] >= floor)
        return frozenset(found)

    def _clip(self, start: int, end: int) -> int:
        """Length of [start, end) inside the measurement window."""
        lo = start if start > self._warmup_us else self._warmup_us
        hi = end if end < self._end_us else self._end_us
        return hi - lo if hi > lo else 0

    # ------------------------------------------------------------------ run

    def run(self) -> RunResult:
        cfg = self.cfg
        self._push(cfg.warmup_us, "warmup", None)
        for n in cfg.nodes:  # config order keeps event sequencing reproducible
            t = n.traffic
            if n.kind == "wifi":
                if t.kind in ("saturated", "paced"):
                    self._push(0, "arrival", n.id)
                elif t.kind == "cts-inject":
                    self._push(t.at_us, "inject", n.id)
            elif n.kind == "wimax-ss" and t.kind == "wimax":
                if t.dl_bytes_per_s or t.ul_bytes_per_s:
                    self._push(0, "arrival", n.id)
        for bs_id in sorted(self.cells):
            self._push(0, "boundary", bs_id)
        if cfg.reservation.enabled:
            for ss_id in sorted(self.sses):
                self._push(cfg.reservation.pacing_tick_us, "pacing", ss_id)
                self._push(cfg.reservation.eval_tick_us, "eval", ss_id)

        heap, pop, handlers, end = self._heap, heapq.heappop, self._handlers, cfg.duration_us
        trace, subjects = self._trace, _SUBJECTS
        while heap and heap[0][0] <= end:
            time_us, phase, _, kind, data = pop(heap)
            self.now = time_us
            if trace is not None:  # one line per popped event
                trace.append(f"{time_us}|{phase}|{kind}|{subjects.get(kind, str)(data)}")
            # an access attempt voided since it was armed stops here, after its line
            if phase == P_ACCESS and not data[2].take_attempt(data[1]):
                continue
            handlers[kind](data)
        self._flush()

        shares = [s.airtime / (cfg.duration_us - cfg.warmup_us) for s in self.systems.values()]
        try:
            fairness = jain_index(shares)
        except ValueError:
            fairness = 0.0
        links, delivered = {}, dict.fromkeys(self.systems, 0)
        for link in self._links():
            links[link.id] = link.stats
            delivered[link.system.name] += link.stats.delivered_bytes
        return RunResult(
            seed=self.seed, duration_us=cfg.duration_us, warmup_us=cfg.warmup_us,
            links=links, system_airtime_us={n: s.airtime for n, s in self.systems.items()},
            system_delivered_bytes=delivered,
            fairness_index=fairness, colocated_conflict_us=self.conflict_us,
            cts_count=self.cts_count, cts_airtime_us=self.cts_airtime_us,
            trace_hash=self._hash.hexdigest())

    @property
    def trace(self) -> list[str]:
        if self._trace is None:
            raise RuntimeError("run engine with collect_trace=True")
        return self._trace

    # ------------------------------------------------------------------ stats

    def _links(self):
        """Every link, WiFi stations first, in config order."""
        for rt in self.stations.values():
            if rt.link:
                yield rt.link
        for ss in self.sses.values():
            yield from ss.links.values()

    def _on_warmup(self, _data) -> None:
        # what is queued at the end of the warm-up counts as offered after it
        for link in self._links():
            link.stats = LinkStats(offered_bytes=link.queue.queued_bytes,
                                   airtime_us=link.stats.airtime_us)

    def _count_delivery(self, link: _Link, nbytes: int, delays: list[int]) -> None:
        stats = link.stats
        stats.delivered_bytes += nbytes
        for delay in delays:
            stats.delay_count += 1
            stats.delay_sum_us += delay
            if delay > stats.max_delay_us:
                stats.max_delay_us = delay
        link.system.delivered_cum += nbytes

    # ------------------------------------------------------------------ traffic

    def _on_arrival(self, node_id: str) -> None:
        node = self.cfg.node(node_id)
        t = node.traffic
        if node.kind == "wifi":
            rt = self.stations[node_id]
            rt.link.offer(self.now, t.frame_bytes)  # the validator requires a peer
            self._schedule_access((rt,))
            if t.kind == "paced":
                self._push(self.now + t.interval_us, "arrival", node_id)
            return
        # wimax-ss paced arrivals in fixed ticks, each what the rate owes by
        # its end less what it owed at its start, so the run's sum is exact
        links, now, tick = self.sses[node_id].links, self.now, _WIMAX_ARRIVAL_TICK_US
        for direction, rate in ((DL, t.dl_bytes_per_s), (UL, t.ul_bytes_per_s)):
            nbytes = rate * (now + tick) // 1_000_000 - rate * now // 1_000_000
            if nbytes:
                links[direction].offer(now, nbytes)
        self._push(now + tick, "arrival", node_id)

    def _top_up_saturated(self, sses: list[_SsRt]) -> None:
        target = self._top_up_bytes
        for ss in sses:
            for link in ss.saturated:
                queued = link.queue.queued_bytes
                if queued < target:
                    link.offer(self.now, target - queued)

    # ------------------------------------------------------------------ wimax

    def _plan(self, key: tuple) -> tuple[tuple, dict[str, tuple[int, int]]]:
        """(grants, spans) of a frame whose claiming stations have the demands
        of ``key``, one (station, DL queued bytes, UL queued bytes) per station
        in id order: the grants ``build_frame_map`` makes, and each granted
        station's first grant offset and last grant end, from the frame start.

        A frame map is a pure function of the demands and the frame
        geometry, and its grants are immutable, so one plan serves every frame
        with the same key."""
        grants = build_frame_map([SsDemand(ss, nbytes, direction)
                                  for ss, dl, ul in key
                                  for direction, nbytes in ((DL, dl), (UL, ul))],
                                 self.cfg.wimax)
        # a station's grants come in time order
        spans: dict[str, tuple[int, int]] = {}
        for g in grants:
            first = spans[g.ss][0] if g.ss in spans else g.offset_us
            spans[g.ss] = (first, g.offset_us + g.len_us)
        return grants, spans

    def _on_boundary(self, bs_id: str) -> None:
        now = self.now
        sses = self.cells[bs_id]
        frame_start = now + self._frame_us
        self._top_up_saturated(sses)
        # one that may not claim in this frame asks for nothing; the key comes
        # from a list because tuple() of a generator resizes each key, which
        # parks up to 2,000 freed blocks (about 100 KB) on the tuple free list
        grants, spans = self._plans[tuple([
            (ss.node.id, ss.links[DL].queue.queued_bytes, ss.links[UL].queue.queued_bytes)
            for ss in sses
            if ss.reservation is None or ss.reservation.claims(frame_start)])]
        for g in grants:
            self._push(frame_start + g.offset_us, "burst", g)
        for ss in sses:
            ss_id = ss.node.id
            slots = ss.slots
            if slots is not None:  # every WiFi span starts at or after now
                while slots and slots[0][2] <= now:
                    slots.popleft()
                slots.extend((g.direction, frame_start + g.offset_us,
                              frame_start + g.offset_us + g.len_us)
                             for g in grants if g.ss == ss_id)
            span = spans.get(ss_id)
            res = ss.reservation
            if span is not None and res is not None and res.claimed(frame_start):
                self._push(max(now, frame_start + span[0] - self.cfg.reservation.lead_us),
                           "reserve", (ss, frame_start + span[1]))
        self._push(frame_start, "boundary", bs_id)

    def _on_burst(self, grant) -> None:
        link = self.sses[grant.ss].links[grant.direction]
        capacity = self._capacity
        serve = min(link.queue.queued_bytes, int(grant.len_us * capacity))
        if serve <= 0:
            return
        holds: list[str] = []
        if not self._arbiter_request(link.src, TX, (self.now, self.now + grant.len_us), holds):
            self._note(f"{self.now}|deny|{grant.direction.lower()}|{link.src}")
            return
        airtime = max(1, min(grant.len_us, math.ceil(serve / capacity)))
        tx = Transmission(source=link.src, kind=WIMAX_BURST, start_us=self.now,
                          airtime_us=airtime, power_dbm=self.interfaces[link.src].tx_power_dbm,
                          dest=link.dst)
        self._begin_tx(_TxRec(tx, holds, link, serve))

    # ------------------------------------------------------------------ reservation

    def _on_reserve(self, data) -> None:
        ss, last = data
        plan = ss.reservation.plan(self.now, last)
        if plan is None:
            return
        reservation, chunks = plan
        if not chunks:
            self._note(f"{self.now}|reserve-skip|{ss.node.id}|{reservation}")
            return
        self._send_train(chunks, f"reserve|{ss.node.id}")

    def _on_inject(self, node_id: str) -> None:
        node = self.cfg.node(node_id)
        t = node.traffic
        start = max(self.now, self.stations[node_id].busy_until_us)  # past its own last train too
        power = node.tx_power_dbm if t.power_dbm is None else t.power_dbm
        chunks = build_cts_train(t.reservation_us, power, start, source=node_id,
                                 cts_airtime_us=self.dcf.cts_airtime_us)
        self._send_train(chunks, f"inject|{node_id}")
        if t.repeat_us:
            self._push(self.now + t.repeat_us, "inject", node_id)

    def _send_train(self, chunks: list[Transmission], tag: str) -> None:
        """Push the chunks of a CTS train that start within the run, under one
        transmit grant over the train's span, from its first chunk's start to
        its last chunk's end, released by that end, and keep its radio from
        contending until then; a ``deny|tag`` note instead if denied.  A train
        cut at the run's end keeps its grant to the end."""
        source, last = chunks[0].source, chunks[-1]
        span = (chunks[0].start_us, last.end_us)
        holds: list[str] = []
        if not self._arbiter_request(source, TX, span, holds):
            self._note(f"{self.now}|deny|{tag}")
            return
        rt = self.stations[source]
        if rt.on_own_train(*span):
            self._resched[rt] = None
        for chunk in chunks:
            if chunk.start_us > self._end_us:
                break
            self._push(chunk.start_us, "cts", (chunk, holds if chunk is last else []))

    def _on_cts(self, data) -> None:
        chunk, holds = data
        self.cts_count += 1
        self.cts_airtime_us += chunk.airtime_us
        self._begin_tx(_TxRec(chunk, holds))

    # ------------------------------------------------------------------ arbiter

    def _arbiter_request(self, iface_id: str, desired, span: tuple[int, int],
                         holds: list[str]) -> bool:
        """Whether the radio may go ahead; one that no arbiter governs always
        may.  A grant appends the interface to ``holds``, the grants its
        frame releases when it ends.  A schedule-aware arbiter first checks a
        WiFi radio's span against the upcoming slots of its platform's
        subscriber stations.  Each decision leaves one ``arb`` note."""
        arbiter = self.arbiters.get(iface_id)
        if arbiter is None:
            return True
        for slots in self._watched.get(iface_id, ()):
            if arb.schedule_aware_check(desired, span, slots) == arb.DENY:
                decision = arb.DENY
                break
        else:
            decision = arbiter.request(iface_id, desired)
        self._note(f"{self.now}|arb|{iface_id}|{desired}|{decision}")
        if decision == arb.DENY:
            return False
        holds.append(iface_id)
        return True

    # ------------------------------------------------------------------ medium

    def _count_conflict(self, rec: _TxRec) -> None:
        """Add the time, clipped, in which one radio transmits while a
        platform mate listens, pairing ``rec`` with itself and each frame on air."""
        tx, src_plat, rx_plat = rec.tx, rec.emitter.src_plat, rec.rx_plat
        if src_plat is not None and src_plat == rx_plat:
            self.conflict_us += self._clip(tx.start_us, tx.end_us)
        for other in self.active:
            o = other.tx
            overlap = self._clip(max(tx.start_us, o.start_us), min(tx.end_us, o.end_us))
            if src_plat is not None and other.rx_plat == src_plat and o.dest != tx.source:
                self.conflict_us += overlap
            if rx_plat is not None and other.emitter.src_plat == rx_plat and o.source != tx.dest:
                self.conflict_us += overlap

    def _begin_tx(self, rec: _TxRec) -> None:
        tx, link = rec.tx, rec.link
        source = tx.source
        if link is None:  # a CTS chunk
            em = self._emitters[source, tx.power_dbm, None]
        elif (em := link.emitter) is None:
            em = link.emitter = self._emitters[source, tx.power_dbm, tx.dest]
        rec.emitter = em
        corrupters = em.corrupters
        # an addressee that receives the frame at or above sensitivity, as a
        # non-empty set says, is asked whether it listens
        if tx.dest is not None and corrupters:
            if self._arbiter_request(tx.dest, RX, (tx.start_us, tx.end_us), rec.holds):
                rec.rx_plat = em.rx_plat
            else:
                rec.missed = True
                corrupters = _NO_SOURCES
        rec.corrupters = corrupters
        if em.src_plat is not None or rec.rx_plat is not None:
            self._count_conflict(rec)

        # each frame collects only the overlapping emissions of its corrupters
        for other in self.active:
            if source in other.corrupters:
                other.overlappers.append(tx)
            if other.tx.source in corrupters:
                rec.overlappers.append(other.tx)
        self.active[rec] = None

        clipped = self._clip(tx.start_us, tx.end_us)
        if link:
            link.stats.airtime_us += clipped
        # a system's airtime is the union of its emissions; they begin in
        # time order, so only the part after its busy-until is new
        system = em.system
        busy = system.busy_until
        if tx.end_us > busy:
            if busy > tx.start_us:
                clipped = self._clip(busy, tx.end_us)
            system.airtime += clipped
            system.air_cum += tx.end_us - max(busy, tx.start_us)
            system.busy_until = tx.end_us

        # a WiFi source is busy with its own emission, and every other WiFi
        # radio whose carrier sense it trips senses it; a voided attempt
        # re-arms at the next frame end
        sense(em.busy, tx.start_us, tx.end_us, tx.kind, self._resched)
        self._push(tx.end_us, "txend", rec)
        self._note(f"{tx.start_us}|air|{tx.kind}{em.pair}{tx.airtime_us}{em.power}")

    def _on_txend(self, rec: _TxRec) -> None:
        tx = rec.tx
        del self.active[rec]
        for iface_id in rec.holds:
            self.arbiters[iface_id].release(iface_id)

        # a frame that nothing overlapped decodes wherever it arrives at or
        # above sensitivity, as its record says: its corrupter set holds the
        # addressee, and its hearers each CTS receiver, exactly when they do
        window, overlappers, em = (tx.start_us, tx.end_us), rec.overlappers, rec.emitter
        if tx.dest is not None:
            if rec.missed:  # the addressee was not listening
                result = "missed"
            elif not overlappers:
                result = DECODED if rec.corrupters else BELOW_SENSITIVITY
            else:
                result = delivery_result(tx, overlappers, self.interfaces[tx.dest], window,
                                         self.medium, self._loss_rows[tx.dest]).result
                if result == CORRUPTED:
                    rec.link.stats.corrupted_frames += 1
            decoded = result == DECODED
            if tx.kind is WIMAX_BURST:
                self._finish_burst(rec, decoded)
            else:
                self._finish_wifi_data(rec, decoded)
            self._note(f"{self.now}|outcome{em.pair}{result}")

        # a CTS sets the NAV of each hearer that decodes it; a frame with an
        # addressee has no hearers
        for rt in em.hearers:
            sid = rt.node.id
            if overlappers and delivery_result(tx, overlappers, rt.iface, window, self.medium,
                                               self._loss_rows[sid]).result != DECODED:
                continue
            had_nav = rt.nav_expiry_us
            if rt.on_overheard(tx, self.now):
                self._resched[rt] = None
            if rt.nav_expiry_us != had_nav:
                self._note(f"{self.now}|nav|{sid}|{rt.nav_expiry_us}")

        # neighbourhood monitoring by co-located coordinators, of other platforms
        for res, rx_dbm in em.monitors:
            res.hear(self.now, tx.source, rx_dbm)

        # wake frozen stations
        if self._resched:
            self._schedule_access(self._resched)
            self._resched.clear()

    def _finish_burst(self, rec: _TxRec, decoded: bool) -> None:
        link = rec.link
        if decoded:
            delays = link.queue.consume(rec.served_bytes, self.now)
            self._count_delivery(link, rec.served_bytes, delays)
            res = self.sses[link.dst if link.dst in self.sses else link.src].reservation
            if res is not None and res.delays is not None:  # kept for a QoS target
                res.delays.extend((self.now, d) for d in delays)
        else:
            link.stats.retransmissions += 1
            link.system.retx_cum += 1

    def _finish_wifi_data(self, rec: _TxRec, decoded: bool) -> None:
        link = rec.link
        rt = self.stations[link.src]
        res = rt.on_tx_outcome(decoded)
        if decoded:
            self._count_delivery(link, rec.served_bytes, [self.now - rt.head_us])
        elif res == OUTCOME_RETRY:
            link.stats.retransmissions += 1
            link.system.retx_cum += 1
        elif res == OUTCOME_DROP:
            link.stats.dropped_frames += 1
        if res != OUTCOME_RETRY:  # the frame left
            t = rt.node.traffic
            if t.kind == "saturated":  # it holds one frame; the next comes now
                link.offer(self.now, t.frame_bytes)
            else:  # paced frames arrive every interval from time 0
                rt.head_us += t.interval_us
        self._schedule_access((rt,))

    # ------------------------------------------------------------------ wifi access

    def _schedule_access(self, stations) -> None:
        """Arm an access attempt for each of ``stations`` that has none
        pending and a frame to send."""
        now, heap, push = self.now, self._heap, heapq.heappush
        for rt in stations:
            attempt = rt.arm_attempt(now)  # None if one is pending
            if attempt is not None:
                token, start = attempt
                # (order, token, station) is both seq and data: same-time
                # attempts pop in config order, whatever order they were armed in
                key = (rt.order, token, rt)
                push(heap, (start, P_ACCESS, key, "access", key))

    def _on_access(self, data) -> None:
        """A live attempt, whose token the run loop has taken."""
        rt = data[2]
        sid = rt.node.id
        airtime = rt.airtime_us
        holds: list[str] = []
        if not self._arbiter_request(sid, TX, (self.now, self.now + airtime), holds):
            self._push(self.now + self.cfg.arbiter.retry_us, "retry", sid)
            return
        rt.transmitting = True
        tx = Transmission(source=sid, kind=DATA, start_us=self.now,
                          airtime_us=airtime, power_dbm=rt.iface.tx_power_dbm,
                          dest=rt.node.peer)
        self._begin_tx(_TxRec(tx, holds, rt.link, rt.frame_bytes))

    def _on_retry(self, sid: str) -> None:
        self._schedule_access((self.stations[sid],))

    # ------------------------------------------------------------------ feedback ticks

    def _on_pacing(self, ss_id: str) -> None:
        note = self.sses[ss_id].reservation.pacing_tick(
            self.now, self.system_of[ss_id].air_cum)
        if note is not None:
            self._note(f"{self.now}|pacing|{ss_id}|{note}")
        self._push(self.now + self.cfg.reservation.pacing_tick_us, "pacing", ss_id)

    def _on_eval(self, ss_id: str) -> None:
        system = self.system_of[ss_id]
        note = self.sses[ss_id].reservation.eval_tick(
            self.now, system.retx_cum, system.delivered_cum)
        if note is not None:
            self._note(f"{self.now}|gate|{ss_id}|{note}")
        self._push(self.now + self.cfg.reservation.eval_tick_us, "eval", ss_id)


def run(config: ScenarioConfig, seed: Optional[int] = None) -> RunResult:
    """Run one scenario to completion; bit-identical for equal (config, seed)."""
    return Engine(config, seed=seed).run()
