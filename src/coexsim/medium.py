"""Radio medium model.

Propagation loss, adjacent-channel rejection, link budgets and per-receiver
delivery outcomes.  Everything in this module is a pure function of its
inputs: no clocks, no randomness, no shared state.

Conventions: distances in meters, powers in dBm, losses in dB, frequencies
in MHz, times in integer microseconds of virtual clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping, NamedTuple, Optional, Sequence

# 20*log10(4*pi/c) for d in meters and f in MHz
_FSPL_CONST_DB = 27.55

FREE_SPACE = "free-space"
LOG_DISTANCE = "log-distance"
# the largest magnitude of a coordinate; squared distances stay far from overflow
POSITION_LIMIT_M = 1e6


class Memo(dict):
    """Key -> value, filled by ``fill(key)`` on first use and kept."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _bound_problem(value, lo, hi, choices) -> Optional[str]:
    """What is wrong with a field's value against its metadata, or None."""
    if isinstance(value, float) and not math.isfinite(value):  # NaN passes every bound test
        return "must be finite"
    if lo is not None and value < lo:
        return f"must be >= {lo}"
    if hi is not None and value > hi:
        return f"must be <= {hi}"
    if choices is not None and value not in choices:
        return f"must be one of {sorted(choices)}"
    return None


# (name, lo, hi, choices) of each field with metadata, per section class
_BOUNDS = Memo(lambda cls: tuple((f.name, f.metadata.get("lo"), f.metadata.get("hi"),
                                  f.metadata.get("choices")) for f in fields(cls) if f.metadata))


class Bounded:
    """Base of the config sections.  Field metadata holds the bounds a
    scenario file may set: ``lo``, ``hi``, ``choices``, and a float must be
    finite.  Construction checks them, so a section built in code or with
    ``dataclasses.replace`` keeps them too; the first field out of bounds
    raises ``ValueError("<field>: <problem>")``, the parser's text.  A
    section with cross-field rules checks them after calling this."""

    def __post_init__(self) -> None:
        for name, lo, hi, choices in _BOUNDS[type(self)]:
            value = getattr(self, name)
            if value is not None:
                problem = _bound_problem(value, lo, hi, choices)
                if problem:
                    raise ValueError(f"{name}: {problem}")


@dataclass(frozen=True)
class Position:
    """A point on the desk-scale plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (abs(self.x) <= POSITION_LIMIT_M and abs(self.y) <= POSITION_LIMIT_M):
            raise ValueError(f"coordinates must be finite, within {POSITION_LIMIT_M:,.0f} m of 0")

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class PathLossModel(Bounded):
    """Free-space or log-distance attenuation.

    ``reference_loss_db`` is the loss at 1 m.  For the free-space model the
    exponent is pinned to 2.0 and the loss is computed from ``frequency_mhz``
    directly; for log-distance the loss is
    ``reference_loss_db + 10 * exponent * log10(d / 1 m)``.
    """

    kind: str = field(default=FREE_SPACE, metadata={"choices": (FREE_SPACE, LOG_DISTANCE)})
    exponent: float = field(default=2.0, metadata={"lo": 2.0, "hi": 6.0})
    reference_loss_db: float = field(default=40.05, metadata={"lo": 1.0, "hi": 200.0})
    frequency_mhz: float = field(default=2400.0, metadata={"lo": 400.0, "hi": 7125.0})

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind == FREE_SPACE and self.exponent != 2.0:
            raise ValueError("free-space model has a fixed exponent of 2.0")


def path_loss(distance_m: float, model: PathLossModel) -> float:
    """Attenuation in dB over ``distance_m``.

    Distances below 1 m clamp to the 1 m loss so that near-field geometry
    cannot produce negative loss.
    """
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    d = max(distance_m, 1.0)
    if model.kind == FREE_SPACE:
        return 20.0 * math.log10(d) + 20.0 * math.log10(model.frequency_mhz) - _FSPL_CONST_DB
    return model.reference_loss_db + 10.0 * model.exponent * math.log10(d)


def invert_path_loss(loss_db: float, model: PathLossModel) -> float:
    """Distance in meters at which the model produces ``loss_db``.

    Inverse of :func:`path_loss` without the 1 m clamp; losses below the
    1 m value map to distances below 1 m.
    """
    if model.kind == FREE_SPACE:
        return 10.0 ** ((loss_db - 20.0 * math.log10(model.frequency_mhz) + _FSPL_CONST_DB) / 20.0)
    return 10.0 ** ((loss_db - model.reference_loss_db) / (10.0 * model.exponent))


@dataclass(frozen=True)
class SpillageEntry(Bounded):
    """One row of a spillage table, the scenario's ``medium.spillage`` list;
    the table keeps rows as tuples.  Both keys are required."""

    separation_mhz: float = field(metadata={"lo": 0.1})
    rejection_db: float = field(metadata={"lo": 0.0})


@dataclass(frozen=True)
class SpillageTable:
    """Adjacent-channel rejection versus channel-center separation.

    Rejection is linearly interpolated between entries and clamped to the
    first/last entry outside the table.  Zero separation (co-channel) is
    always 0 dB rejection.
    """

    entries: tuple[tuple[float, float], ...] = ((32.0, 41.0), (114.0, 55.0))

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("spillage table needs at least one entry")
        rows = [SpillageEntry(*e) for e in self.entries]  # each checks its bounds
        seps = [r.separation_mhz for r in rows]
        rejs = [r.rejection_db for r in rows]
        if sorted(seps) != seps or len(set(seps)) != len(seps):
            raise ValueError("entries must be sorted by separation, no duplicates")
        if any(b < a for a, b in zip(rejs, rejs[1:])):
            raise ValueError("rejection must be non-decreasing with separation")

    def rejection_db(self, separation_mhz: float) -> float:
        sep = abs(separation_mhz)
        if sep == 0:
            return 0.0
        entries = self.entries
        if sep <= entries[0][0]:
            return entries[0][1]
        if sep >= entries[-1][0]:
            return entries[-1][1]
        for (s0, r0), (s1, r1) in zip(entries, entries[1:]):
            if sep <= s1:  # the first segment that reaches sep, and s0 < sep
                break
        return r0 + (r1 - r0) * (sep - s0) / (s1 - s0)


# the kinds of emission on the air, as the behaviour notes print them
DATA, CTS, WIMAX_BURST = "data", "cts", "wimax-burst"


@dataclass(frozen=True)
class RadioInterface:
    """A positioned transceiver."""

    id: str
    position: Position
    channel_mhz: float
    tx_power_dbm: float
    decode_sensitivity_dbm: float
    cca_threshold_dbm: float
    platform: Optional[str] = None  # shared id marks co-located interfaces


class _Emission(NamedTuple):
    source: str
    kind: str
    start_us: int
    airtime_us: int
    power_dbm: float
    dest: Optional[str]
    nav_duration_us: int  # CTS only: medium time reserved past frame end
    # start_us + airtime_us, stored: the engine and the decode rule read it
    # on every frame end and every overlap test
    end_us: int


class Transmission(_Emission):
    """An on-air emission over [start_us, start_us + airtime_us): an
    immutable record, built once per emission.

    ``end_us`` is derived at construction and cannot be given (``_make``
    refuses one that disagrees); a copy made with ``_replace`` derives it
    again.  It goes out on its source interface's channel: link budgets
    take the channel from the interface (see :meth:`MediumModel.link_loss_db`).
    """

    __slots__ = ()

    def __new__(cls, source: str, kind: str, start_us: int, airtime_us: int,
                power_dbm: float, dest: Optional[str] = None,
                nav_duration_us: int = 0) -> Transmission:
        if airtime_us < 1:
            raise ValueError("airtime must be at least 1 us")
        if nav_duration_us < 0:
            raise ValueError("nav duration must be non-negative")
        return tuple.__new__(cls, (source, kind, start_us, airtime_us, power_dbm, dest,
                                   nav_duration_us, start_us + airtime_us))

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild through __new__, which takes no end_us
        return tuple(self)[:-1]

    @classmethod
    def _make(cls, iterable) -> Transmission:
        *given, end_us = iterable
        tx = cls(*given)
        if end_us != tx.end_us:
            raise ValueError("end_us must be start_us + airtime_us")
        return tx

    def _replace(self, **changes) -> Transmission:
        if "end_us" in changes:
            raise ValueError("end_us is start_us + airtime_us; it cannot be set")
        return Transmission(**dict(zip(self._fields[:-1], self), **changes))


DECODED = "decoded"
CORRUPTED = "corrupted"
BELOW_SENSITIVITY = "below-sensitivity"


class DeliveryOutcome(NamedTuple):
    receiver: str
    result: str  # decoded | corrupted | below-sensitivity
    rx_power_dbm: float


@dataclass(frozen=True)
class MediumModel(Bounded):
    """Propagation parameters shared by one scenario; the scenario's
    ``medium`` section.

    ``colocated_coupling_db`` replaces path loss between interfaces on the
    same platform, where the geometric distance would be 0 m.
    """

    path_loss: PathLossModel = field(default_factory=PathLossModel)
    spillage: SpillageTable = field(default_factory=SpillageTable)
    sinr_threshold_db: float = field(default=10.0, metadata={"lo": 0.0, "hi": 60.0})
    colocated_coupling_db: float = field(default=20.0, metadata={"lo": 0.0, "hi": 120.0})

    def link_loss_db(self, src: RadioInterface, dst: RadioInterface) -> float:
        """Total loss from src to dst: propagation plus channel rejection."""
        if src.platform is not None and src.platform == dst.platform:
            loss = self.colocated_coupling_db
        else:
            loss = path_loss(src.position.distance_to(dst.position), self.path_loss)
        return loss + self.spillage.rejection_db(src.channel_mhz - dst.channel_mhz)


def received_power(tx_power_dbm: float, src: Position, dst: Position,
                   src_channel_mhz: float, dst_channel_mhz: float,
                   model: PathLossModel, spillage: SpillageTable,
                   coupling_db: Optional[float] = None) -> float:
    """In-band power at a receiver tuned to ``dst_channel_mhz``.

    ``coupling_db`` substitutes for path loss when the radios share a
    platform (distance 0 m would otherwise be out of the model's domain).
    """
    if coupling_db is not None:
        loss = coupling_db
    else:
        loss = path_loss(src.distance_to(dst), model)
    return tx_power_dbm - loss - spillage.rejection_db(src_channel_mhz - dst_channel_mhz)


def required_isolation(spillage_level_dbm: float, tolerance_dbm: float) -> float:
    """Attenuation needed to push a spillage level below a victim's tolerance."""
    return spillage_level_dbm - tolerance_dbm


def delivery_result(tx: Transmission, active: Sequence[Transmission],
                    receiver: RadioInterface, t_window: tuple[int, int],
                    medium: MediumModel, loss_db: Mapping[str, float]) -> DeliveryOutcome:
    """Outcome of ``tx`` at ``receiver`` against a set of overlappers.

    The receiver decodes iff the frame is above its sensitivity and, at every
    instant the frame overlaps ``t_window``, the margin over the strongest
    single in-band interferer meets the SINR threshold.  A receiver that is
    itself on air during the frame never decodes.  The receiver is the
    addressee for a delivery, or any listener for overhearing.

    ``loss_db`` maps a source id to the link loss from that source to the
    receiver.  Positions and channels are static and every emission goes out
    on its source interface's channel, so a loss row, a :class:`Memo` filled
    from ``link_loss_db``, serves every emission of each source.  Lazy on
    purpose: the receiver's own emissions never ask for a loss to itself,
    which has no distance.
    """
    rid = receiver.id
    signal = tx.power_dbm - loss_db[tx.source]
    if signal < receiver.decode_sensitivity_dbm:
        return DeliveryOutcome(rid, BELOW_SENSITIVITY, signal)
    w0, w1 = t_window
    lo = max(tx.start_us, w0)
    hi = min(tx.end_us, w1)
    if lo >= hi:
        # no instant of the frame lies in the window: nothing can corrupt it
        return DeliveryOutcome(rid, DECODED, signal)
    threshold = medium.sinr_threshold_db
    for other in active:
        if other is tx:
            continue
        # every emission has start < end and lo < hi, so this is "no overlap"
        if other.start_us >= hi or other.end_us <= lo:
            continue
        if other.source == rid:
            # half-duplex: the receiver was transmitting over this frame
            return DeliveryOutcome(rid, CORRUPTED, signal)
        if signal - (other.power_dbm - loss_db[other.source]) < threshold:
            return DeliveryOutcome(rid, CORRUPTED, signal)
    return DeliveryOutcome(rid, DECODED, signal)


def resolve_deliveries(active: Sequence[Transmission],
                       interfaces: Mapping[str, RadioInterface],
                       t_window: tuple[int, int],
                       medium: MediumModel) -> list[DeliveryOutcome]:
    """Delivery outcome for every addressed transmission in ``active``.

    Deterministic: outcomes are listed in (start, source, dest) order of the
    addressed transmissions, and depend only on the arguments.  Each
    emission is taken to be on its source interface's channel.
    """
    ordered = sorted((tx for tx in active if tx.dest is not None and tx.dest in interfaces),
                     key=lambda t: (t.start_us, t.source, t.dest))
    rows = Memo(lambda dst: Memo(
        lambda src: medium.link_loss_db(interfaces[src], interfaces[dst])))
    return [delivery_result(tx, active, interfaces[tx.dest], t_window, medium, rows[tx.dest])
            for tx in ordered]
