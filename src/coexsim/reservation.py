"""Adaptive CTS-to-self frame reservation for a subscriber station's
collocated WiFi interface.

A reservation is realized as a train of CTS frames whose NAV duration
fields sum to the requested span; the 802.11 duration field caps each
chunk at 32767 us, so longer reservations are chained gaplessly (each
follow-up CTS flies inside the NAV window set by its predecessor).

Three feedback mechanisms shape when and how the reservation is made:

* pacing — a utilization goal of ``1 / (1 + active interferers)`` with a
  claim interval that halves when the measured share runs under the goal
  and doubles when it overshoots;
* power sizing — the CTS is sent just loud enough to trip the carrier
  sense of the farthest estimated interferer, so unrelated networks are
  not silenced;
* performance gating — CTS emission switches on after a burst of
  retransmissions and back off when measured throughput does not improve,
  with a minimum-reservation threshold below which a CTS costs more air
  than it protects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .medium import FrameKind, PathLossModel, Transmission, invert_path_loss, path_loss
from .wifi import DcfParams

NAV_FIELD_CAP_US = 32767

CTS_POWER_FLOOR_DBM = -30.0
CTS_POWER_CEILING_DBM = 20.0


def build_cts_train(reservation_us: int, power_dbm: float, start_us: int,
                    source: str, channel_mhz: float,
                    min_reservation_us: int = 0,
                    cts_airtime_us: int = DcfParams.cts_airtime_us) -> list[Transmission]:
    """CTS frames whose NAV fields cover ``reservation_us`` without a gap.

    Returns no frames when the reservation is shorter than
    ``min_reservation_us``.  Chunk i+1 takes off at ``start_i + duration_i``,
    which keeps its airtime inside the NAV window of chunk i and ends it at
    the instant that window expires, so total coverage is the single interval
    ``[start + airtime, start + airtime + reservation]``.
    """
    if reservation_us <= 0:
        raise ValueError("reservation must be positive")
    if reservation_us < min_reservation_us:
        return []
    chunks = []
    remaining = reservation_us
    at = start_us
    while remaining > 0:
        duration = min(remaining, NAV_FIELD_CAP_US)
        chunks.append(Transmission(
            source=source, kind=FrameKind.CTS, start_us=at,
            airtime_us=cts_airtime_us, power_dbm=power_dbm,
            channel_mhz=channel_mhz, nav_duration_us=duration))
        at += duration
        remaining -= duration
    return chunks


@dataclass(frozen=True)
class InterfererEstimate:
    active_systems: int = 0
    max_distance_m: float = 0.0


def estimate_interferers(overheard: Sequence[tuple[str, float]], window_us: int,
                         assumed_tx_power_dbm: float,
                         model: PathLossModel) -> InterfererEstimate:
    """Neighborhood estimate from frames overheard within the monitor window.

    ``overheard`` holds (source id, rx power dBm) pairs already restricted to
    the window; the count is distinct sources, the reach is the path-loss
    inversion of the weakest power under the assumed transmit power.
    """
    if window_us <= 0:
        raise ValueError("window must be positive")
    sources = {src for src, _ in overheard}
    if not sources:
        return InterfererEstimate(0, 0.0)
    weakest = min(rx for _, rx in overheard)
    distance = invert_path_loss(assumed_tx_power_dbm - weakest, model)
    return InterfererEstimate(len(sources), distance)


@dataclass(frozen=True)
class PacingState:
    """Medium-acquisition pacing toward an equal-share utilization goal."""

    claim_interval_us: int
    utilization_goal: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.utilization_goal <= 1:
            raise ValueError("utilization goal must be in (0, 1]")


def update_pacing(state: PacingState, estimate: InterfererEstimate,
                  measured_share: float, delta: float,
                  interval_min_us: int, interval_max_us: int) -> PacingState:
    """One pacing step: refresh the goal, then adapt the claim interval.

    The interval halves (down to the floor) while the measured share runs
    below goal - delta, doubles (up to the ceiling) above goal + delta, and
    holds inside the dead band.
    """
    if not 0 <= measured_share <= 1:
        raise ValueError("measured share must be in [0, 1]")
    goal = 1.0 / (1 + estimate.active_systems)
    interval = state.claim_interval_us
    if measured_share < goal - delta:
        interval = max(interval_min_us, interval // 2)
    elif measured_share > goal + delta:
        interval = min(interval_max_us, interval * 2)
    return replace(state, utilization_goal=goal, claim_interval_us=interval)


def reservation_power(reach_m: float, cca_threshold_dbm: float,
                      model: PathLossModel, margin_db: float = 3.0) -> float:
    """Minimum CTS power that trips carrier sense out to ``reach_m``.

    Clamped to [-30, +20] dBm; with nothing to silence (reach 0) the floor
    is returned.
    """
    if reach_m < 0:
        raise ValueError("reach must be non-negative")
    if reach_m == 0:
        return CTS_POWER_FLOOR_DBM
    level = cca_threshold_dbm + path_loss(max(reach_m, 1.0), model) + margin_db
    return min(CTS_POWER_CEILING_DBM, max(CTS_POWER_FLOOR_DBM, level))


@dataclass(frozen=True)
class QosTarget:
    """The scenario's optional ``reservation.qos`` section; field metadata
    holds the bounds a scenario file may set."""

    min_throughput_bytes_per_s: float = field(default=0.0, metadata={"lo": 0.0})
    max_mean_delay_us: float = field(default=1e12, metadata={"lo": 0.0})


@dataclass(frozen=True)
class EvalState:
    """On/off feedback for CTS emission, driven by delivered throughput."""

    cts_enabled: bool = False
    throughput_before: float = 0.0
    throughput_after: float = 0.0
    qos: Optional[QosTarget] = None
    hold_until_us: int = 0
    enabled_at_us: int = 0
    qos_violated: bool = False


def evaluate_performance(state: EvalState, retx_in_window: int,
                         throughput_bytes_per_s: float, mean_delay_us: float,
                         now_us: int, enable_retx_threshold: int,
                         eval_window_us: int, hold_us: int) -> EvalState:
    """One evaluation step of the CTS on/off feedback loop.

    Off + a window with ``enable_retx_threshold`` or more retransmissions
    turns the CTS on and snapshots current throughput as the baseline.  On +
    one full evaluation window with throughput at or below the baseline turns
    it back off and holds it off for ``hold_us``.  The comparison is on
    delivered-bytes throughput.  A QoS target miss is flagged so the caller
    can grow reservation durations.
    """
    violated = state.qos is not None and (
        throughput_bytes_per_s < state.qos.min_throughput_bytes_per_s
        or mean_delay_us > state.qos.max_mean_delay_us)
    new = replace(state, qos_violated=violated)
    if not new.cts_enabled:
        if retx_in_window >= enable_retx_threshold and now_us >= new.hold_until_us:
            return replace(new, cts_enabled=True, enabled_at_us=now_us,
                           throughput_before=throughput_bytes_per_s)
        return new
    if now_us - new.enabled_at_us >= eval_window_us:
        new = replace(new, throughput_after=throughput_bytes_per_s)
        if new.throughput_after <= new.throughput_before:
            return replace(new, cts_enabled=False, hold_until_us=now_us + hold_us)
    return new
