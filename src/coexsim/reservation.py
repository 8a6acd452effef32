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

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .medium import CTS, Bounded, PathLossModel, Transmission, invert_path_loss, path_loss
from .wifi import DcfParams, WifiStation

NAV_FIELD_CAP_US = 32767

CTS_POWER_FLOOR_DBM = -30.0
CTS_POWER_CEILING_DBM = 20.0
CTS_POWER_MARGIN_DB = 3.0       # above the level that just trips carrier sense


def build_cts_train(reservation_us: int, power_dbm: float, start_us: int,
                    source: str, min_reservation_us: int = 0,
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
            source=source, kind=CTS, start_us=at,
            airtime_us=cts_airtime_us, power_dbm=power_dbm, nav_duration_us=duration))
        at += duration
        remaining -= duration
    return chunks


def estimate_interferers(overheard: Sequence[tuple[str, float]],
                         assumed_tx_power_dbm: float,
                         model: PathLossModel) -> tuple[int, float]:
    """(active systems, reach in m) of the neighbourhood, from the frames
    overheard within the monitor window.

    ``overheard`` holds (source id, rx power dBm) pairs already restricted to
    the window; the count is distinct sources, the reach is the path-loss
    inversion of the weakest power under the assumed transmit power.
    """
    sources = {src for src, _ in overheard}
    if not sources:
        return 0, 0.0
    weakest = min(rx for _, rx in overheard)
    return len(sources), invert_path_loss(assumed_tx_power_dbm - weakest, model)


def update_pacing(claim_interval_us: int, active_systems: int, measured_share: float,
                  delta: float, interval_min_us: int, interval_max_us: int) -> int:
    """The next claim interval under the utilization goal ``1 / (1 + active systems)``.

    The interval halves (down to the floor) while the measured share runs
    below goal - delta, doubles (up to the ceiling) above goal + delta, and
    holds inside the dead band.
    """
    if not 0 <= measured_share <= 1:
        raise ValueError("measured share must be in [0, 1]")
    goal = 1.0 / (1 + active_systems)
    if measured_share < goal - delta:
        return max(interval_min_us, claim_interval_us // 2)
    if measured_share > goal + delta:
        return min(interval_max_us, claim_interval_us * 2)
    return claim_interval_us


def reservation_power(reach_m: float, cca_threshold_dbm: float,
                      model: PathLossModel) -> float:
    """Minimum CTS power that trips carrier sense out to ``reach_m``.

    Clamped to [-30, +20] dBm; with nothing to silence (reach 0) the floor
    is returned.
    """
    if reach_m < 0:
        raise ValueError("reach must be non-negative")
    if reach_m == 0:
        return CTS_POWER_FLOOR_DBM
    level = cca_threshold_dbm + path_loss(max(reach_m, 1.0), model) + CTS_POWER_MARGIN_DB
    return min(CTS_POWER_CEILING_DBM, max(CTS_POWER_FLOOR_DBM, level))


@dataclass(frozen=True)
class QosTarget(Bounded):
    """The scenario's optional ``reservation.qos`` section."""

    min_throughput_bytes_per_s: float = field(default=0.0, metadata={"lo": 0.0})
    max_mean_delay_us: float = field(default=1e12, metadata={"lo": 0.0})


def evaluate_performance(cts_on: bool, baseline: float, next_check_us: int,
                         retx_in_window: int, throughput_bytes_per_s: float, now_us: int,
                         enable_retx_threshold: int, eval_window_us: int,
                         hold_us: int) -> tuple[bool, float, int]:
    """One step of the CTS on/off gate; returns its new (on, baseline, next check).

    No switch happens before ``next_check_us``.  Off + a window with
    ``enable_retx_threshold`` or more retransmissions turns the CTS on, takes
    current throughput as the baseline and checks it again one evaluation
    window later.  On + throughput at or below the baseline turns it back
    off and holds it off for ``hold_us``.  Throughput is delivered bytes.
    """
    if now_us < next_check_us:
        return cts_on, baseline, next_check_us
    if not cts_on:
        if retx_in_window >= enable_retx_threshold:
            return True, throughput_bytes_per_s, now_us + eval_window_us
    elif throughput_bytes_per_s <= baseline:
        return False, baseline, now_us + hold_us
    return cts_on, baseline, next_check_us


def _windowed(points: deque, now_us: int, cum_now: int, window_us: int) -> float:
    """Rate per second over the last window, from cumulative checkpoints."""
    points.append((now_us, cum_now))
    floor = now_us - window_us
    while len(points) > 1 and points[1][0] <= floor:
        points.popleft()
    t0, c0 = points[0]
    return (cum_now - c0) * 1e6 / (now_us - t0) if now_us > t0 else 0.0


class Reservation:
    """A subscriber station's CTS-to-self controller under the scenario's
    reservation section ``cfg``.  Its ``coordinator``, the co-located WiFi
    radio (None if it has none), overhears the neighbourhood and sends trains.
    The QoS scale does not grow before ``warmup_us``."""

    def __init__(self, cfg, coordinator: Optional[WifiStation], model: PathLossModel,
                 warmup_us: int):
        self.cfg = cfg
        self.coordinator = coordinator
        self.model = model
        self.warmup_us = warmup_us
        self.claim_interval_us = cfg.claim_interval_init_us
        self.next_claim_at = 0
        self.interferers = 0                 # active systems heard in the monitor window
        self.reach_m = 0.0                   # estimated distance of the farthest of them
        self.cts_on = False                  # the performance gate
        self.baseline = 0.0                  # throughput when the gate last switched on
        self.next_check_us = 0               # no gate switch before this
        self.scale = 1.0                     # QoS reservation scale, in [1, qos_growth_cap]
        self.last_retx_cum = 0
        self.heard: dict = {}                # (source, rx power) -> last time heard
        # (t, delay sample), kept only for a QoS target
        self.delays: Optional[deque] = deque() if cfg.qos is not None else None
        self.share_points: deque = deque()   # (t, cumulative system airtime)
        self.delivered_points: deque = deque()

    def claims(self, frame_start: int) -> bool:
        """Whether pacing lets the station ask for slots in this frame."""
        return not self.cfg.pacing or frame_start >= self.next_claim_at

    def claimed(self, frame_start: int) -> bool:
        """Note slots granted in this frame; whether to reserve ahead of them."""
        self.next_claim_at = frame_start + self.claim_interval_us
        return self.coordinator is not None and (
            not self.cfg.performance_gating or self.cts_on)

    def hear(self, now: int, source: str, rx_dbm: float) -> None:
        if rx_dbm >= self.coordinator.iface.decode_sensitivity_dbm:
            self.heard[source, rx_dbm] = now

    def plan(self, now: int, last: int) -> Optional[tuple[int, list[Transmission]]]:
        """(reservation, CTS train) covering the medium until ``last``, with no
        chunks below the minimum; None while the coordinator's last train is
        on air or if no span is left."""
        coord = self.coordinator
        if coord.train_until_us > now:
            return None
        cfg = self.cfg
        iface = coord.iface
        airtime = coord.params.cts_airtime_us
        start = max(now, coord.busy_until_us)
        span = last - (start + airtime)
        if span <= 0:
            return None
        reservation = int(span * self.scale)
        power = (reservation_power(self.reach_m, iface.cca_threshold_dbm, self.model)
                 if cfg.power_sizing else cfg.cts_power_dbm)
        chunks = build_cts_train(
            reservation, power, start, source=iface.id,
            min_reservation_us=cfg.min_reservation_us if cfg.performance_gating else 0,
            cts_airtime_us=airtime)
        return reservation, chunks

    def pacing_tick(self, now: int, system_air_cum: int) -> Optional[str]:
        """Update the estimate and the claim interval; the ``pacing`` note."""
        cfg = self.cfg
        floor = now - cfg.monitor_window_us
        self.heard = {key: t for key, t in self.heard.items() if t >= floor}
        self.interferers, self.reach_m = estimate_interferers(
            list(self.heard), cfg.assumed_tx_power_dbm, self.model)
        if not cfg.pacing:
            return None
        share = min(1.0, _windowed(self.share_points, now, system_air_cum,
                                   cfg.share_window_us) / 1e6)
        self.claim_interval_us = update_pacing(
            self.claim_interval_us, self.interferers, share, delta=cfg.share_delta,
            interval_min_us=cfg.claim_interval_min_us,
            interval_max_us=cfg.claim_interval_max_us)
        return f"{self.interferers}|{share:.4f}|{self.claim_interval_us}"

    def eval_tick(self, now: int, retx_cum: int, delivered_cum: int) -> Optional[str]:
        """Step the gate and the QoS scale; the ``gate`` note if the gate
        switched.

        A tick that misses the QoS target grows the scale by
        ``1 + qos_growth_step``, up to the cap, but only after the warm-up and
        while the station reserves (the gate is on, or gating is off); a
        tick that meets it shrinks the scale by the same factor, down to 1."""
        cfg = self.cfg
        throughput = _windowed(self.delivered_points, now, delivered_cum, cfg.eval_window_us)
        was_on = self.cts_on
        if cfg.performance_gating:
            retx_in_window = retx_cum - self.last_retx_cum
            self.last_retx_cum = retx_cum
            self.cts_on, self.baseline, self.next_check_us = evaluate_performance(
                was_on, self.baseline, self.next_check_us, retx_in_window, throughput, now,
                enable_retx_threshold=cfg.retx_enable_threshold,
                eval_window_us=cfg.eval_window_us, hold_us=cfg.hold_us)
        qos = cfg.qos
        if qos is not None:
            delays, floor = self.delays, now - cfg.eval_window_us
            while delays and delays[0][0] < floor:
                delays.popleft()
            mean_delay = sum(d for _, d in delays) / len(delays) if delays else 0.0
            step = 1 + cfg.qos_growth_step
            if (throughput >= qos.min_throughput_bytes_per_s
                    and mean_delay <= qos.max_mean_delay_us):
                self.scale = max(1.0, self.scale / step)
            elif now >= self.warmup_us and (self.cts_on or not cfg.performance_gating):
                self.scale = min(cfg.qos_growth_cap, self.scale * step)
        if self.cts_on != was_on:
            return "on" if self.cts_on else "off"
        return None
