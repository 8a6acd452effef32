import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from coexsim.medium import CTS, PathLossModel, Position, RadioInterface
from coexsim.reservation import (CTS_POWER_CEILING_DBM, CTS_POWER_FLOOR_DBM, NAV_FIELD_CAP_US,
                                 QosTarget, Reservation, build_cts_train, estimate_interferers,
                                 evaluate_performance, reservation_power, update_pacing)
from coexsim.scenario import ReservationConfig
from coexsim.wifi import DcfParams, WifiStation

LOGD = PathLossModel(kind="log-distance", exponent=3.0, reference_loss_db=40.05)
# delta and claim-interval bounds of the scenario defaults
PACING = dict(delta=0.02, interval_min_us=1000, interval_max_us=64_000)
# retransmission trigger, evaluation window and hold of the scenario defaults
GATE = dict(enable_retx_threshold=3, eval_window_us=1_000_000, hold_us=2_000_000)


class TestCtsTrain:
    def test_single_chunk_under_cap(self):
        chunks = build_cts_train(10_000, 1.0, 0, "coord", min_reservation_us=2000)
        assert len(chunks) == 1
        assert chunks[0].nav_duration_us == 10_000
        assert chunks[0].kind is CTS

    def test_cap_chunking(self):
        chunks = build_cts_train(50_000, 1.0, 0, "coord")
        assert [c.nav_duration_us for c in chunks] == [32_767, 17_233]

    def test_below_threshold_sends_nothing(self):
        assert build_cts_train(1000, 1.0, 0, "coord", min_reservation_us=2000) == []

    def test_non_positive_reservation_rejected(self):
        with pytest.raises(ValueError):
            build_cts_train(0, 1.0, 0, "coord")

    def test_coverage_is_gapless(self):
        chunks = build_cts_train(100_000, 1.0, 500, "coord")
        covered_until = chunks[0].end_us
        for c in chunks:
            # every chunk finishes flying before the running NAV coverage lapses
            assert c.end_us <= covered_until
            covered_until = max(covered_until, c.end_us + c.nav_duration_us)
        assert covered_until == chunks[0].end_us + 100_000

    @given(st.integers(min_value=1, max_value=500_000),
           st.integers(min_value=0, max_value=5000))
    def test_durations_sum_exactly_and_respect_cap(self, reservation, threshold):
        chunks = build_cts_train(reservation, 1.0, 0, "coord", min_reservation_us=threshold)
        if reservation < threshold:
            assert chunks == []
            return
        assert sum(c.nav_duration_us for c in chunks) == reservation
        assert all(c.nav_duration_us <= NAV_FIELD_CAP_US for c in chunks)
        # follow-up chunks take off exactly when the previous duration elapses
        for prev, nxt in zip(chunks, chunks[1:]):
            assert nxt.start_us == prev.start_us + prev.nav_duration_us


class TestInterfererEstimate:
    def test_empty_neighborhood(self):
        assert estimate_interferers([], 20.0, LOGD) == (0, 0.0)

    def test_counts_distinct_sources(self):
        heard = [("sta1", -29.1), ("sta2", -32.0), ("sta1", -29.5)]
        systems, _ = estimate_interferers(heard, 20.0, LOGD)
        assert systems == 2

    def test_reach_inverts_weakest_power(self):
        # oracle: rx of a 1 dBm frame at 3 m under n=3 is about -53.4 dBm
        _, reach = estimate_interferers([("sta", -53.4)], 1.0, LOGD)
        assert reach == pytest.approx(3.0, abs=0.05)
        # same overheard level attributed to a 20 dBm talker puts it further out
        _, far = estimate_interferers([("sta", -53.4)], 20.0, LOGD)
        assert far == pytest.approx(10 ** ((73.4 - 40.05) / 30.0), abs=0.05)


class TestPacing:
    def test_equal_share_goals(self):
        # two interferers: goal 1/3, dead band +-0.02 around it
        assert update_pacing(8000, 2, 1 / 3 - 0.021, **PACING) == 4000
        assert update_pacing(8000, 2, 1 / 3 - 0.019, **PACING) == 8000
        assert update_pacing(8000, 2, 1 / 3 + 0.019, **PACING) == 8000
        assert update_pacing(8000, 2, 1 / 3 + 0.021, **PACING) == 16000
        # none: goal 1, so only a share under 0.98 moves the interval
        assert update_pacing(8000, 0, 0.979, **PACING) == 4000
        assert update_pacing(8000, 0, 1.0, **PACING) == 8000

    def test_undershoot_halves_interval(self):
        assert update_pacing(8000, 2, 0.20, **PACING) == 4000

    def test_overshoot_doubles_interval(self):
        assert update_pacing(8000, 2, 0.60, **PACING) == 16000

    def test_dead_band_holds(self):
        assert update_pacing(8000, 2, 1 / 3, **PACING) == 8000

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=64),
           st.integers(min_value=0, max_value=5))
    def test_interval_stays_bounded(self, shares, systems):
        interval = 8000
        for share in shares:
            interval = update_pacing(interval, systems, share, **PACING)
            assert 1000 <= interval <= 64_000

    def test_bad_share_rejected(self):
        with pytest.raises(ValueError):
            update_pacing(8000, 0, 1.5, **PACING)


class TestReservationPower:
    def test_sized_to_reach(self):
        level = reservation_power(3.0, -82.0, LOGD)
        oracle = -82.0 + (40.05 + 30 * math.log10(3.0)) + 3.0
        assert level == pytest.approx(oracle)
        assert level == pytest.approx(-24.6, abs=0.1)

    def test_nothing_to_silence_floors(self):
        assert reservation_power(0.0, -82.0, LOGD) == CTS_POWER_FLOOR_DBM

    def test_distant_reach_clamps_to_ceiling(self):
        assert reservation_power(1000.0, -82.0, LOGD) == CTS_POWER_CEILING_DBM

    @given(st.floats(min_value=0.1, max_value=2000.0),
           st.floats(min_value=1.01, max_value=8.0))
    def test_monotone_in_reach(self, reach, factor):
        lo = reservation_power(reach, -82.0, LOGD)
        hi = reservation_power(reach * factor, -82.0, LOGD)
        assert hi >= lo

    def test_negative_reach_rejected(self):
        with pytest.raises(ValueError):
            reservation_power(-1.0, -82.0, LOGD)


class TestPerformanceGate:
    """The gate is (on, baseline throughput, next check time)."""

    def test_quiet_medium_keeps_cts_off(self):
        assert evaluate_performance(False, 0.0, 0, retx_in_window=0,
                                    throughput_bytes_per_s=1e6, now_us=0,
                                    **GATE) == (False, 0.0, 0)

    def test_retransmission_burst_enables(self):
        # on, with the current throughput as baseline, checked one window later
        assert evaluate_performance(False, 0.0, 0, retx_in_window=5,
                                    throughput_bytes_per_s=250_000.0, now_us=1_000_000,
                                    **GATE) == (True, 250_000.0, 2_000_000)

    def test_no_improvement_disables_with_hold(self):
        assert evaluate_performance(True, 1_000_000.0, 1_000_000, retx_in_window=0,
                                    throughput_bytes_per_s=900_000.0, now_us=1_000_000,
                                    **GATE) == (False, 1_000_000.0, 3_000_000)

    def test_improvement_keeps_cts_on(self):
        on = (True, 250_000.0, 1_000_000)
        # before its check, and after it with throughput above the baseline
        assert evaluate_performance(*on, retx_in_window=0, throughput_bytes_per_s=0.0,
                                    now_us=999_999, **GATE) == on
        assert evaluate_performance(*on, retx_in_window=0, throughput_bytes_per_s=600_000.0,
                                    now_us=1_500_000, **GATE) == on

    def test_hold_blocks_reenable(self):
        held = (False, 0.0, 5_000_000)
        assert evaluate_performance(*held, retx_in_window=10, throughput_bytes_per_s=0.0,
                                    now_us=4_000_000, **GATE) == held
        cts_on, _, _ = evaluate_performance(*held, retx_in_window=10,
                                            throughput_bytes_per_s=0.0, now_us=5_000_000,
                                            **GATE)
        assert cts_on


def controller(coordinated: bool = True, warmup_us: int = 0, **settings) -> Reservation:
    """A controller under the default reservation settings, changed by
    ``settings``, whose coordinator is an idle WiFi radio."""
    iface = RadioInterface("ss_wifi", Position(0.0, 0.0), 2412.0, 20.0,
                           decode_sensitivity_dbm=-85.0, cca_threshold_dbm=-82.0,
                           platform="ss")
    coord = WifiStation(iface, DcfParams(), random.Random(1)) if coordinated else None
    return Reservation(replace(ReservationConfig(enabled=True), **settings), coord, LOGD,
                       warmup_us)


class TestController:
    def test_claims_always_without_pacing(self):
        res = controller(pacing=False)
        res.claimed(5000)
        assert res.claims(5000) and res.claims(0)

    def test_paced_claims_wait_a_claim_interval(self):
        res = controller(performance_gating=False)
        assert res.claims(0)
        res.claimed(10_000)
        assert not res.claims(10_000)
        assert not res.claims(10_000 + res.claim_interval_us - 1)
        assert res.claims(10_000 + res.claim_interval_us)

    def test_no_reservation_without_coordinator(self):
        assert not controller(coordinated=False, performance_gating=False).claimed(0)

    def test_gate_off_blocks_reservation(self):
        res = controller()
        assert not res.claimed(0)
        res.cts_on = True
        assert res.claimed(0)
        assert controller(performance_gating=False).claimed(0)

    def test_no_plan_while_a_train_is_on_air(self):
        res = controller(performance_gating=False)
        res.coordinator.train_until_us = 1000
        assert res.plan(999, 50_000) is None
        assert res.plan(1000, 50_000) is not None

    def test_no_plan_without_a_span(self):
        res = controller(performance_gating=False)
        assert res.plan(0, DcfParams.cts_airtime_us) is None
        res.coordinator.busy_until_us = 20_000
        assert res.plan(0, 20_000 + DcfParams.cts_airtime_us) is None
        reservation, chunks = res.plan(0, 20_001 + DcfParams.cts_airtime_us)
        assert reservation == 1 and chunks[0].start_us == 20_000

    def test_minimum_reservation_only_with_gating(self):
        short = 1000 + DcfParams.cts_airtime_us   # a 1000 us span, under the 2000 us minimum
        gated = controller()
        assert gated.plan(0, short) == (1000, [])
        reservation, chunks = controller(performance_gating=False).plan(0, short)
        assert reservation == 1000 and len(chunks) == 1

    def test_fixed_power_without_sizing(self):
        res = controller(power_sizing=False, cts_power_dbm=7.0, performance_gating=False)
        res.interferers, res.reach_m = 2, 30.0
        _, chunks = res.plan(0, 50_000)
        assert chunks[0].power_dbm == 7.0
        res = controller(performance_gating=False)
        res.interferers, res.reach_m = 2, 30.0
        _, chunks = res.plan(0, 50_000)
        assert chunks[0].power_dbm == reservation_power(30.0, -82.0, LOGD)

    def test_reservation_scales_the_span(self):
        res = controller(performance_gating=False)
        res.scale = 1.37
        span = 10_001
        reservation, chunks = res.plan(0, span + DcfParams.cts_airtime_us)
        assert reservation == int(span * 1.37)
        assert sum(c.nav_duration_us for c in chunks) == reservation

    def test_hear_drops_frames_below_sensitivity(self):
        res = controller()
        res.hear(10, "sta1", -85.0)
        res.hear(20, "sta2", -85.1)
        assert res.heard == {("sta1", -85.0): 10}

    def test_pacing_window_matches_every_frame_heard(self):
        """Keeping the last time each (source, power) was heard gives the
        estimate over every frame heard in the monitor window, frames at its
        floor included, as does a window emptied by a quiet stretch."""
        res, rng = controller(), random.Random(5)
        floor_dbm = res.coordinator.iface.decode_sensitivity_dbm
        window = res.cfg.monitor_window_us
        frames, counts = [], set()   # every (t, source, rx power) at or above sensitivity
        for tick in range(1, 41):
            now = tick * res.cfg.pacing_tick_us
            for t in range(now - 400_000, now + 1, 100_000):
                if 8_000_000 < t < 11_000_000 or rng.random() < 0.4:
                    continue
                source = rng.choice(["sta1", "sta2", "sta3", "sta4"])
                rx = rng.choice([-60.0, -72.5, floor_dbm, -85.5])
                res.hear(t, source, rx)
                if rx >= floor_dbm:
                    frames.append((t, source, rx))
            res.pacing_tick(now, 0)
            want = estimate_interferers([(s, rx) for t, s, rx in frames if t >= now - window],
                                        res.cfg.assumed_tx_power_dbm, LOGD)
            assert (res.interferers, res.reach_m) == want
            counts.add(res.interferers)
        assert {0, 4} <= counts

    def test_eval_tick_notes_only_gate_switches(self):
        res = controller(retx_enable_threshold=3, eval_window_us=100_000)
        assert res.eval_tick(100_000, 0, 0) is None         # quiet: stays off
        assert res.eval_tick(200_000, 5, 10_000) == "on"    # a retransmission burst
        assert res.eval_tick(250_000, 5, 20_000) is None    # on, window not over
        assert res.eval_tick(300_000, 5, 20_000) == "off"   # throughput did not improve

    def test_qos_misses_grow_the_scale_to_its_cap(self):
        """Misses grow the scale only past the warm-up and while the station
        reserves: with gating off, or with the gate on."""
        missed = QosTarget(min_throughput_bytes_per_s=1e9)
        res = controller(qos=missed, qos_growth_step=0.25, qos_growth_cap=2.0,
                         performance_gating=False, warmup_us=200_000)
        scales = []
        for tick in range(1, 8):
            assert res.eval_tick(tick * 100_000, 0, 0) is None
            scales.append(res.scale)
        assert scales == pytest.approx([1.0, 1.25, 1.5625, 1.953125, 2.0, 2.0, 2.0])
        gated = controller(qos=missed)           # the gate stays off: no retransmissions
        for tick in range(1, 4):
            gated.eval_tick(tick * 100_000, 0, 0)
        assert not gated.cts_on and gated.scale == 1.0
        gated.cts_on = True                      # on until its first check
        gated.next_check_us = 10**9
        gated.eval_tick(400_000, 0, 0)
        assert gated.scale == 1.25

    def test_scale_falls_back_once_the_target_is_met(self):
        """Each met tick divides the scale by 1 + step, down to 1."""
        res = controller(qos=QosTarget(min_throughput_bytes_per_s=500_000),
                         qos_growth_step=0.25, performance_gating=False,
                         eval_window_us=100_000)
        res.delivered_points.append((0, 0))
        delivered, scales = 0, []
        for tick in range(1, 7):
            delivered += 10_000 if tick <= 3 else 100_000   # 100 kB/s, then 1 MB/s
            res.eval_tick(tick * 100_000, 0, delivered)
            scales.append(res.scale)
        assert scales == pytest.approx([1.25, 1.5625, 1.953125, 1.5625, 1.25, 1.0])

    def test_met_qos_target_keeps_the_scale(self):
        def scale_after(delivered: int, delay_us: float) -> float:
            """Scale after one tick with ``delivered`` bytes in 100 ms and one delay sample."""
            res = controller(qos=QosTarget(min_throughput_bytes_per_s=500_000,
                                           max_mean_delay_us=10_000.0),
                             performance_gating=False)
            res.delivered_points.append((0, 0))
            res.delays.append((50_000, delay_us))
            res.eval_tick(100_000, 0, delivered)
            return res.scale

        assert scale_after(60_000, 500.0) == 1.0      # 600 kB/s, 500 us: met
        assert scale_after(40_000, 500.0) > 1.0       # 400 kB/s: throughput missed
        assert scale_after(60_000, 20_000.0) > 1.0    # 20 ms: delay missed
