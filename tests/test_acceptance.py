"""Acceptance suite.

Each test exercises one release criterion end to end at its stated
tolerance and prints a PASS line on success; a pytest failure on any test
is the corresponding FAIL.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
from dataclasses import replace

import pytest

from coexsim.arbiter import DENY, GRANT, RX, S, TX, RadioArbiter
from coexsim.cli import render_run_json
from coexsim.engine import Engine, run
from coexsim.medium import DECODED, PathLossModel, SpillageTable, Position, path_loss, \
    received_power, required_isolation, resolve_deliveries
from coexsim.reservation import NAV_FIELD_CAP_US, build_cts_train
from coexsim.scenario import toggled
from oracles import brute_force_outcomes

SEEDS = list(range(1, 11))


def ok(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS - {text}")


def test_criterion_1_transition_table_conformance():
    table = {
        (S, S): (GRANT, S), (S, RX): (GRANT, RX), (S, TX): (GRANT, TX),
        (RX, S): (GRANT, S), (RX, RX): (GRANT, RX), (RX, TX): (DENY, RX),
        (TX, S): (GRANT, S), (TX, RX): (DENY, TX), (TX, TX): (GRANT, TX),
    }
    for (state, req), (want_decision, want_state) in table.items():
        a = RadioArbiter(["radio-a", "radio-b"])
        if state is not S:
            assert a.request("radio-a", state) == GRANT
        assert a.request("radio-a", req) == want_decision, \
            f"wrong decision for ({state}, {req})"
        assert a.state is want_state, f"wrong next state for ({state}, {req})"
    # persisting the current state from another interface is always accepted
    for state in (RX, TX):
        a = RadioArbiter(["radio-a", "radio-b"])
        a.request("radio-a", state)
        assert a.request("radio-b", state) == GRANT
    ok(1, "all 9 (state, request) pairs match the transition table")


def test_criterion_2_colocated_safety(colocated_cfg):
    for seed in SEEDS:
        on = run(toggled(colocated_cfg, "arbiter", True), seed=seed)
        off = run(toggled(colocated_cfg, "arbiter", False), seed=seed)
        assert on.colocated_conflict_us == 0, f"seed {seed}: conflict with arbiter on"
        assert off.colocated_conflict_us > 0, f"seed {seed}: no conflict with arbiter off"
    ok(2, "conflict time is 0 us with the arbiter on and > 0 without, 10 seeds")


def test_criterion_3_isolation_arithmetic():
    free = PathLossModel(kind="free-space", frequency_mhz=2400.0)
    loss = path_loss(7.0, free)
    assert loss == pytest.approx(57.0, abs=0.5)
    assert required_isolation(-61.0, -118.0) == pytest.approx(57.0)
    ok(3, f"7 m free-space loss {loss:.2f} dB and isolation 57 dB")


def test_criterion_4_spillage_calibration():
    free = PathLossModel(kind="free-space", frequency_mhz=2400.0)
    table = SpillageTable()
    src, dst = Position(0.0, 0.0), Position(1.0, 0.0)
    low = received_power(20.0, src, dst, 2412.0, 2380.0, free, table)
    high = received_power(20.0, src, dst, 2462.0, 2576.0, free, table)
    assert low == pytest.approx(-61.0, abs=0.5)
    assert high == pytest.approx(-75.0, abs=0.5)
    ok(4, f"calibration reproduces {low:.2f} dBm and {high:.2f} dBm")


def _window_sum(engine, link, lo, hi):
    """Bytes delivered on ``link`` (``src>dst``) in [lo, hi): its decoded
    ``outcome`` notes there, each one frame of its source's size."""
    frame_bytes = engine.cfg.node(link.split(">")[0]).traffic.frame_bytes
    decoded = sum(1 for line in engine.trace
                  if line.endswith(f"|outcome|{link}|{DECODED}")
                  and lo <= int(line.split("|", 1)[0]) < hi)
    return decoded * frame_bytes


def test_criterion_5_emulation_reproduction(emulation_cfg):
    engine = Engine(emulation_cfg, collect_trace=True)
    engine.run()
    baseline_nodes = tuple(
        replace(n, traffic=replace(n.traffic, kind="none")) if n.id == "coordinator" else n
        for n in emulation_cfg.nodes)
    base = Engine(replace(emulation_cfg, nodes=baseline_nodes), collect_trace=True)
    base.run()

    cts_starts = [int(l.split("|", 1)[0]) for l in engine.trace if "|air|cts|" in l]
    assert cts_starts, "the injector must emit a reservation train"
    nav_lo = cts_starts[0] + emulation_cfg.wifi.cts_airtime_us
    nav_hi = nav_lo + emulation_cfg.node("coordinator").traffic.reservation_us

    silenced = _window_sum(engine, "node2>ap", nav_lo, nav_hi)
    assert silenced == 0, f"link 2 delivered {silenced} bytes inside the NAV window"

    link3_on = _window_sum(engine, "node3>ap", nav_lo, nav_hi)
    link3_base = _window_sum(base, "node3>ap", nav_lo, nav_hi)
    assert link3_base > 0
    assert abs(link3_on - link3_base) <= 0.05 * link3_base, \
        f"link 3 moved from {link3_base} to {link3_on} inside the NAV window"

    rec_on = _window_sum(engine, "node2>ap", nav_hi, nav_hi + 500_000)
    rec_base = _window_sum(base, "node2>ap", nav_hi, nav_hi + 500_000)
    assert rec_base > 0
    assert abs(rec_on - rec_base) <= 0.10 * rec_base, \
        f"link 2 recovered to {rec_on} of {rec_base} within 500 ms"
    ok(5, "link 2 silenced to 0 B, link 3 unaffected, link 2 restored")


def test_criterion_6_pacing_convergence(conference_cfg):
    result = run(conference_cfg)
    share = result.system_share("wimax")
    assert abs(share - 1 / 3) <= 0.05, f"wimax share {share:.4f} outside 1/3 +/- 5pp"
    ok(6, f"wimax long-run share {share:.4f} within 1/3 +/- 5pp")


def test_criterion_7_overhead_elimination(conference_cfg):
    quiet_nodes = tuple(n for n in conference_cfg.nodes
                        if n.id in ("bs", "ss1", "ss1_wifi"))
    quiet = replace(conference_cfg, nodes=quiet_nodes)
    for seed in SEEDS[:3]:
        result = run(toggled(quiet, "reservation", True), seed=seed)
        assert result.cts_airtime_us == 0, f"seed {seed}: CTS overhead without interferers"
        assert result.cts_count == 0

    def wimax_corrupted(result):
        return sum(st.corrupted_frames for lid, st in result.links.items()
                   if "bs" in lid.split("->") or "ss1" in lid.split("->"))

    for seed in SEEDS:
        on = wimax_corrupted(run(toggled(conference_cfg, "reservation", True), seed=seed))
        off = wimax_corrupted(run(toggled(conference_cfg, "reservation", False), seed=seed))
        assert on < off, f"seed {seed}: corrupted on={on} not below off={off}"
    ok(7, "zero CTS airtime without interferers; fewer corrupted frames with "
          "the reservation on, 10 seeds")


def test_criterion_8_reservation_threshold_gate():
    rng = random.Random(2026)
    threshold = 2000
    for _ in range(500):
        reservation = rng.randint(1, 200_000)
        chunks = build_cts_train(reservation, 1.0, rng.randint(0, 10_000_000),
                                 "coord", min_reservation_us=threshold)
        if reservation < threshold:
            assert chunks == []
            continue
        assert sum(c.nav_duration_us for c in chunks) == reservation
        assert all(c.nav_duration_us <= NAV_FIELD_CAP_US for c in chunks)
    for edge in (threshold - 1, threshold, threshold + 1, NAV_FIELD_CAP_US,
                 NAV_FIELD_CAP_US + 1, 3 * NAV_FIELD_CAP_US + 7):
        chunks = build_cts_train(edge, 1.0, 0, "coord", min_reservation_us=threshold)
        if edge < threshold:
            assert chunks == []
        else:
            assert sum(c.nav_duration_us for c in chunks) == edge
    ok(8, "reservations below the threshold emit nothing; others chunk exactly")


def test_criterion_9_determinism(emulation_cfg, conference_cfg, colocated_cfg):
    for name, cfg in (("emulation", emulation_cfg),
                      ("conference_room", conference_cfg),
                      ("colocated", colocated_cfg)):
        first = run(cfg)
        second = run(cfg)
        assert first.trace_hash == second.trace_hash, f"{name}: trace hashes differ"
        assert render_run_json(first) == render_run_json(second), \
            f"{name}: reports differ"
    ok(9, "byte-identical reports and equal trace hashes on all canonical scenarios")


def test_criterion_10_oracle_equivalence():
    from oracles import random_micro_instance
    rng = random.Random(424242)
    mismatches = 0
    for i in range(1000):
        txs, interfaces, window, medium = random_micro_instance(rng)
        got = resolve_deliveries(txs, interfaces, window, medium)
        want = brute_force_outcomes(txs, interfaces, window, medium)
        pairs_got = [(o.receiver, o.result) for o in got]
        pairs_want = [(o.receiver, o.result) for o in want]
        if pairs_got != pairs_want:
            mismatches += 1
            assert pairs_got == pairs_want, f"instance {i}: {pairs_got} != {pairs_want}"
        for a, b in zip(got, want):
            assert a.rx_power_dbm == pytest.approx(b.rx_power_dbm, abs=1e-9)
    assert mismatches == 0
    ok(10, "1000 micro-instances match the per-microsecond oracle exactly")
