import enum
import gc
import hashlib
import importlib
import json
import pkgutil
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import coexsim
from coexsim import engine as engine_module
from coexsim.cli import render_run_json
from coexsim.engine import (_CELL_M, _HASH_BATCH_LINES, _REACH_MARGIN, Engine, _Grid,
                            jain_index, run)
from coexsim.medium import (BELOW_SENSITIVITY, CORRUPTED, CTS, DATA, DECODED, WIMAX_BURST,
                            Position, RadioInterface, Transmission, delivery_result)
from coexsim.reservation import NAV_FIELD_CAP_US, QosTarget, reservation_power
from coexsim.scenario import ScenarioConfig, parse_scenario
from coexsim.wimax import SsDemand, build_frame_map
from oracles import (Air, air, brute_force_outcomes, conflict_time, dcf_saturation_share,
                     dcf_violations, frame_map_violations, line_by_line_hash, nav_violations,
                     notes, outcome_mismatches, over_ceiling, own_overlaps, power_ceilings,
                     report_mismatches, schedule_violations)

SINGLE_CELL = """
duration_us: 30000000
warmup_us: 1000000
seed: 1
nodes:
  - {id: sta, kind: wifi, position: [0.0, 0.0], peer: ap, system: cell,
     traffic: {kind: saturated, frame_bytes: 1500}}
  - {id: ap, kind: wifi, position: [5.0, 0.0], system: cell, traffic: {kind: none}}
"""

# a paced station offered a frame every 10 us, far past what the air carries
OVER_CAPACITY = """
warmup_us: 0
nodes:
  - {id: sta, kind: wifi, position: [0.0, 0.0], peer: ap,
     traffic: {kind: paced, interval_us: 10}}
  - {id: ap, kind: wifi, position: [3.0, 0.0]}
"""


# one system, two saturated pairs out of each other's carrier sense range
FAR_PAIRS = """
duration_us: 3000000
warmup_us: 500000
medium: {path_loss: {kind: log-distance, exponent: 3.0}}
nodes:
  - {id: a, kind: wifi, position: [0.0, 0.0], peer: ap_a, system: one,
     traffic: {kind: saturated}}
  - {id: ap_a, kind: wifi, position: [5.0, 0.0], system: one}
  - {id: b, kind: wifi, position: [1000.0, 0.0], peer: ap_b, system: one,
     traffic: {kind: saturated}}
  - {id: ap_b, kind: wifi, position: [1005.0, 0.0], system: one}
"""

# two WiFi radios of one platform, one sending to the other
MATES = """
duration_us: 300000
warmup_us: 100000
nodes:
  - {id: a, kind: wifi, position: [0.0, 0.0], peer: b, traffic: {kind: saturated}}
  - {id: b, kind: wifi, position: [0.0, 0.0], collocated_with: a}
"""

# the addressee is out of range, so every frame fails: three times, by
# retry_limit, before it drops; the warm-up ends partway through a frame's
# failures
UNREACHABLE = """
duration_us: 200000
warmup_us: 50000
wifi: {retry_limit: 2}
nodes:
  - {id: sta, kind: wifi, position: [0.0, 0.0], peer: ap, traffic: {kind: saturated}}
  - {id: ap, kind: wifi, position: [5000.0, 0.0]}
"""

# a CTS that a station decodes inside a longer NAV it already holds: the
# short CTS ends at 5044 us, inside the NAV to 21044 us that the long one set
NAV_KEPT = """
duration_us: 30000
warmup_us: 0
nodes:
  - {id: long, kind: wifi, position: [0.0, 0.0],
     traffic: {kind: cts-inject, at_us: 1000, reservation_us: 20000}}
  - {id: short, kind: wifi, position: [6.0, 0.0],
     traffic: {kind: cts-inject, at_us: 5000, reservation_us: 100}}
  - {id: sta, kind: wifi, position: [3.0, 4.0]}
"""

TWO_CELLS = """
duration_us: 30000000
warmup_us: 1000000
seed: 1
nodes:
  - {id: a1, kind: wifi, position: [0.0, 0.0], peer: apa, system: cell-a,
     traffic: {kind: saturated, frame_bytes: 1500}}
  - {id: apa, kind: wifi, position: [0.0, 5.0], system: cell-a, traffic: {kind: none}}
  - {id: b1, kind: wifi, position: [3.0, 0.0], peer: apb, system: cell-b,
     traffic: {kind: saturated, frame_bytes: 1500}}
  - {id: apb, kind: wifi, position: [3.0, 5.0], system: cell-b, traffic: {kind: none}}
"""



def pairs_grid(pairs: int = 20, side: int = 5, spacing_m: float = 40.0) -> str:
    """Saturated WiFi pairs on a grid around a WiMAX station that reserves
    with power-sized CTS (no gating, so it claims from the start), plus a CTS
    injector at a fixed power at the grid's edge."""
    c = (side // 2 - 0.5) * spacing_m
    lines = [
        "duration_us: 600000",
        "warmup_us: 200000",
        "medium: {path_loss: {kind: log-distance, exponent: 3.0}}",
        "reservation: {enabled: true, performance_gating: false, pacing_tick_us: 100000,",
        "              assumed_tx_power_dbm: 10.0}",
        "nodes:",
        f"  - {{id: bs, kind: wimax-bs, position: [{c + 150.0}, {c}]}}",
        f"  - {{id: ss, kind: wimax-ss, position: [{c}, {c}], bs: bs,",
        "     traffic: {kind: wimax, dl_saturated: true, ul_saturated: true}}",
        f"  - {{id: ss_wifi, kind: wifi, position: [{c}, {c}], collocated_with: ss}}",
        f"  - {{id: jam, kind: wifi, position: [{c}, -20.0], traffic: {{kind: cts-inject,",
        "     at_us: 250000, reservation_us: 3000, power_dbm: 12.0, repeat_us: 50000}}",
    ]
    for i in range(pairs):
        x, y = (i % side) * spacing_m, (i // side) * spacing_m
        lines.append(f"  - {{id: sta{i}, kind: wifi, position: [{x}, {y}], peer: ap{i},"
                     " traffic: {kind: saturated}}")
        lines.append(f"  - {{id: ap{i}, kind: wifi, position: [{x + 5.0}, {y}]}}")
    return "\n".join(lines) + "\n"


# Seed-1 trace hashes.  A change that moves one on purpose updates it here
# and says why in CHANGES.md.  All moved when the hash came to cover the
# behaviour notes alone and same-time access attempts began to pop in
# config order.
PINNED_HASHES = {
    "emulation_cfg": "f9762ce8aa010aeb20c782f3bacef8412cb3e87542127ac77d91840471961144",
    "conference_cfg": "19b034c787647812d6290f40424ef0dd08897a89b2fea0269936be3ee581610c",
    "colocated_cfg": "d02dee9de1c2ac85b4cc92ed3cd886738968a62e84132867a63e6c1b79c3fc13",
}
GRID_HASH = "d4502c62f077abfb7611790ff37a77252ff1fef5b47263eb3d2a56a2846cb856"

# SHA-256 of the whole collected trace of 2 s seed-1 cuts, each line ending
# in a newline: the per-event lines too, which the trace hash leaves out.
TRACE_TEXT_HASHES = {
    "emulation_cfg": "fa431cb0d0dfdcc794d133f524a92d74883b92beb5f1641da5cc3c2f9565984e",
    "conference_cfg": "9c983e0aaa9ef49427a82adac05a5429b487ea048a28d1694d29d1eaf7467934",
    "colocated_cfg": "b85300457634574090163b71386227e3f336c6759418bbf6b7c8d669c4f13ffd",
}

# Seed-1 hashes of 6 s runs that reach the reservation controller's less
# common paths: fixture, reservation settings changed, hash.
RESERVATION_VARIANTS = {
    # QoS misses past the 1 s warm-up grow the reservation scale to its cap
    # of 2.0; it moved when misses in the warm-up stopped growing it
    "conference-qos": (
        "conference_cfg", {"qos": QosTarget(2_000_000, 500)},
        "5cad73dbbc706d851b88e954c76c14981518c4b9b1a6c798195363812a3cae72"),
    "conference-fixed-power": (
        "conference_cfg", {"power_sizing": False},
        "f336f150c1c2c70d9e183dadd304e744a6b5d48a93ac20b97c8e7e86079f05d7"),
    "conference-ungated": (
        "conference_cfg", {"performance_gating": False},
        "0ff025d6de7c345b8effe0e576446d9b6c23feae3c22aebbac998efa983b23ae"),
    "conference-unpaced": (
        "conference_cfg", {"pacing": False},
        "3ea1431f1ac02a9578dcfd393a1deca2897f5cfb7846f4420f85cd7f4ad2dea0"),
    # reservation behind an arbiter: 351 deny|reserve notes, seven reserve-skips
    "colocated-reserving": (
        "colocated_cfg", {"enabled": True},
        "a5c421331fa8f5187d76c11c4653ed296639282ea82e527ab02e6af584f8863b"),
    "colocated-reserving-ungated": (
        "colocated_cfg", {"enabled": True, "performance_gating": False},
        "e72e50bfdfae8432bcfc63114409df622822f2b5f0f03aed2cdc15d9087c1189"),
}

# Seed-1 hashes of 6 s colocated runs down the arbiter's other two paths:
# arbiter settings changed, hash.
ARBITER_VARIANTS = {
    # WiFi requests also checked against the subscriber station's slots
    "schedule-aware": (
        {"schedule_aware": True},
        "1eff5996c88eda19c9211cf91f1f1b2df7ef658ec9c59b916e0811b7b52b2190"),
    # no arbiter: every radio may always go ahead, and no arb notes
    "no-arbiter": (
        {"enabled": False},
        "da3e6b824bff452b9cdec511715d77cafbf42fcb3c704fe52889c069dba3302f"),
}

# Two subscriber stations in one cell: ss1 saturated, with a co-located WiFi
# coordinator that reserves; ss2 paced, with no coordinator.  Pacing holds
# back each station's claim on its own, so frames map one station, the
# other or both.  Seed-1 trace hash and SHA-256 of the JSON report.
TWO_SS_CELL = """
duration_us: 6000000
warmup_us: 1000000
medium: {path_loss: {kind: log-distance, exponent: 3.0}}
reservation: {enabled: true}
nodes:
  - {id: bs, kind: wimax-bs, position: [150.0, 0.0], system: wimax}
  - {id: ss1, kind: wimax-ss, position: [0.0, 0.0], bs: bs, system: wimax,
     traffic: {kind: wimax, dl_saturated: true, ul_saturated: true}}
  - {id: ss1_wifi, kind: wifi, position: [0.0, 0.0], collocated_with: ss1, system: wimax}
  - {id: ss2, kind: wimax-ss, position: [20.0, 10.0], bs: bs, system: wimax,
     traffic: {kind: wimax, dl_bytes_per_s: 150000, ul_bytes_per_s: 60000}}
  - {id: sta1, kind: wifi, position: [2.0, 0.0], peer: ap1, system: wifi-a,
     traffic: {kind: saturated, frame_bytes: 1500}}
  - {id: ap1, kind: wifi, position: [2.0, 5.0], system: wifi-a}
  - {id: sta2, kind: wifi, position: [0.0, 2.5], peer: ap2, system: wifi-b,
     traffic: {kind: saturated, frame_bytes: 1500}}
  - {id: ap2, kind: wifi, position: [-3.0, 2.5], system: wifi-b}
"""
TWO_SS_HASH = "14d4c09dcfd5ebb99b62392732c1195d8f63b1dcfea401c8b7d01f407223b229"
TWO_SS_REPORT = "be56051dd9346074f952c54b39de693349dcffea1451e80147b165018c3dfcbc"

# A coordinator that sends data to its peer and CTS trains whose
# reservation passes the 32767 us duration cap, so each train has several
# chunks.
LONG_TRAINS = """
duration_us: 2000000
warmup_us: 100000
wimax: {frame_us: 100000}
reservation: {enabled: true, pacing: false, performance_gating: false}
nodes:
  - {id: bs, kind: wimax-bs, position: [50.0, 0.0]}
  - {id: ss, kind: wimax-ss, position: [0.0, 0.0], bs: bs,
     traffic: {kind: wimax, dl_saturated: true}}
  - {id: ss_wifi, kind: wifi, position: [0.0, 0.0], collocated_with: ss, peer: ap,
     traffic: {kind: saturated}}
  - {id: ap, kind: wifi, position: [3.0, 0.0]}
"""


def traced_run(cfg: ScenarioConfig, seed: int = 1):
    engine = Engine(cfg, seed=seed, collect_trace=True)
    return engine, engine.run()


@pytest.fixture(scope="module")
def shipped_run(request):
    """(engine, result) of a seed-1 traced run of a shipped scenario, by its
    fixture name; each scenario runs once per module."""
    runs = {}

    def get(fixture: str):
        if fixture not in runs:
            runs[fixture] = traced_run(request.getfixturevalue(fixture))
        return runs[fixture]

    return get


class TestPinnedHashes:
    """The engine hashes its behaviour notes in batches; each pinned run also
    checks that this equals hashing the collected trace's behaviour lines one
    by one."""

    @pytest.mark.parametrize("fixture", sorted(PINNED_HASHES))
    def test_shipped_scenario(self, fixture, shipped_run):
        engine, result = shipped_run(fixture)
        assert result.trace_hash == PINNED_HASHES[fixture]
        assert line_by_line_hash(engine.trace) == result.trace_hash

    def test_pairs_grid(self):
        cfg = parse_scenario(pairs_grid())
        engine, result = traced_run(cfg)
        assert result.cts_count == 57  # injected and power-sized trains both ran
        assert result.trace_hash == GRID_HASH
        notes = [line for line in engine.trace if not line.split("|")[1].isdigit()]
        assert len(notes) > 9 * _HASH_BATCH_LINES
        assert line_by_line_hash(engine.trace) == result.trace_hash
        assert run(cfg, seed=1).trace_hash == GRID_HASH  # untraced: the same hash

    def test_two_station_cell(self):
        engine, result = traced_run(parse_scenario(TWO_SS_CELL))
        assert result.cts_count == 409  # ss1's coordinator reserved
        assert result.trace_hash == TWO_SS_HASH
        assert hashlib.sha256(render_run_json(result).encode()).hexdigest() == TWO_SS_REPORT
        assert line_by_line_hash(engine.trace) == result.trace_hash

    @pytest.mark.parametrize("duration_us", [1_000, 120_000, 1_000_000])
    def test_batches_of_any_length_hash_like_lines(self, emulation_cfg, duration_us):
        """Notes from under one batch to many: the batch hash matches."""
        engine, result = traced_run(replace(emulation_cfg, duration_us=duration_us,
                                            warmup_us=0))
        assert line_by_line_hash(engine.trace) == result.trace_hash

    @pytest.mark.parametrize("variant", sorted(RESERVATION_VARIANTS))
    def test_reservation_variant(self, variant, request):
        fixture, changes, want = RESERVATION_VARIANTS[variant]
        cfg = request.getfixturevalue(fixture)
        cfg = replace(cfg, duration_us=6_000_000,
                      reservation=replace(cfg.reservation, **changes))
        assert run(cfg, seed=1).trace_hash == want

    @pytest.mark.parametrize("variant", sorted(ARBITER_VARIANTS))
    def test_arbiter_variant(self, variant, colocated_cfg):
        changes, want = ARBITER_VARIANTS[variant]
        cfg = replace(colocated_cfg, duration_us=6_000_000,
                      arbiter=replace(colocated_cfg.arbiter, **changes))
        assert run(cfg, seed=1).trace_hash == want


class TestPinnedConflict:
    """Seed-1 co-located conflict time, which the trace hash does not cover."""

    def test_conference_room(self, conference_cfg):
        assert run(conference_cfg, seed=1).colocated_conflict_us == 30_844

    def test_colocated_without_arbiter(self, colocated_cfg):
        """Moved from 1,907,150 when same-time access attempts began to pop
        in config order."""
        cfg = replace(colocated_cfg, duration_us=6_000_000,
                      arbiter=replace(colocated_cfg.arbiter, enabled=False))
        assert run(cfg, seed=1).colocated_conflict_us == 1_922_160

    def test_frame_to_a_platform_mate(self):
        """A frame from one radio to its platform mate conflicts with itself:
        the talker sends while the mate listens to it, over the frame's whole
        airtime in the window."""
        engine, result = traced_run(parse_scenario(MATES))
        assert result.colocated_conflict_us == 181_140
        assert result.links["a->b"].airtime_us == 181_140
        assert conflict_time(engine.cfg, engine.trace) == 181_140


class _ReversedWake(dict):
    """A set of voided stations that wakes them in reverse order."""

    def __iter__(self):
        return reversed(list(super().__iter__()))


def event_lines(trace: list[str]) -> list[list[str]]:
    """The fields of a trace's per-event lines (second field a phase digit)."""
    return [f for f in (line.split("|") for line in trace) if f[1].isdigit()]


class TestCanonicalOrder:
    def test_arming_order_leaves_the_run_alone(self):
        """Same-time access attempts pop in (config order, token) order, so
        waking voided stations in another order gives the same trace, pops
        included, and the same report."""
        cfg = parse_scenario(pairs_grid())
        plain = Engine(cfg, seed=1, collect_trace=True)
        reversed_ = Engine(cfg, seed=1, collect_trace=True)
        reversed_._resched = _ReversedWake()
        want, got = plain.run(), reversed_.run()
        popped = []  # (time, station config order, attempt token)
        for time_us, _, kind, data in event_lines(plain.trace):
            if kind == "access":
                station, token = data.split()
                popped.append((int(time_us), plain.stations[station].order, int(token)))
        ties = sum(a[0] == b[0] for a, b in zip(popped, popped[1:]))
        assert ties > 100
        assert popped == sorted(popped)
        assert reversed_.trace == plain.trace
        assert got.trace_hash == want.trace_hash
        assert json.dumps(got.to_dict(), sort_keys=True) == \
            json.dumps(want.to_dict(), sort_keys=True)


class TestEventLines:
    @pytest.mark.parametrize("fixture", sorted(PINNED_HASHES))
    def test_every_event_line_names_its_subject(self, fixture, shipped_run):
        """Each per-event line but the warm-up's has four fields and a
        non-empty data field (earlier versions left it empty on access,
        frame end, CTS, burst and reserve events)."""
        engine, _ = shipped_run(fixture)
        lines = event_lines(engine.trace)
        assert [f for f in lines if len(f) != 4 or (f[3] == "") != (f[2] == "warmup")] == []

    def test_whole_trace_text(self, request):
        """The per-event lines are pinned with the notes; together the cuts
        pop every kind of event whose line names its subject."""
        got, kinds = {}, set()
        for fixture in TRACE_TEXT_HASHES:
            cfg = replace(request.getfixturevalue(fixture), duration_us=2_000_000)
            engine, _ = traced_run(cfg)
            got[fixture] = hashlib.sha256(("\n".join(engine.trace) + "\n").encode()).hexdigest()
            kinds.update(f[2] for f in event_lines(engine.trace))
        assert got == TRACE_TEXT_HASHES
        assert kinds >= set(engine_module._SUBJECTS)


class TestDcfLegality:
    @pytest.mark.parametrize("fixture", sorted(PINNED_HASHES))
    def test_shipped_scenario_keeps_the_dcf_rules(self, fixture, shipped_run, request):
        engine, _ = shipped_run(fixture)
        assert any("|air|data|" in line for line in engine.trace)
        assert dcf_violations(request.getfixturevalue(fixture), engine.trace) == 0


class TestOutcomeReplay:
    @pytest.mark.parametrize("fixture", sorted(PINNED_HASHES))
    def test_shipped_scenario_outcomes_match_the_oracle(self, fixture, request):
        """Every outcome of a 2 s run is the per-microsecond oracle's, or
        ``missed`` where the arbiter denied the addressee receive."""
        cfg = replace(request.getfixturevalue(fixture), duration_us=2_000_000)
        engine, _ = traced_run(cfg)
        results = {line.split("|")[3] for line in engine.trace if "|outcome|" in line}
        assert {"decoded", "corrupted"} <= results
        assert ("missed" in results) == (fixture == "colocated_cfg")
        assert outcome_mismatches(cfg, engine.trace) == 0

    def test_a_dropped_or_doubled_frame_is_a_mismatch(self, conference_cfg):
        """A trace without the ``air`` note of a decoded frame, or with it
        twice, reads at least one mismatch: the frame's outcome has no
        emission left to match, or its copy corrupts it."""
        cfg = replace(conference_cfg, duration_us=2_000_000)
        engine, _ = traced_run(cfg)
        trace = engine.trace
        decoded = {(fields[2], int(fields[0])) for fields in notes(trace)
                   if fields[1] == "outcome" and fields[3] == DECODED}
        i = next(i for i, line in enumerate(trace)
                 if (fields := line.split("|"))[1] == "air"
                 and (fields[3], int(fields[0]) + int(fields[4])) in decoded)
        dropped = trace[:i] + trace[i + 1:]
        doubled = trace[:i + 1] + trace[i:]
        assert outcome_mismatches(cfg, dropped) >= 1
        assert outcome_mismatches(cfg, doubled) >= 1


# The reach memo's distance bound at its edges: free-space loss, per-node
# thresholds, two channels, radios under 1 m apart on different platforms
# (a, b, c), a far station that only a low threshold lets in, and platform
# mates placed metres and kilometres apart, which couple at any distance.
BOUND_EDGES = """
duration_us: 100000
warmup_us: 0
medium: {path_loss: {kind: free-space}}
nodes:
  - {id: a, kind: wifi, position: [0.0, 0.0], cca_threshold_dbm: -62.0,
     decode_sensitivity_dbm: -70.0}
  - {id: b, kind: wifi, position: [0.4, 0.0], channel_mhz: 2437.0,
     cca_threshold_dbm: -90.0, decode_sensitivity_dbm: -95.0}
  - {id: c, kind: wifi, position: [0.0, 0.7], decode_sensitivity_dbm: -88.0}
  - {id: d, kind: wifi, position: [3.0, 4.7], collocated_with: c,
     decode_sensitivity_dbm: -88.0}
  - {id: far, kind: wifi, position: [1000.0, 0.0], cca_threshold_dbm: -95.0,
     decode_sensitivity_dbm: -100.0}
  - {id: bs, kind: wimax-bs, position: [300.0, 0.0]}
  - {id: ss, kind: wimax-ss, position: [60.0, 0.0], bs: bs}
  - {id: ss_wifi, kind: wifi, position: [5000.0, 0.0], collocated_with: ss}
"""
# its loss budget down to the lowest thresholds is below the 1 m loss (40.05 dB)
FAINT_DBM = -60.0

# The neighbour grid at its edges.  Its cells are 32 m squares floored from
# the coordinates.  The 0 dBm radios sense at -50 dBm, which with
# log-distance exponent 3 they reach within 10^(9.95/30) = 2.146 m.  w and e
# sit either side of the x = 0 edge, 2 m apart; edge sits on the x = -32 m
# edge, in the cell of below_edge at -31.9 m, and past_edge in the cell west
# of it.  in_x and out_y sit 0.005 m inside and outside that radius around c,
# each in the cell across an edge from it.  Platform mate m2 is 250 m from
# m0 and m1.
GRID_EDGES = """
duration_us: 100000
warmup_us: 0
medium: {path_loss: {kind: log-distance, exponent: 3.0}}
nodes:
""" + "".join(
    f"  - {{id: {node}, kind: wifi, position: [{x}, {y}], tx_power_dbm: 0.0,"
    f" cca_threshold_dbm: -50.0, decode_sensitivity_dbm: -56.0{mate}}}\n"
    for node, x, y, mate in [
        ("w", -1.0, 0.5, ""), ("e", 1.0, 0.5, ""),
        ("edge", -32.0, 16.0, ""), ("below_edge", -31.9, 17.5, ""),
        ("past_edge", -33.5, 16.0, ""),
        ("c", 30.6, 33.0, ""), ("in_x", 32.741, 33.0, ""), ("out_y", 30.6, 30.849, ""),
        ("m0", 70.0, 70.0, ""), ("m1", 70.0, 71.0, ", collocated_with: m0"),
        ("m2", -150.0, -90.0, ", collocated_with: m0")])


class TestReportReplay:
    @pytest.mark.parametrize("fixture", sorted(PINNED_HASHES))
    def test_shipped_report_replays_from_its_trace(self, fixture, request):
        """The airtimes, corrupted frames and CTS counters of a 2 s run's
        report are those its ``air`` and ``outcome`` notes give."""
        cfg = replace(request.getfixturevalue(fixture), duration_us=2_000_000)
        engine, result = traced_run(cfg)
        assert report_mismatches(cfg, engine.trace, result.to_dict()) == []

    def test_system_airtime_replays_as_a_union(self):
        """Two pairs of one system send at once, so its airtime, the union
        of their frames, is less than the sum of its links' airtimes; a
        report that gives the sum, or any other value off, is named."""
        cfg = replace(parse_scenario(FAR_PAIRS), duration_us=1_000_000)
        engine, result = traced_run(cfg)
        report = result.to_dict()
        assert report_mismatches(cfg, engine.trace, report) == []
        summed = sum(row["airtime_us"] for row in report["links"].values())
        assert report["systems"]["one"]["airtime_us"] < summed
        report["systems"]["one"]["airtime_us"] = summed
        report["links"]["a->ap_a"]["corrupted_frames"] += 1
        report["cts_airtime_us"] += 44
        assert report_mismatches(cfg, engine.trace, report) == [
            "cts_airtime_us", "links.a->ap_a.corrupted_frames", "systems.one.airtime_us"]

    def test_failed_frames_replay_as_retries_and_drops(self):
        """A frame's failures count across the warm-up, so a replay that
        restarted them there would be off; a retry counted as a drop is
        named."""
        cfg = parse_scenario(UNREACHABLE)
        w0 = cfg.warmup_us
        engine, result = traced_run(cfg)
        report = result.to_dict()
        assert report_mismatches(cfg, engine.trace, report) == []
        before = [f for f in notes(engine.trace) if f[1] == "outcome" and int(f[0]) < w0]
        assert len(before) % (cfg.wifi.retry_limit + 1)  # the warm-up ends inside a frame's run
        row = report["links"]["sta->ap"]
        assert row["retransmissions"] > 0 and row["dropped_frames"] > 0
        row["retransmissions"] -= 1
        row["dropped_frames"] += 1
        assert report_mismatches(cfg, engine.trace, report) == [
            "links.sta->ap.dropped_frames", "links.sta->ap.retransmissions"]

    def test_delivery_and_fairness_off_by_a_little_are_named(self, conference_cfg):
        """WiFi and WiMAX delivered bytes, WiMAX retransmissions and the
        fairness index each replay from the trace.  WiMAX bytes are bounded
        by what the decoded bursts' airtime carries, so only an excess shows."""
        cfg = replace(conference_cfg, duration_us=2_000_000)
        engine, result = traced_run(cfg)
        report = result.to_dict()
        assert report_mismatches(cfg, engine.trace, report) == []
        links = report["links"]
        links["sta1->ap1"]["delivered_bytes"] -= 1
        links["ss1->bs"]["retransmissions"] += 1
        links["bs->ss1"]["delivered_bytes"] += int(2 * cfg.wimax.frame_us
                                                   * cfg.wimax.capacity_bytes_per_us)
        report["fairness_index"] *= 1 + 1e-12
        assert report_mismatches(cfg, engine.trace, report) == [
            "fairness_index", "links.bs->ss1.delivered_bytes", "links.ss1->bs.retransmissions",
            "links.sta1->ap1.delivered_bytes"]


@st.composite
def grid_pools(draw):
    """Interfaces at points up to four grid cells either side of 0 on each
    axis, several of them on one point, some sharing one of two platforms."""
    coord = st.floats(-4 * _CELL_M, 4 * _CELL_M)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=10))
    picks = draw(st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=14))
    return [RadioInterface(id=f"n{k}", position=Position(*points[i]), channel_mhz=2412.0,
                           tx_power_dbm=20.0, decode_sensitivity_dbm=-82.0,
                           cca_threshold_dbm=-82.0,
                           platform=draw(st.sampled_from([None, None, "p", "q"])))
            for k, i in enumerate(picks)]


class TestNeighbourGrid:
    # radii from 0 to past the 362 m extent of any drawn pool, so the same
    # pools are searched both through a window of cells and through every
    # occupied cell
    @given(grid_pools(), st.lists(st.floats(0.0, 1000.0), min_size=2, max_size=4))
    def test_near_equals_a_scan_of_the_pool(self, pool, radii):
        """``near`` finds, in pool order, every other interface that shares
        the center's platform or lies within the radius.  The scan tests
        distance in the grid's own arithmetic, so only the cells searched
        are under test."""
        grid = _Grid(pool)
        for center in pool:
            x, y = center.position.x, center.position.y
            for radius_m in radii:
                radius2 = (radius_m * (1.0 + _REACH_MARGIN)) ** 2
                scan = [iface for iface in pool if iface is not center and (
                    (iface.platform is not None and iface.platform == center.platform)
                    or (iface.position.x - x) ** 2 + (iface.position.y - y) ** 2 <= radius2)]
                assert grid.near(center, radius_m) == scan


class TestCachedFastPaths:
    """The engine's memoised carrier sense, cached link losses and emitter
    records agree with computing them afresh."""

    @pytest.fixture(params=["grid", "colocated", "bound-edges", "grid-edges"])
    def engine(self, request, colocated_cfg):
        texts = {"grid": pairs_grid(), "bound-edges": BOUND_EDGES, "grid-edges": GRID_EDGES}
        cfg = (colocated_cfg if request.param == "colocated"
               else parse_scenario(texts[request.param]))
        return Engine(cfg, seed=1)

    def test_cached_delivery_equals_uncached(self, engine):
        """Deliveries through the engine's loss rows match the per-microsecond
        oracle, which recomputes every received power."""
        ifaces, medium = engine.interfaces, engine.medium
        ids = sorted(ifaces)
        rng = random.Random(7)
        window = (0, 100)
        seen = set()
        for _ in range(300):
            active = []
            for _ in range(rng.randint(1, 8)):
                src = rng.choice(ids)
                iface = ifaces[src]
                active.append(Transmission(
                    source=src, kind=rng.choice((DATA, CTS, WIMAX_BURST)),
                    start_us=rng.randint(0, 60), airtime_us=rng.randint(1, 40),
                    power_dbm=rng.choice((iface.tx_power_dbm, rng.uniform(-30.0, 20.0))),
                    dest=rng.choice([i for i in ids if i != src])))
            want = brute_force_outcomes(active, ifaces, window, medium)
            ordered = sorted(active, key=lambda t: (t.start_us, t.source, t.dest))
            got = [delivery_result(tx, active, ifaces[tx.dest], window, medium,
                                   engine._loss_rows[tx.dest]) for tx in ordered]
            assert [(o.receiver, o.result) for o in got] == \
                [(o.receiver, o.result) for o in want]
            for g, w in zip(got, want):
                assert g.rx_power_dbm == pytest.approx(w.rx_power_dbm, abs=1e-9)
            seen.update(o.result for o in got)
        assert seen == {DECODED, CORRUPTED, BELOW_SENSITIVITY}

    def test_memoised_sensing_equals_a_scan(self, engine):
        ifaces, medium = engine.interfaces, engine.medium
        sized = {reservation_power(d, -82.0, medium.path_loss)
                 for d in (0.0, 3.0, 20.0, 60.0, 150.0)}
        powers = sorted({i.tx_power_dbm for i in ifaces.values()} | sized | {12.0, FAINT_DBM})
        coupled = 0
        for src in ifaces:
            for power in powers:
                scan = [sid for sid in engine.stations if sid != src and
                        power - medium.link_loss_db(ifaces[src], ifaces[sid])
                        >= ifaces[sid].cca_threshold_dbm]
                record = engine._emitters[src, power, None]
                own = [src] if src in engine.stations else []
                assert [rt.node.id for rt in record.busy] == own + scan
                assert engine._emitters[src, power, None] is record
                coupled += sum(ifaces[src].platform is not None
                               and ifaces[sid].platform == ifaces[src].platform
                               for sid in scan)
        assert coupled > 0  # co-located coupling decided some of them

    def test_memoised_hearers_equal_the_decode_rule(self, engine):
        """The stations a CTS end asks to decode are every station where
        the decode rule, with fresh losses, finds it above sensitivity."""
        ifaces, medium = engine.interfaces, engine.medium
        powers = sorted({i.tx_power_dbm for i in ifaces.values()} | {-20.0, 0.0, 12.0, FAINT_DBM})
        kept = dropped = 0
        for src in ifaces:
            for power in powers:
                cts = Transmission(src, CTS, 0, 44, power, nav_duration_us=1000)
                scan = []
                for sid in engine.stations:
                    if sid == src:
                        continue
                    rx = ifaces[sid]
                    heard = delivery_result(cts, [cts], rx, (0, 44), medium,
                                            {src: medium.link_loss_db(ifaces[src], rx)})
                    if heard.result == BELOW_SENSITIVITY:
                        dropped += 1
                    else:
                        scan.append(sid)
                record = engine._emitters[src, power, None]
                assert [rt.node.id for rt in record.hearers] == scan
                assert engine._emitters[src, power, None] is record
                kept += len(scan)
        assert kept > 0 and dropped > 0

    @pytest.mark.parametrize("scene, shared", [
        ("conference_cfg", {"ss1_wifi"}), ("colocated_cfg", set()),
        ("two-stations", {"bs", "ss1_wifi"}), ("long-trains", {"ss_wifi"})])
    def test_emitter_records_equal_fresh_lookups(self, scene, shared, request):
        """Each (source, power, addressee) record that a run fills holds
        what the config gives afresh for that key, and every emission's air
        note names a record.  The ``shared`` sources fill several records:
        a base station that addresses two stations at one power, and radios
        that send CTS at two powers or data and CTS."""
        texts = {"two-stations": TWO_SS_CELL, "long-trains": LONG_TRAINS}
        cfg = parse_scenario(texts[scene]) if scene in texts else request.getfixturevalue(scene)
        engine, _ = traced_run(replace(cfg, duration_us=2_000_000))
        ifaces, medium, records = engine.interfaces, engine.medium, dict(engine._emitters)
        coordinators = [ss.reservation for ss in engine.sses.values()
                        if ss.reservation is not None and ss.reservation.coordinator]
        for (src, power, dest), record in records.items():
            plat, own = ifaces[src].platform, engine.stations.get(src)
            sensers, hearers = (tuple(rt for sid, rt in engine.stations.items() if sid != src and
                                      power - medium.link_loss_db(ifaces[src], ifaces[sid])
                                      >= getattr(ifaces[sid], level))
                                for level in ("cca_threshold_dbm", "decode_sensitivity_dbm"))
            hearers = hearers if dest is None else ()
            monitors = tuple((res, power - medium.link_loss_db(ifaces[src], res.coordinator.iface))
                             for res in coordinators if res.coordinator.iface.platform != plat)
            assert [getattr(record, name) for name in record.__slots__] == [
                engine._corrupting(src, power, dest, hearers), ((own,) if own else ()) + sensers,
                hearers, plat, None if dest is None else ifaces[dest].platform,
                engine.system_of[src], monitors, f"|{src}>{dest}|", f"|{power}"], (src, power, dest)
        emitted = {(a.source, a.power, a.dest)
                   for a in (air(fields) for fields in notes(engine.trace) if fields[1] == "air")}
        assert emitted == set(records)
        # a link keeps the very record of its key from its first emission on
        kept = [link for link in engine._links() if link.emitter is not None]
        assert kept
        for link in kept:
            assert link.emitter is records[link.src, ifaces[link.src].tx_power_dbm, link.dst]
        sources = [src for src, _, _ in records]
        assert {src for src in sources if sources.count(src) > 1} == shared


# The corrupter sets at their bounds.  sta's 20 dBm frame reaches ap, 5 m
# away, at -41.02 dBm, so with log-distance exponent 3 a 20 dBm source
# corrupts it from within 5 * 10^(1/3) = 10.772 m of ap and a 30 dBm one
# from within 5 * 10^(2/3) = 23.208 m.  near and far sit 0.05 m inside and
# outside the first bound; jam, a 10 dBm radio that injects at 30 dBm, and
# jam_far sit 0.05 m inside and outside the second, which is also the
# distance cull's radius.  jam is in the set through its injector power only.
CORRUPT_EDGES = """
duration_us: 100000
warmup_us: 0
medium: {path_loss: {kind: log-distance, exponent: 3.0}}
nodes:
  - {id: sta, kind: wifi, position: [0.0, 0.0], peer: ap}
  - {id: ap, kind: wifi, position: [5.0, 0.0]}
  - {id: near, kind: wifi, position: [5.0, 10.722]}
  - {id: far, kind: wifi, position: [5.0, -10.822]}
  - {id: jam, kind: wifi, position: [28.158, 0.0], tx_power_dbm: 10.0,
     traffic: {kind: cts-inject, power_dbm: 30.0}}
  - {id: jam_far, kind: wifi, position: [-18.258, 0.0], tx_power_dbm: 10.0,
     traffic: {kind: cts-inject, power_dbm: 30.0}}
"""


def scanned_corrupters(engine, ceilings: dict, tx: Transmission) -> set:
    """The sources able to corrupt ``tx`` at a receiver (its addressee, or
    every station that decodes a CTS), from fresh losses and every
    interface's power ceiling."""
    ifaces, medium = engine.interfaces, engine.medium
    receivers = ([ifaces[tx.dest]] if tx.dest is not None else
                 [ifaces[sid] for sid in engine.stations if sid != tx.source])
    found = set()
    for rx in receivers:
        signal = tx.power_dbm - medium.link_loss_db(ifaces[tx.source], rx)
        if signal < rx.decode_sensitivity_dbm:
            continue
        found.add(rx.id)
        found.update(sid for sid, iface in ifaces.items() if sid != rx.id and
                     ceilings[sid] - medium.link_loss_db(iface, rx)
                     >= signal - medium.sinr_threshold_db)
    return found


class TestCorrupterSets:
    """A frame collects only the overlapping emissions of the sources able
    to corrupt it; the engine's memoised sets agree with a scan of every
    interface at its power ceiling, and decoding over the filtered list
    agrees with decoding over every overlapper."""

    @pytest.fixture(params=["grid", "colocated", "bound-edges", "corrupt-edges", "grid-edges"])
    def engine(self, request, colocated_cfg):
        texts = {"grid": pairs_grid(), "bound-edges": BOUND_EDGES,
                 "corrupt-edges": CORRUPT_EDGES, "grid-edges": GRID_EDGES}
        cfg = (colocated_cfg if request.param == "colocated"
               else parse_scenario(texts[request.param]))
        return Engine(cfg, seed=1)

    def test_edges_of_the_bound(self):
        engine = Engine(parse_scenario(CORRUPT_EDGES), seed=1)
        # a 20 dBm frame from sta to ap
        assert engine._emitters["sta", 20.0, "ap"].corrupters == {"ap", "sta", "near", "jam"}

    def test_memoised_sets_equal_a_scan(self, engine):
        ifaces = engine.interfaces
        ceilings = power_ceilings(engine.cfg)
        rng = random.Random(3)
        ids = sorted(ifaces)
        found = 0
        for src in ids:
            powers = {ifaces[src].tx_power_dbm, ceilings[src], ceilings[src] - 7.5}
            for power in sorted(powers):
                for dest in rng.sample(ids, min(6, len(ids))) + [None]:
                    if dest == src:
                        continue
                    tx = Transmission(src, CTS if dest is None else DATA,
                                      0, 44, power, dest=dest)
                    memo = engine._emitters[src, power, dest].corrupters
                    assert memo == scanned_corrupters(engine, ceilings, tx), (src, power, dest)
                    assert engine._emitters[src, power, dest].corrupters is memo
                    found += len(memo)
        assert found > 0

    def test_filtered_delivery_equals_unfiltered(self, engine):
        ifaces, medium = engine.interfaces, engine.medium
        ceilings = power_ceilings(engine.cfg)
        ids = sorted(ifaces)
        rng = random.Random(11)
        window = (0, 100)
        seen, dropped = set(), 0
        for _ in range(300):
            active = []
            for _ in range(rng.randint(1, 8)):
                src = rng.choice(ids)
                dest = rng.choice([i for i in ids if i != src] + [None])
                active.append(Transmission(
                    source=src, kind=CTS if dest is None else DATA,
                    start_us=rng.randint(0, 60), airtime_us=rng.randint(1, 40),
                    power_dbm=rng.choice((ifaces[src].tx_power_dbm, ceilings[src],
                                          rng.uniform(-30.0, ceilings[src]))), dest=dest))
            for tx in active:
                record = engine._emitters[tx.source, tx.power_dbm, tx.dest]
                kept = [u for u in active if u.source in record.corrupters]
                dropped += len(active) - len(kept)
                receivers = ([tx.dest] if tx.dest is not None else
                             [rt.node.id for rt in record.hearers])
                for rid in receivers:
                    args = (ifaces[rid], window, medium, engine._loss_rows[rid])
                    want = delivery_result(tx, active, *args)
                    assert delivery_result(tx, kept, *args) == want
                    seen.add(want.result)
        assert CORRUPTED in seen and DECODED in seen and dropped > 0


# Frames that nothing overlaps, at the decode-sensitivity bound.  With
# log-distance exponent 3, bs's 30 dBm bursts reach a -90 dBm station within
# 10^(79.95/30) = 462.381 m, and jam's 20 dBm CTS a -85 dBm one within
# 10^(64.95/30) = 146.218 m.  ss_in and inner sit 0.05 m inside those radii,
# ss_out and outer 0.05 m outside.  Bursts fill the first 3 ms of each 5 ms
# frame and each CTS starts 4 ms into one, so no two emissions overlap.
SENSITIVITY_EDGES = """
duration_us: 100000
warmup_us: 0
medium: {path_loss: {kind: log-distance, exponent: 3.0}}
nodes:
  - {id: bs, kind: wimax-bs, position: [0.0, 0.0]}
  - {id: ss_in, kind: wimax-ss, position: [462.331, 0.0], bs: bs,
     traffic: {kind: wimax, dl_bytes_per_s: 100000}}
  - {id: ss_out, kind: wimax-ss, position: [-462.431, 0.0], bs: bs,
     traffic: {kind: wimax, dl_bytes_per_s: 100000}}
  - {id: jam, kind: wifi, position: [5000.0, 0.0],
     traffic: {kind: cts-inject, at_us: 4000, repeat_us: 5000, reservation_us: 500}}
  - {id: inner, kind: wifi, position: [5146.168, 0.0]}
  - {id: outer, kind: wifi, position: [4853.732, 0.0]}
"""


class TestSensitivityEdges:
    def test_unoverlapped_frames_follow_the_decode_rule(self):
        """Every outcome of a frame that nothing overlapped is the decode
        rule's over no overlappers, and only the hearer inside the radius
        takes a CTS's NAV."""
        cfg = parse_scenario(SENSITIVITY_EDGES)
        engine, _ = traced_run(cfg)
        ifaces, medium = engine.interfaces, engine.medium
        fields = list(notes(engine.trace))
        emissions = [air(f) for f in fields if f[1] == "air"]
        spans = sorted((a.start, a.end) for a in emissions)
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
        assert {a.kind for a in emissions} == {CTS, WIMAX_BURST}
        frames = {(f"{a.source}>{a.dest}", a.end): a for a in emissions if a.dest is not None}
        results = {}
        for f in fields:
            if f[1] != "outcome":
                continue
            a = frames[(f[2], int(f[0]))]
            tx = Transmission(a.source, a.kind, a.start, a.end - a.start, a.power, dest=a.dest)
            rx = ifaces[a.dest]
            want = delivery_result(tx, [], rx, (a.start, a.end), medium,
                                   {a.source: medium.link_loss_db(ifaces[a.source], rx)})
            assert f[3] == want.result, f
            results.setdefault(a.dest, set()).add(f[3])
        assert results == {"ss_in": {DECODED}, "ss_out": {BELOW_SENSITIVITY}}
        assert {f[2] for f in fields if f[1] == "nav"} == {"inner"}
        assert outcome_mismatches(cfg, engine.trace) == 0


class TestFramePlans:
    """Each cell's frame plan is built once per demand vector and reused:
    at every boundary the cached plan equals the frame map built afresh from
    the demands of that moment."""

    @pytest.mark.parametrize("scene", ["conference_cfg", "colocated_cfg", "two-stations"])
    def test_cached_plans_equal_fresh_maps(self, scene, request, monkeypatch):
        cfg = (parse_scenario(TWO_SS_CELL) if scene == "two-stations"
               else request.getfixturevalue(scene))
        cfg = replace(cfg, duration_us=2_000_000)
        built = []
        monkeypatch.setattr(engine_module, "build_frame_map",
                            lambda *args: built.append(args) or build_frame_map(*args))
        engine = Engine(cfg, seed=1)
        wx = cfg.wimax
        demands = []  # the demands of the boundary in progress, read after its top-up
        top_up = engine._top_up_saturated

        def topped_up(cell):
            top_up(cell)
            frame_start = engine.now + wx.frame_us
            demands[:] = [SsDemand(ss.node.id, link.queue.queued_bytes, direction)
                          for ss in cell
                          if ss.reservation is None or ss.reservation.claims(frame_start)
                          for direction, link in ss.links.items()]

        vectors, lookups = set(), []

        class CheckedPlans(type(engine._plans)):
            def __getitem__(self, key):
                grants, spans = super().__getitem__(key)
                want = build_frame_map(demands, wx)
                assert grants == want
                assert spans == {ss: (min(g.offset_us for g in want if g.ss == ss),
                                      max(g.offset_us + g.len_us for g in want if g.ss == ss))
                                 for ss in {g.ss for g in want}}
                vectors.add(tuple(demands))
                lookups.append(key)
                return grants, spans

        engine._top_up_saturated = topped_up
        engine._plans = CheckedPlans(engine._plan)
        engine.run()
        assert len(lookups) == cfg.duration_us // wx.frame_us + 1  # every boundary
        assert len(built) == len(vectors) == len(engine._plans)
        if scene == "conference_cfg":  # claiming or not; a claim is always topped up
            assert len(built) == 2
        if scene == "two-stations":  # frames that map both stations, and one alone
            assert {len({d.ss for d in v}) for v in vectors} >= {1, 2}


class TestFrameLayout:
    # the emulation scene has no WiMAX cell
    @pytest.mark.parametrize("fixture", ["conference_cfg", "colocated_cfg"])
    def test_shipped_scenario_bursts_keep_the_frame_layout(self, fixture, shipped_run,
                                                           request):
        engine, _ = shipped_run(fixture)
        assert any("|air|wimax-burst|" in line for line in engine.trace)
        assert frame_map_violations(request.getfixturevalue(fixture), engine.trace) == 0

    def test_two_station_cell_keeps_the_frame_layout(self):
        cfg = parse_scenario(TWO_SS_CELL)
        engine, _ = traced_run(cfg)
        assert frame_map_violations(cfg, engine.trace) == 0


class TestPowerCeilings:
    @pytest.mark.parametrize("fixture", sorted(PINNED_HASHES))
    def test_shipped_scenario_emits_under_its_ceilings(self, fixture, shipped_run, request):
        engine, _ = shipped_run(fixture)
        assert over_ceiling(request.getfixturevalue(fixture), engine.trace) == 0


class TestNoteReader:
    def test_air_notes_read_back(self):
        """The oracles' one reader skips per-event lines and reads each
        ``air`` note's emission, a CTS's missing addressee as None."""
        trace = ["1000|air|data|sta>ap|2000|20.0",
                 "1000|3|access|sta 1",
                 "5000|air|cts|jam>None|44|-3.5",
                 "5200|air|wimax-burst|bs>ss1|300|30.0"]
        got = [air(fields) for fields in notes(trace)]
        assert got == [Air(1000, 3000, DATA, "sta", "ap", 20.0),
                       Air(5000, 5044, CTS, "jam", None, -3.5),
                       Air(5200, 5500, WIMAX_BURST, "bs", "ss1", 30.0)]
        assert all(a.kind is kind for a, kind in zip(got, (DATA, CTS, WIMAX_BURST)))

    def test_no_module_defines_an_enum(self):
        """Frame kinds and arbiter modes are plain strings, the text the
        notes print.  Earlier versions held them as Enums, whose attribute
        loads on the per-event path went through ``EnumType.__getattr__``
        and whose notes needed name tables."""
        found = []
        for info in pkgutil.iter_modules(coexsim.__path__):
            module = importlib.import_module(f"coexsim.{info.name}")
            found += [f"{info.name}.{name}" for name, value in vars(module).items()
                      if value is enum or isinstance(value, enum.EnumMeta)]
        assert found == []


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([0.5, 0.5]) == pytest.approx(1.0)
        assert jain_index([1 / 3] * 3) == pytest.approx(1.0)

    def test_starved_flow(self):
        assert jain_index([1.0, 0.0]) == pytest.approx(0.5)

    def test_errors(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([0.0, 0.0])
        with pytest.raises(ValueError):
            jain_index([0.5, -0.1])


class TestEngineBasics:
    def test_empty_scenario_is_all_zero(self):
        result = run(ScenarioConfig(nodes=()))
        assert result.links == {}
        assert result.system_airtime_us == {}
        assert result.fairness_index == 0.0
        assert result.colocated_conflict_us == 0
        assert result.cts_count == 0

    def test_determinism_same_seed(self, emulation_cfg):
        a = run(emulation_cfg, seed=11)
        b = run(emulation_cfg, seed=11)
        assert a.trace_hash == b.trace_hash
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_saturation_matches_slot_accounting(self):
        cfg = parse_scenario(SINGLE_CELL)
        result = run(cfg, seed=3)
        oracle = dcf_saturation_share(2000)
        assert result.system_share("cell") == pytest.approx(oracle, rel=0.02)

    def test_two_equal_cells_share_fairly(self):
        cfg = parse_scenario(TWO_CELLS)
        result = run(cfg, seed=3)
        assert result.fairness_index >= 0.95

    def test_wifi_conservation(self):
        cfg = parse_scenario(SINGLE_CELL)
        engine = Engine(cfg, seed=5)
        result = engine.run()
        stats = result.links["sta->ap"]
        queued = engine.stations["sta"].queued * 1500
        dropped = stats.dropped_frames * 1500
        assert stats.offered_bytes == stats.delivered_bytes + dropped + queued

    def test_backlogged_paced_delays(self):
        """An over-capacity paced station sends its frames in arrival order,
        and nothing corrupts them: the k-th outcome (from 0) is the frame that
        arrived at 10k us, and its delay is its outcome time less that."""
        cfg = replace(parse_scenario(OVER_CAPACITY), duration_us=200_000)
        engine = Engine(cfg, seed=1, collect_trace=True)
        stats = engine.run().links["sta->ap"]
        outcomes = [fields for fields in notes(engine.trace) if fields[1] == "outcome"]
        assert len(outcomes) > 50
        assert {fields[3] for fields in outcomes} == {DECODED}
        delays = [int(fields[0]) - 10 * k for k, fields in enumerate(outcomes)]
        assert (stats.delay_count, stats.delay_sum_us, stats.max_delay_us) == \
            (len(delays), sum(delays), max(delays))

    def test_system_airtime_is_the_union_of_its_emissions(self):
        """Two pairs of one system that transmit at once count their common
        airtime once (the sum of their links' airtime is about 1.82)."""
        result = run(parse_scenario(FAR_PAIRS), seed=1)
        links = sum(st.airtime_us for st in result.links.values())
        assert links > 1.5 * result.measure_us
        assert 0.9 < result.system_share("one") <= 1.0

    def test_reserve_lead_longer_than_a_frame(self):
        """A lead that reaches back past the frame boundary reserves at once
        (earlier versions scheduled the reserve event in the past)."""
        text = """
duration_us: 300000
warmup_us: 50000
wimax: {frame_us: 1000, preamble_us: 100, ttg_us: 50}
reservation: {enabled: true, performance_gating: false, lead_us: 5000}
nodes:
  - {id: bs, kind: wimax-bs, position: [50.0, 0.0]}
  - {id: ss, kind: wimax-ss, position: [0.0, 0.0], bs: bs,
     traffic: {kind: wimax, dl_saturated: true}}
  - {id: ss_wifi, kind: wifi, position: [0.0, 0.0], collocated_with: ss}
"""
        assert run(parse_scenario(text), seed=1).cts_count > 0

    def test_injector_coordinator_sends_one_train_at_a_time(self):
        """A CTS injector that also coordinates its subscriber station's
        reservation waits for its own previous train (earlier versions sent
        an injected and a reserved train at 1000 us)."""
        text = """
duration_us: 20000
warmup_us: 0
wimax: {frame_us: 1000}
reservation: {enabled: true, pacing: false, performance_gating: false}
nodes:
  - {id: bs, kind: wimax-bs, position: [50.0, 0.0]}
  - {id: ss, kind: wimax-ss, position: [0.0, 0.0], bs: bs,
     traffic: {kind: wimax, dl_saturated: true}}
  - {id: jam, kind: wifi, position: [0.0, 0.0], collocated_with: ss,
     traffic: {kind: cts-inject, at_us: 1000, reservation_us: 500}}
"""
        engine = Engine(parse_scenario(text), seed=1, collect_trace=True)
        assert engine.run().cts_count > 1
        assert engine.trace.count("1000|air|cts|jam>None|44|20.0") == 1
        assert own_overlaps(engine.trace) == 0

    def test_coordinator_sends_no_data_between_its_own_chunks(self):
        """A coordinator whose reservation passes the 32767 us duration cap
        sends a train of several chunks; its own CTS sets no NAV at itself,
        so it must hold its data until the train's last chunk (earlier
        versions sent data in the gaps: 17 chunks started under it)."""
        engine = Engine(parse_scenario(LONG_TRAINS), seed=1, collect_trace=True)
        result = engine.run()
        starts = [int(line.split("|")[0]) for line in engine.trace
                  if "|air|cts|ss_wifi>" in line]
        assert any(b - a == NAV_FIELD_CAP_US for a, b in zip(starts, starts[1:]))
        assert result.links["ss_wifi->ap"].delivered_bytes > 0
        assert own_overlaps(engine.trace) == 0

    def test_train_longer_than_the_run_stops_at_its_end(self):
        """An injected train of 3,052 chunks in a 250 ms run pushes only the
        8 chunks that start within the run; its radio stays busy until the
        whole train's end (earlier versions pushed every chunk).  With the
        arbiter on and a platform mate, the cut train keeps its transmit
        grant to the run's end: its last chunk, which releases it, never flies."""
        text = """
duration_us: 250000
warmup_us: 0
nodes:
  - {id: jam, kind: wifi, position: [0.0, 0.0],
     traffic: {kind: cts-inject, at_us: 1000, reservation_us: 100000000}}
  - {id: ap, kind: wifi, position: [6.0, 0.0]}
"""
        mate = "  - {id: mate, kind: wifi, position: [0.0, 0.0], collocated_with: jam}\n"
        for scene in (text, "arbiter: {enabled: true}" + text + mate):
            engine = Engine(parse_scenario(scene), seed=1)
            result = engine.run()
            assert [e for e in engine._heap if e[3] == "cts"] == []
            assert result.cts_count == (250_000 - 1000) // NAV_FIELD_CAP_US + 1
            assert engine.stations["jam"].train_until_us == \
                1000 + 3051 * NAV_FIELD_CAP_US + engine.dcf.cts_airtime_us
        assert engine.arbiters["jam"].held == {"jam": 1}

    def test_chunk_starting_at_the_run_end_flies(self):
        """A chunk that starts exactly at ``duration_us`` goes on air, as
        every event at the end time runs: the cut run's notes are those of a
        longer run up to that time.  ``jam`` senses the pair's first frame,
        so its train starts at 2050 us, one chunk every 32767 us."""
        text = """
warmup_us: 0
nodes:
  - {id: jam, kind: wifi, position: [0.0, 0.0],
     traffic: {kind: cts-inject, at_us: 1000, reservation_us: 200000}}
  - {id: sta, kind: wifi, position: [2.0, 0.0], peer: ap, traffic: {kind: saturated}}
  - {id: ap, kind: wifi, position: [4.0, 0.0]}
"""
        end = 2050 + 2 * NAV_FIELD_CAP_US
        runs = []
        for duration in (end, 400_000):
            engine = Engine(parse_scenario(f"duration_us: {duration}" + text), seed=1,
                            collect_trace=True)
            engine.run()
            runs.append([fields for fields in notes(engine.trace) if int(fields[0]) <= end])
        assert runs[0] == runs[1]
        assert runs[0][-1] == [str(end), "air", "cts", "jam>None", "44", "20.0"]

    def test_wimax_paced_rates_are_exact_over_the_run(self):
        """Each 10 ms tick offers what the rate owes by its end less what it
        owed at its start: the 201 ticks of a 2 s run offer 2.01 s of each
        rate, rounded down once (201 and 0 bytes when each tick rounded
        down on its own)."""
        text = """
duration_us: 2000000
warmup_us: 0
nodes:
  - {id: bs, kind: wimax-bs, position: [50.0, 0.0]}
  - {id: ss, kind: wimax-ss, position: [0.0, 0.0], bs: bs,
     traffic: {kind: wimax, dl_bytes_per_s: 150, ul_bytes_per_s: 99}}
"""
        links = run(parse_scenario(text), seed=1).links
        assert links["bs->ss"].offered_bytes == 301
        assert links["ss->bs"].offered_bytes == 198

    def test_shares_stay_in_unit_interval(self, conference_cfg):
        result = run(conference_cfg, seed=2)
        for system in result.system_airtime_us:
            assert 0.0 <= result.system_share(system) <= 1.0
        for lid, st in result.links.items():
            assert st.delivered_bytes <= st.offered_bytes
            assert st.airtime_us >= 0


# arbiter-governed radios whose emissions once skipped their transmit grant
INJECTOR_ON_SS = """
duration_us: 2000000
warmup_us: 100000
arbiter: {enabled: true}
nodes:
  - {id: bs, kind: wimax-bs, position: [50.0, 0.0]}
  - {id: ss, kind: wimax-ss, position: [0.0, 0.0], bs: bs,
     traffic: {kind: wimax, dl_bytes_per_s: 200000}}
  - {id: ss_wifi, kind: wifi, position: [0.0, 0.0], collocated_with: ss,
     traffic: {kind: cts-inject, at_us: 150180, reservation_us: 3000, repeat_us: 10000}}
"""

WIFI_ON_BS = """
duration_us: 2000000
warmup_us: 100000
medium: {path_loss: {kind: log-distance, exponent: 3.0}}
arbiter: {enabled: true}
nodes:
  - {id: bs, kind: wimax-bs, position: [0.0, 0.0]}
  - {id: ss, kind: wimax-ss, position: [50.0, 0.0], bs: bs,
     traffic: {kind: wimax, dl_bytes_per_s: 400000}}
  - {id: bs_wifi, kind: wifi, position: [0.0, 0.0], collocated_with: bs}
  - {id: ap, kind: wifi, position: [5.0, 0.0], peer: bs_wifi, traffic: {kind: saturated}}
"""


def untraced_peak_bytes(cfg: ScenarioConfig) -> int:
    """The tracemalloc peak of building and running an untraced engine."""
    gc.collect()  # garbage left by earlier tests would be freed at an arbitrary point
    tracemalloc.start()
    try:
        Engine(cfg, seed=1).run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.mark.parametrize("scene, short_us", [("over_capacity", 300_000),
                                                 ("colocated", 3_000_000)])
    def test_peak_does_not_grow_with_the_run(self, scene, short_us, colocated_cfg):
        """Twice the run takes at most 10 % more memory at its peak.  Earlier
        versions kept a record per queued WiFi frame and per delivered
        frame's delay: the over-capacity station's peak doubled (3.9 to
        7.7 MB) and colocated's grew 38 % (206 to 285 KB); now they grow by
        about 1 KB and 7 KB, the latter as the frame plans fill."""
        cfg = parse_scenario(OVER_CAPACITY) if scene == "over_capacity" else colocated_cfg
        short, long = (untraced_peak_bytes(replace(cfg, duration_us=d))
                       for d in (short_us, 2 * short_us))
        assert long <= 1.1 * short, (short, long)


class TestArbitratedRuns:
    @pytest.mark.parametrize("text", [INJECTOR_ON_SS, WIFI_ON_BS],
                             ids=["injector-on-ss", "wifi-on-bs"])
    def test_every_emission_takes_its_source_grant(self, text):
        """Injected trains and downlink bursts ask for a transmit grant like
        any other emission, and a denied one is noted and not sent (earlier
        versions reported 4,440 us and 190,930 us of conflict here)."""
        engine = Engine(parse_scenario(text), seed=1, collect_trace=True)
        assert engine.run().colocated_conflict_us == 0
        denied = [line.split("|")[0] for line in engine.trace
                  if line.endswith(("|arb|bs|TX|deny", "|arb|ss_wifi|TX|deny"))]
        noted = [line.split("|")[0] for line in engine.trace
                 if line.endswith(("|deny|dl|bs", "|deny|inject|ss_wifi"))]
        assert denied == noted

    def test_schedule_awareness_protects_scheduled_reception(self, colocated_cfg):
        from dataclasses import replace
        plain = run(colocated_cfg, seed=1)
        aware_cfg = replace(colocated_cfg,
                            arbiter=replace(colocated_cfg.arbiter, schedule_aware=True))
        aware = run(aware_cfg, seed=1)
        # the WiFi radio never claims Tx across an upcoming scheduled-reception
        # slot, so downlink bursts stop being missed
        assert aware.links["bs->ss1"].retransmissions < plain.links["bs->ss1"].retransmissions
        assert aware.colocated_conflict_us == 0

    def test_every_denial_leaves_an_arb_note(self, colocated_cfg):
        """Schedule-aware denials are noted like the arbiter's own: each
        denied WiFi transmit schedules one retry."""
        cfg = replace(colocated_cfg, duration_us=6_000_000,
                      arbiter=replace(colocated_cfg.arbiter, schedule_aware=True))
        engine = Engine(cfg, seed=1, collect_trace=True)
        engine.run()
        denials = sum(line.endswith("|arb|wifi1|TX|deny") for line in engine.trace)
        retries = sum(line.split("|")[2:3] == ["retry"] for line in engine.trace)
        assert denials == retries > 0

    def test_no_grant_over_a_scheduled_burst(self, colocated_cfg):
        """The replay oracle finds no WiFi grant over a conflicting burst
        mapped before the request, and finds many once the arbiter is not
        schedule-aware."""
        cfg = replace(colocated_cfg, duration_us=6_000_000,
                      arbiter=replace(colocated_cfg.arbiter, schedule_aware=True))
        engine, _ = traced_run(cfg)
        assert schedule_violations(cfg, engine.trace) == 0
        plain = replace(colocated_cfg, duration_us=2_000_000)
        assert schedule_violations(plain, traced_run(plain)[0].trace) > 0

    def test_only_upcoming_slots_are_kept(self, colocated_cfg):
        """The schedule-aware check reads every slot a watched station keeps;
        after each boundary those are only slots that end after it: at most
        one downlink and one uplink slot of the frame on air and of the
        frame just mapped.  With schedule awareness off no station keeps
        slots."""
        cfg = replace(colocated_cfg, duration_us=6_000_000,
                      arbiter=replace(colocated_cfg.arbiter, schedule_aware=True))
        engine = Engine(cfg, seed=1)
        on_boundary, kept = engine._handlers["boundary"], []

        def checked(bs_id: str) -> None:
            on_boundary(bs_id)
            slots = engine.sses["ss1"].slots
            assert all(end > engine.now for _, _, end in slots)
            kept.append(len(slots))

        engine._handlers["boundary"] = checked
        engine.run()
        assert len(kept) == cfg.duration_us // cfg.wimax.frame_us + 1
        assert 0 < max(kept) <= 4
        plain = Engine(replace(colocated_cfg, duration_us=2_000_000), seed=1)
        plain.run()
        assert [ss.slots for ss in plain.sses.values()] == [None]

    def test_radio_keeps_its_grant_until_its_last_frame_ends(self):
        """The co-located coordinator's data frame and its CTS train each take
        a transmit grant; the first to end must not let the subscriber
        station receive under the other (earlier versions reported 49,914 us
        of conflict here)."""
        text = """
duration_us: 2000000
warmup_us: 100000
wimax: {frame_us: 2000}
reservation: {enabled: true, pacing: false, power_sizing: false, performance_gating: false}
arbiter: {enabled: true}
nodes:
  - {id: bs, kind: wimax-bs, position: [50.0, 0.0]}
  - {id: ss, kind: wimax-ss, position: [0.0, 0.0], bs: bs,
     traffic: {kind: wimax, dl_bytes_per_s: 50000}}
  - {id: ss_wifi, kind: wifi, position: [0.0, 0.0], collocated_with: ss, peer: ap,
     traffic: {kind: saturated}}
  - {id: ap, kind: wifi, position: [3.0, 0.0]}
"""
        result = run(parse_scenario(text), seed=1)
        assert result.cts_count > 0
        assert result.colocated_conflict_us == 0

    def test_no_receive_grant_below_sensitivity(self):
        """Only an addressee that receives a frame at or above sensitivity
        asks its arbiter for a receive grant: sta's frames reach ap, 2 km
        away, below it, so ap's arbiter is never asked."""
        text = """
duration_us: 100000
warmup_us: 0
arbiter: {enabled: true}
nodes:
  - {id: bs, kind: wimax-bs, position: [3000.0, 0.0]}
  - {id: ss, kind: wimax-ss, position: [2000.0, 0.0], bs: bs}
  - {id: ap, kind: wifi, position: [2000.0, 0.0], collocated_with: ss}
  - {id: sta, kind: wifi, position: [0.0, 0.0], peer: ap, traffic: {kind: saturated}}
"""
        engine, _ = traced_run(parse_scenario(text))
        assert any(line.endswith("|outcome|sta>ap|below-sensitivity") for line in engine.trace)
        assert not any("|arb|ap|RX|" in line for line in engine.trace)

    def test_denied_interfaces_retry_and_still_deliver(self, colocated_cfg):
        result = run(colocated_cfg, seed=2)
        wifi = result.links["wifi1->ap"]
        assert wifi.delivered_bytes > 0
        down = result.links["ap->wifi1"]
        assert down.delivered_bytes > 0
        assert down.retransmissions > 0  # receptions lost while the platform transmits


class TestNavHonoring:
    def test_no_transmission_inside_decoded_nav(self, shipped_run):
        """A station never starts a frame between hearing a CTS and its NAV expiry."""
        engine, _ = shipped_run("emulation_cfg")
        nav_windows = []
        for line in engine.trace:
            parts = line.split("|")
            if len(parts) >= 4 and parts[1] == "nav" and parts[2] == "node2":
                nav_windows.append((int(parts[0]), int(parts[3])))
        assert nav_windows, "the reservation train must set node2's NAV"
        intervals = []
        for line in engine.trace:
            parts = line.split("|")
            if len(parts) >= 5 and parts[1] == "air" and parts[2] == "data" \
                    and parts[3].startswith("node2>"):
                start = int(parts[0])
                intervals.append((start, start + int(parts[4])))
        for heard, expiry in nav_windows:
            for s, e in intervals:
                assert not (s < expiry and e > heard)

    @pytest.mark.parametrize("fixture", sorted(PINNED_HASHES))
    def test_nav_notes_follow_decoded_cts(self, fixture, shipped_run, request):
        engine, _ = shipped_run(fixture)
        assert nav_violations(request.getfixturevalue(fixture), engine.trace) == 0

    def test_a_cts_inside_a_longer_nav_leaves_no_note(self):
        """``sta`` decodes both CTS frames, but only the long one moves its
        NAV, so it has one ``nav`` note; a second note at the short one's
        end breaks a rule only if it repeats the expiry."""
        cfg = parse_scenario(NAV_KEPT)
        engine, _ = traced_run(cfg)
        trace = engine.trace
        assert [f[3] for f in notes(trace) if f[1] == "air"] == ["long>None", "short>None"]
        assert [f for f in notes(trace) if f[1:3] == ["nav", "sta"]] == [
            ["1044", "nav", "sta", "21044"]]
        assert nav_violations(cfg, trace) == 0
        assert nav_violations(cfg, trace + ["5044|nav|sta|21044"]) == 1
        assert nav_violations(cfg, trace + ["5044|nav|sta|21045"]) == 0

    def test_trace_lines_are_time_ordered(self, shipped_run):
        engine, _ = shipped_run("emulation_cfg")
        times = [int(l.split("|", 1)[0]) for l in engine.trace]
        assert times == sorted(times)
