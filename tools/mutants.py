"""Mutation checks: each planted fault must make its named tests fail.

Usage: python tools/mutants.py

Each row of ``MUTANTS`` names one fault: a module under ``src/coexsim``,
a text of it, the text that replaces it, and the tests that must catch
it.  The old text must occur exactly once in the module, so the table
moves with the code; a row that matches nothing or several places fails
the harness before any test runs.

The harness copies the repository to a temporary directory and first runs
every named test there unmutated, where all must pass.  Then, one mutant at
a time, it plants the fault in the copy, runs only that mutant's tests with
``-x`` and the ``mutants`` Hypothesis profile (no shrinking, so a failing
example fails at once, and no example database, so no run replays
another's), and restores the module.  A mutant is killed when pytest reports a failed
test (exit 1); any other exit, a pass included, marks it survived, and so
does a run that takes longer than ``TIMEOUT_S``, which is stopped there.

Exit status: 0 when every mutant is killed, 1 when any survives, 2 when the
table does not match the code or the unmutated tests fail or time out.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# what a copy holds: the package, the tests and what they read
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md")

ENGINE = "engine.py"
# the tests that catch them
E = "tests/test_engine.py::"
TRAIN = E + "TestEngineBasics::test_chunk_starting_at_the_run_end_flies"
NAV = E + "TestNavHonoring::test_a_cts_inside_a_longer_nav_leaves_no_note"
MATE = E + "TestPinnedConflict::test_frame_to_a_platform_mate"
UNION = E + "TestReportReplay::test_system_airtime_replays_as_a_union"
FAILED = E + "TestReportReplay::test_failed_frames_replay_as_retries_and_drops"
REPLAY = E + "TestReportReplay::test_shipped_report_replays_from_its_trace"
PLANS = E + "TestFramePlans::test_cached_plans_equal_fresh_maps[two-stations]"
LAYOUT = E + "TestFrameLayout::test_two_station_cell_keeps_the_frame_layout"
SETTLED = E + "TestSensitivityEdges::test_unoverlapped_frames_follow_the_decode_rule"
SLOTS = E + "TestArbitratedRuns::test_only_upcoming_slots_are_kept"
OUTCOMES = E + "TestOutcomeReplay::test_shipped_scenario_outcomes_match_the_oracle[colocated_cfg]"
W = "tests/test_wifi.py::"
DROP = W + "TestTxOutcome::test_drop_past_retry_limit"
SAME_SLOT = W + "TestTryAccess::test_same_microsecond_data_start_collides"
FREEZE = W + "TestTryAccess::test_busy_mid_backoff_freezes_remaining_slots"
NAV_DEFERS = W + "TestTryAccess::test_nav_defers_at_least_to_expiry"
BOUNDS = "tests/test_scenario.py::TestValidation::test_constructors_keep_the_parser_bounds"
CODE_BUILT = ("tests/test_scenario.py::TestValidation"
              "::test_sections_built_in_code_keep_their_bounds")
EVERY_NODE_PROBLEM = ("tests/test_scenario.py::TestValidation"
                      "::test_a_config_built_in_code_lists_every_node_problem")
RULES = "tests/test_scenario.py::TestValidation::test_each_rule_reports_its_path"
GENERATED = ("tests/test_properties.py::TestGeneratedScenarios"
             "::test_valid_scenarios_run_and_keep_the_invariants")
RUN_LENGTH = ("tests/test_properties.py::TestRunLength"
              "::test_a_shorter_run_is_a_prefix_of_a_longer_one")
RELATIONS = "tests/test_properties.py::TestRelations::test_related_scenes_run_alike"
GRID_MOTIONS = "tests/test_properties.py::TestRelations::test_rigid_motions_keep_the_grid_run"
GRID_SCAN = E + "TestCachedFastPaths::test_memoised_sensing_equals_a_scan[grid-edges]"
EMULATION_PIN = E + "TestPinnedHashes::test_shipped_scenario[emulation_cfg]"
# one pytest run, unmutated or with one mutant; a run that hangs fails the harness
TIMEOUT_S = 120

class Mutant(NamedTuple):
    name: str
    module: str       # file under src/coexsim
    old: str          # exact text, found exactly once
    new: str
    tests: tuple      # pytest ids, at least one of which must fail


MUTANTS = (
    # a nav note written though the NAV did not move
    Mutant("nav_note_always", ENGINE,
           "            if rt.nav_expiry_us != had_nav:\n",
           "            if True:\n", (NAV,)),
    # a train chunk that starts exactly at the run's end is dropped
    Mutant("train_chunk_at_the_end", ENGINE,
           "            if chunk.start_us > self._end_us:\n",
           "            if chunk.start_us >= self._end_us:\n", (TRAIN,)),
    # a train chunk in flight at the run's end is dropped
    Mutant("train_chunk_across_the_end", ENGINE,
           "            if chunk.start_us > self._end_us:\n",
           "            if chunk.end_us > self._end_us:\n", (RUN_LENGTH,)),
    # a frame to a platform mate no longer conflicts with itself
    Mutant("no_own_pair_conflict", ENGINE,
           "        if src_plat is not None and src_plat == rx_plat:\n"
           "            self.conflict_us += self._clip(tx.start_us, tx.end_us)\n",
           "        if src_plat is not None and src_plat == rx_plat:\n"
           "            pass\n", (MATE,)),
    # a system's airtime is the sum of its emissions, not their union
    Mutant("summed_system_airtime", ENGINE,
           "        if tx.end_us > busy:\n"
           "            if busy > tx.start_us:\n",
           "        if True:\n"
           "            if False:\n", (UNION,)),
    # a dropped WiFi frame is counted as delivered
    Mutant("drop_counted_as_delivery", ENGINE,
           "        if decoded:\n"
           "            self._count_delivery(link, rec.served_bytes, [self.now - rt.head_us])\n",
           "        if decoded or res == OUTCOME_DROP:\n"
           "            self._count_delivery(link, rec.served_bytes, [self.now - rt.head_us])\n",
           (FAILED,)),
    # a WiFi frame is dropped after retry_limit failures, one too early
    Mutant("drop_one_retry_early", "wifi.py",
           "self.retry_count > self.params.retry_limit",
           "self.retry_count >= self.params.retry_limit", (FAILED,)),
    # a WiFi retry is counted as a drop
    Mutant("retry_counted_as_drop", ENGINE,
           "        elif res == OUTCOME_RETRY:\n"
           "            link.stats.retransmissions += 1\n",
           "        elif res == OUTCOME_RETRY:\n"
           "            link.stats.dropped_frames += 1\n", (FAILED,)),
    # the same, caught by the generated scenes within seconds when unshrunk;
    # shrinking the failing example took over 300 s
    Mutant("retry_counted_as_drop_generated", ENGINE,
           "        elif res == OUTCOME_RETRY:\n"
           "            link.stats.retransmissions += 1\n",
           "        elif res == OUTCOME_RETRY:\n"
           "            link.stats.dropped_frames += 1\n", (GENERATED,)),
    # a missed WiMAX burst is not counted as a retransmission
    Mutant("missed_burst_not_retransmitted", ENGINE,
           "        else:\n"
           "            link.stats.retransmissions += 1\n",
           "        else:\n"
           "            pass\n", (f"{REPLAY}[colocated_cfg]",)),
    # a decoded burst also counts the rest of its queue as delivered
    Mutant("burst_delivers_the_queue", ENGINE,
           "            self._count_delivery(link, rec.served_bytes, delays)\n",
           "            self._count_delivery(link, rec.served_bytes + link.queue.queued_bytes,"
           " delays)\n", (f"{REPLAY}[conference_cfg]",)),
    # systems without airtime are left out of the fairness index
    Mutant("fairness_skips_idle_systems", ENGINE,
           " for s in self.systems.values()]\n",
           " for s in self.systems.values() if s.airtime]\n", (f"{REPLAY}[emulation_cfg]",)),
    # a frame plan's key repeats the DL bytes for UL
    Mutant("plan_key_dl_for_ul", ENGINE,
           "ss.links[DL].queue.queued_bytes, ss.links[UL].queue.queued_bytes)\n",
           "ss.links[DL].queue.queued_bytes, ss.links[DL].queue.queued_bytes)\n", (PLANS,)),
    # a frame plan's key keeps only a cell's first station
    Mutant("plan_key_first_station", ENGINE,
           "            for ss in sses\n"
           "            if ss.reservation is None or ss.reservation.claims(frame_start)])]\n",
           "            for ss in sses[:1]\n"
           "            if ss.reservation is None or ss.reservation.claims(frame_start)])]\n",
           (PLANS,)),
    # a frame that nothing overlapped decodes even below sensitivity
    Mutant("settled_frames_always_decode", ENGINE,
           "                result = DECODED if rec.corrupters else BELOW_SENSITIVITY\n",
           "                result = DECODED\n", (SETTLED,)),
    # a denied receive is treated as granted
    Mutant("denied_receive_listens", ENGINE,
           "(tx.start_us, tx.end_us), rec.holds):\n",
           "(tx.start_us, tx.end_us), rec.holds) or True:\n", (OUTCOMES,)),
    # a subscriber station's ended slots are never dropped
    Mutant("slots_never_pruned", ENGINE,
           "                while slots and slots[0][2] <= now:\n",
           "                while False:\n", (SLOTS,)),
    # a schedule-aware arbiter lets WiFi send over a scheduled DL slot
    Mutant("dl_slots_ignored", "arbiter.py",
           "        conflicting = DL  # station receiving\n",
           "        conflicting = None\n",
           ("tests/test_arbiter.py::TestScheduleAware"
            "::test_wifi_tx_over_scheduled_reception_denied",)),
    # the arbiter grants a transmit while a receive is held
    Mutant("transmit_under_receive", "arbiter.py",
           "        if (state is RX and desired is TX) or (state is TX and desired is RX):\n",
           "        if state is TX and desired is RX:\n",
           ("tests/test_arbiter.py::TestProperties::test_never_tx_and_rx_simultaneously",)),
    # a dropped frame keeps its doubled contention window
    Mutant("drop_keeps_the_window", "wifi.py",
           "            self.contention_window = self.params.cw_min\n",
           "            pass\n", (DROP,)),
    # every burst goes on air 150 us before its grant
    Mutant("burst_before_its_grant", ENGINE,
           '            self._push(frame_start + g.offset_us, "burst", g)\n',
           '            self._push(frame_start + g.offset_us - 150, "burst", g)\n', (LAYOUT,)),
    # no field is checked against its upper bound, by the parser or a constructor
    Mutant("no_upper_bound", "medium.py",
           "    if hi is not None and value > hi:\n",
           "    if False:\n", (f"{BOUNDS}[WimaxConfig.dl_ratio-hi]",)),
    # a config built in code skips the node rules
    Mutant("config_skips_the_node_rules", "scenario.py",
           "        problems = _node_problems(self.nodes, self.wifi.cts_airtime_us)\n",
           "        problems = []\n", (CODE_BUILT,)),
    # a node id may hold a line break, which splits its traced lines
    Mutant("unprintable_id", "scenario.py",
           "        if not n.id.isprintable():",
           "        if False:", (f"{CODE_BUILT}[id_unprintable]",)),
    # distances stretch along y, so a rotation of the scene changes its run
    Mutant("distance_stretched_along_y", "medium.py",
           "        return math.hypot(self.x - other.x, self.y - other.y)\n",
           "        return math.hypot(self.x - other.x, 2 * (self.y - other.y))\n",
           (RELATIONS, GRID_MOTIONS)),
    # the wimax section checks its cross-field rule but not its bounds
    Mutant("wimax_skips_its_bounds", "wimax.py",
           "        super().__post_init__()\n",
           "", (f"{BOUNDS}[WimaxConfig.capacity_bytes_per_us-lo]",)),
    # a section's cross-field rule judges the default put in place of a bad value
    Mutant("section_judges_a_default", "scenario.py",
           "        if len(w.errors) == checked:\n",
           "        if True:\n",
           (f"{RULES}[path_loss_kind_unknown]", f"{RULES}[dl_ratio_above_bound]")),
    # a config built in code reports only its first broken node rule
    Mutant("config_lists_first_node_problem", "scenario.py",
           "            raise ScenarioError(problems)\n",
           "            raise ScenarioError(problems[:1])\n", (EVERY_NODE_PROBLEM,)),
    # the neighbour grid finds a platform mate only within the radius
    Mutant("grid_skips_platform_mates", ENGINE,
           "        hits = set(self.platforms.get(plat, ()))\n",
           "        hits = set()\n", (GRID_SCAN,)),
    # the window's lowest column is rounded toward zero, the cells down
    Mutant("grid_window_truncated", ENGINE,
           "        x0, x1 = math.floor((x - reach) / _CELL_M),",
           "        x0, x1 = int((x - reach) / _CELL_M),", (GRID_SCAN,)),
    # the run loop hands an attempt voided since it was armed to its handler
    Mutant("stale_attempt_dispatched", ENGINE,
           "            if phase == P_ACCESS and not data[2].take_attempt(data[1]):\n"
           "                continue\n",
           "            if phase == P_ACCESS and not data[2].take_attempt(data[1]):\n"
           "                pass\n", (EMULATION_PIN,)),
    # a data frame starting at the planned start voids the attempt, so the two never collide
    Mutant("same_slot_data_voids", "wifi.py",
           "        if start_us > start or (data and start_us == start):\n",
           "        if start_us > start:\n", (SAME_SLOT,)),
    # a frozen attempt is credited one slot more than the idle air counted down
    Mutant("freeze_credits_a_slot_too_many", "wifi.py",
           "            st.pending_slots -= elapsed\n",
           "            st.pending_slots -= elapsed + 1\n", (FREEZE,)),
    # an attempt is armed without waiting for the NAV to expire
    Mutant("arm_ignores_nav", "wifi.py",
           "        if self.nav_expiry_us > contend:\n",
           "        if False:\n", (NAV_DEFERS,)),
)


def copy_repo(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".work")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_tests(copy: Path, tests: tuple) -> int | None:
    """Exit code of pytest over ``tests`` in ``copy``, or None when it ran
    past ``TIMEOUT_S`` and was stopped."""
    try:
        return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--hypothesis-profile=mutants", *tests],
                              cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src"),
                                                 PYTHONDONTWRITEBYTECODE="1"),
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    stale = [m.name for m in MUTANTS
             if (ROOT / "src" / "coexsim" / m.module).read_text().count(m.old) != 1]
    if stale:
        print(f"old text does not occur exactly once: {', '.join(stale)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        copy_repo(copy)
        # an installed coexsim must not stand in for the copy's
        found = subprocess.run([sys.executable, "-c", "import coexsim; print(coexsim.__file__)"],
                               cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                               capture_output=True, text=True, check=True).stdout.strip()
        if not Path(found).resolve().is_relative_to(copy.resolve()):
            print(f"coexsim imports from {found}, not the copy", file=sys.stderr)
            return 2
        code = run_tests(copy, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
        if code != 0:
            why = f"time out after {TIMEOUT_S} s" if code is None else "fail"
            print(f"the named tests {why} without a mutant", file=sys.stderr)
            return 2
        survived = []
        for m in MUTANTS:
            path = copy / "src" / "coexsim" / m.module
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            began = time.monotonic()
            code = run_tests(copy, m.tests)
            path.write_text(original)
            verdict = ("killed" if code == 1 else f"SURVIVED (timed out after {TIMEOUT_S} s)"
                       if code is None else f"SURVIVED (pytest exit {code})")
            print(f"{m.name}: {verdict} in {time.monotonic() - began:.1f} s", flush=True)
            if code != 1:
                survived.append(m.name)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
