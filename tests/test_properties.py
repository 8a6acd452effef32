"""Properties of runs over small generated scenarios: every scenario the
validator accepts runs to its end, and the report keeps the invariants the
README states for it."""

import contextlib
import copy
import importlib.util
import io
import pathlib
import tempfile
from dataclasses import replace
from typing import Optional

import yaml
from hypothesis import event, given, settings, strategies as st

from coexsim import cli
from coexsim.engine import Engine
from coexsim.medium import Position
from coexsim.reservation import NAV_FIELD_CAP_US
from coexsim.scenario import ScenarioConfig, emit_scenario, parse_scenario
from conftest import scenario_path
from oracles import (air, conflict_time, dcf_violations, frame_map_violations,
                     line_by_line_hash, nav_violations, notes, outcome_mismatches, over_ceiling,
                     own_overlaps, report_mismatches, schedule_violations)
from test_scenario import scenarios


def _flag(draw) -> str:
    return "true" if draw(st.booleans()) else "false"


@st.composite
def small_scenarios(draw) -> str:
    """YAML for a valid small scene: saturated or paced WiFi pairs, one WiMAX
    cell, an optional CTS injector, and the reservation scheme and the
    arbiter each on or off.  Radios sit on a 40 m grid, access points 3 m
    east of their station, so only co-located radios share a position; with
    the steeper path loss, distant radios of one system transmit at once.
    Each WiMAX station may carry a co-located WiFi radio: the subscriber
    station's has an access point that may share its platform and may send
    back to it; the base station's has a saturated access point sending to
    it.  The injector may sit on the subscriber station's platform too.  A
    second subscriber station, saturated or paced at either rate, may share
    the cell; it has no WiFi radio, so it claims slots by pacing alone.
    With 100 ms frames the reservation scheme is on, ungated, and the
    subscriber station always has its saturated WiFi radio, so a reservation
    over its grants can pass the 32767 us duration cap and go out as a train
    of several chunks.  The DCF constants are drawn too."""
    pairs = draw(st.integers(1, 3))
    grid = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                         min_size=pairs + 4, max_size=pairs + 4, unique=True))
    spots = iter([(x * 40.0, y * 40.0) for x, y in grid])
    frame_us = draw(st.sampled_from([1000, 2000, 5000, 100_000]))
    long_frames = frame_us == 100_000
    cw_min = draw(st.integers(1, 63))
    lines = [
        f"duration_us: {draw(st.integers(150_000, 400_000))}",
        "warmup_us: 50000",
        "medium: {path_loss: {kind: log-distance, exponent: %s}}"
        % draw(st.sampled_from([2.0, 3.0, 4.0])),
        f"wimax: {{frame_us: {frame_us}}}",
        f"wifi: {{slot_us: {draw(st.integers(5, 50))}, difs_us: {draw(st.integers(10, 150))}, "
        f"cw_min: {cw_min}, cw_max: {draw(st.integers(cw_min, 1023))}, "
        f"retry_limit: {draw(st.integers(0, 7))}}}",
        f"reservation: {{enabled: {'true' if long_frames else _flag(draw)}, "
        f"pacing: {_flag(draw)}, power_sizing: {_flag(draw)}, "
        f"performance_gating: {'false' if long_frames else _flag(draw)}, "
        f"lead_us: {draw(st.integers(100, 8000))}, pacing_tick_us: 20000, "
        "eval_tick_us: 20000, retx_enable_threshold: 1}",
        f"arbiter: {{enabled: {_flag(draw)}, schedule_aware: {_flag(draw)}, "
        f"retry_us: {draw(st.integers(50, 2000))}}}",
        "nodes:",
    ]
    system = ", system: pairs" if draw(st.booleans()) else ""  # one system for all pairs
    for i in range(pairs):
        x, y = next(spots)
        traffic = f"kind: saturated, frame_bytes: {draw(st.integers(100, 1500))}"
        if draw(st.booleans()):
            traffic = traffic.replace("saturated", "paced") + \
                f", interval_us: {draw(st.integers(500, 20_000))}"
        lines.append(f"  - {{id: sta{i}, kind: wifi, position: [{x}, {y}], peer: ap{i}"
                     f"{system}, traffic: {{{traffic}}}}}")
        lines.append(f"  - {{id: ap{i}, kind: wifi, position: [{x + 3.0}, {y}]{system}}}")
    x, y = next(spots)
    lines.append(f"  - {{id: bs, kind: wimax-bs, position: [{x}, {y}]}}")
    if draw(st.booleans()):
        event("WiFi radio on the base station's platform")
        lines.append(f"  - {{id: bs_wifi, kind: wifi, position: [{x}, {y}], "
                     "collocated_with: bs}")
        lines.append(f"  - {{id: bs_ap, kind: wifi, position: [{x + 3.0}, {y}], "
                     "peer: bs_wifi, traffic: {kind: saturated}}")
    ss_x, ss_y = x, y = next(spots)
    rate = draw(st.sampled_from([50_000, 400_000]))
    lines.append(f"  - {{id: ss, kind: wimax-ss, position: [{x}, {y}], bs: bs, traffic: "
                 f"{{kind: wimax, dl_saturated: {_flag(draw)}, ul_saturated: {_flag(draw)}, "
                 f"dl_bytes_per_s: {rate}, ul_bytes_per_s: {rate}}}}}")
    if draw(st.booleans()):
        event("second subscriber station in the cell")
        x2, y2 = next(spots)
        rate = draw(st.sampled_from([50_000, 400_000]))
        traffic = ("dl_saturated: true, ul_saturated: true" if draw(st.booleans()) else
                   f"dl_bytes_per_s: {rate}, ul_bytes_per_s: {rate}")
        lines.append(f"  - {{id: ss2, kind: wimax-ss, position: [{x2}, {y2}], bs: bs, "
                     f"traffic: {{kind: wimax, {traffic}}}}}")
    if long_frames or draw(st.booleans()):
        lines.append(f"  - {{id: ss_wifi, kind: wifi, position: [{x}, {y}], "
                     "collocated_with: ss, peer: ss_ap, traffic: {kind: saturated}}")
        where = (f"position: [{x}, {y}], collocated_with: ss" if draw(st.booleans())
                 else f"position: [{x + 3.0}, {y}]")
        back = (", peer: ss_wifi, traffic: {kind: paced, interval_us: 5000}"
                if draw(st.booleans()) else "")
        lines.append(f"  - {{id: ss_ap, kind: wifi, {where}{back}}}")
    if draw(st.booleans()):
        x, y = next(spots)
        where = f"position: [{x}, {y}]"
        if draw(st.booleans()):
            event("CTS injector on the subscriber station's platform")
            where = f"position: [{ss_x}, {ss_y}], collocated_with: ss"
        reservation = draw(st.integers(50, 5000))
        repeat = draw(st.sampled_from([0, reservation + 44, reservation + 2000]))
        lines.append(f"  - {{id: jam, kind: wifi, {where}, traffic: "
                     f"{{kind: cts-inject, at_us: {draw(st.integers(0, 100_000))}, "
                     f"reservation_us: {reservation}, repeat_us: {repeat}, "
                     f"power_dbm: {draw(st.sampled_from([-10.0, 5.0, 20.0]))}}}}}")
    return "\n".join(lines) + "\n"


class TestGeneratedScenarios:
    @settings(max_examples=50, deadline=None)
    @given(small_scenarios(), st.integers(1, 1000))
    def test_valid_scenarios_run_and_keep_the_invariants(self, text, seed):
        cfg = parse_scenario(text)
        engine = Engine(cfg, seed=seed, collect_trace=True)
        result = engine.run()

        for link in engine._links():
            stats = link.stats
            assert stats.delivered_bytes <= stats.offered_bytes, link.id
            accounted = stats.delivered_bytes + link.queue.queued_bytes
            if link.src in engine.stations:
                accounted += stats.dropped_frames * cfg.node(link.src).traffic.frame_bytes
            assert stats.offered_bytes == accounted, link.id
        for system in result.system_airtime_us:
            assert 0.0 <= result.system_share(system) <= 1.0, system
        assert 0.0 <= result.fairness_index <= 1.0

        times = [int(line.split("|", 1)[0]) for line in engine.trace]
        assert times == sorted(times)
        if cfg.arbiter.enabled:  # no radio transmits while a platform mate listens
            assert result.colocated_conflict_us == 0
        else:
            assert result.colocated_conflict_us == conflict_time(cfg, engine.trace)
        cts = [line.split("|") for line in engine.trace if "|air|cts|" in line]
        if any(a[3] == b[3] and int(b[0]) - int(a[0]) == NAV_FIELD_CAP_US
               for a, b in zip(cts, cts[1:])):
            event("CTS train past the duration cap")
        assert own_overlaps(engine.trace) == 0  # a radio sends one frame at a time
        assert dcf_violations(cfg, engine.trace) == 0
        assert outcome_mismatches(cfg, engine.trace) == 0
        assert report_mismatches(cfg, engine.trace, result.to_dict()) == []
        assert nav_violations(cfg, engine.trace) == 0
        # the engine's interferer sets assume no emission passes these ceilings
        assert over_ceiling(cfg, engine.trace) == 0
        assert frame_map_violations(cfg, engine.trace) == 0
        if cfg.arbiter.enabled and cfg.arbiter.schedule_aware:
            assert schedule_violations(cfg, engine.trace) == 0
        # the hash covers the behaviour notes alone, whether a trace is kept or not
        assert line_by_line_hash(engine.trace) == result.trace_hash
        assert Engine(cfg, seed=seed).run().trace_hash == result.trace_hash


class TestRunLength:
    @settings(max_examples=40, deadline=None)
    @given(small_scenarios(), st.integers(1, 1000), st.data())
    def test_a_shorter_run_is_a_prefix_of_a_longer_one(self, text, seed, data):
        """Cut at a time T1 after the warm-up, a run's notes are the full
        run's notes up to T1: nothing before the end depends on where the
        end is.  T1 falls anywhere, or inside a CTS on air, since a train's
        chunks are all queued when it is sent and the end decides which fly."""
        cfg = parse_scenario(text)
        full = Engine(cfg, seed=seed, collect_trace=True)
        full.run()
        last = cfg.duration_us - 1
        frames = [(a.start, min(a.end, last))
                  for a in (air(f) for f in notes(full.trace) if f[1:3] == ["air", "cts"])
                  if cfg.warmup_us < a.start <= last]
        anywhere = st.integers(cfg.warmup_us + 1, last)
        inside = st.sampled_from(frames).flatmap(lambda f: st.integers(*f)) if frames else anywhere
        end = data.draw(anywhere | inside, label="T1")
        cut = Engine(replace(cfg, duration_us=end), seed=seed, collect_trace=True)
        cut.run()
        assert list(notes(cut.trace)) == [f for f in notes(full.trace) if int(f[0]) <= end]


# maps of the plane that are exact on generated positions (multiples of 40 m,
# plus 3 m), so no distance moves by a rounding step
_MOTIONS = {
    "shift": lambda p: Position(p.x + 1024.0, p.y - 2048.0),
    "rotation": lambda p: Position(-p.y, p.x),
    "mirror": lambda p: Position(-p.x, p.y),
    "swap": lambda p: Position(p.y, p.x),
}
# put before every name; a common prefix keeps the ids' sorted order, which
# a frame map reads when a cell has two subscriber stations
_PREFIX = "renamed."


def _moved(cfg: ScenarioConfig, motion: str) -> ScenarioConfig:
    """``cfg`` with every radio moved by one of ``_MOTIONS``."""
    move = _MOTIONS[motion]
    return replace(cfg, nodes=tuple(replace(n, position=move(n.position)) for n in cfg.nodes))


def _pairs_grid_yaml(seed: int, pairs: int) -> str:
    """The benchmark's grid scenario, from ``bench/pairs_grid.py`` loaded by path."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "pairs_grid.py"
    spec = importlib.util.spec_from_file_location("bench_pairs_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.pairs_grid_yaml(seed, pairs)


def _renamed(cfg: ScenarioConfig) -> ScenarioConfig:
    """``cfg`` with every id, and every reference to one, prefixed."""
    def name(value: Optional[str]) -> Optional[str]:
        return None if value is None else _PREFIX + value

    return replace(cfg, nodes=tuple(
        replace(n, id=name(n.id), peer=name(n.peer), bs=name(n.bs),
                collocated_with=name(n.collocated_with), system=name(n.system))
        for n in cfg.nodes))


class TestRelations:
    @settings(max_examples=80, deadline=None)
    @given(small_scenarios(), st.integers(1, 1000), st.sampled_from([*_MOTIONS, "renaming"]))
    def test_related_scenes_run_alike(self, text, seed, relation):
        """Moving every radio by one rigid motion keeps the trace hash, since
        only distances reach the medium.  Renaming every radio in a way that
        keeps the ids' sorted order keeps the notes, once the names are
        mapped back."""
        cfg = parse_scenario(text)
        if relation == "renaming":
            base = Engine(cfg, seed=seed, collect_trace=True)
            base.run()
            renamed = Engine(_renamed(cfg), seed=seed, collect_trace=True)
            renamed.run()
            assert [[f.replace(_PREFIX, "") for f in fields] for fields in notes(renamed.trace)] \
                == list(notes(base.trace))
            return
        moved = _moved(cfg, relation)
        assert Engine(moved, seed=seed).run().trace_hash == Engine(cfg, seed=seed).run().trace_hash

    def test_rigid_motions_keep_the_grid_run(self):
        """The generated scenes are a few cells; the benchmark's 100-pair
        grid, cut to 300 ms, keeps its trace hash under each motion too."""
        cfg = replace(parse_scenario(_pairs_grid_yaml(1, 100)), duration_us=300_000,
                      warmup_us=0)
        base = Engine(cfg).run().trace_hash
        assert {m: Engine(_moved(cfg, m)).run().trace_hash for m in _MOTIONS} \
            == dict.fromkeys(_MOTIONS, base)


def _cut(cfg: ScenarioConfig) -> ScenarioConfig:
    """``cfg`` cut to a warm-up of at most 50 ms plus 200 ms, with each
    injector's first train moved inside the cut."""
    warmup = min(cfg.warmup_us, 50_000)
    duration = min(cfg.duration_us, warmup + 200_000)
    nodes = tuple(replace(n, traffic=replace(n.traffic, at_us=n.traffic.at_us % duration))
                  for n in cfg.nodes)
    return replace(cfg, warmup_us=warmup, duration_us=duration, nodes=nodes)


class TestBoundedScenarios:
    @settings(max_examples=100, deadline=None)
    @given(scenarios())
    def test_accepted_scenarios_run_to_their_end(self, cfg):
        """Any config drawn inside the fields' bounds, written out, runs
        through ``coexsim run`` to its end: exit 0 and nothing on stderr."""
        assert run_document(emit_scenario(_cut(cfg))) == (0, "")


def run_document(text: str) -> tuple[int, str]:
    """(exit code, stderr) of ``coexsim run`` on a scenario document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "scenario.yaml")
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path), "--out", str(pathlib.Path(tmp, "report"))])
    return code, err.getvalue()


# the shipped documents, each cut to a 20 ms warm-up and a 100 ms run before
# it is edited; an edit that lengthens the run or drops its length is cut back
_CUT_US, _CUT_WARMUP_US = 100_000, 20_000
_JUNK = ("junk", True, -1, 1e300, float("nan"), [1, "x"], {"key": 1}, None)


def _shipped_document(name: str) -> dict:
    with open(scenario_path(name), encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    doc.update(duration_us=_CUT_US, warmup_us=_CUT_WARMUP_US)
    return doc


_DOCUMENTS = [_shipped_document(name) for name in ("emulation", "conference_room", "colocated")]


def _spots(doc: dict) -> list[tuple]:
    """(container, key) of every value in ``doc``, depth first."""
    out = []

    def walk(node):
        if isinstance(node, (dict, list)):
            for key in node if isinstance(node, dict) else range(len(node)):
                out.append((node, key))
                walk(node[key])

    walk(doc)
    return out


def _edit(draw, doc: dict) -> None:
    """One random edit of ``doc``: a value replaced by junk, a key deleted, a
    number scaled or negated, a list entry duplicated, or the warm-up set at
    or past the run's end."""
    kind = draw(st.sampled_from(["junk", "delete", "scale", "duplicate", "warmup"]))
    if kind == "warmup":
        end = doc.get("duration_us")
        end = end if type(end) is int else _CUT_US
        doc["warmup_us"] = end + draw(st.sampled_from([0, 1, 10_000]))
        return
    spots = [(node, key) for node, key in _spots(doc)
             if kind == "junk"
             or kind == "delete" and isinstance(node, dict)
             or kind == "scale" and type(node[key]) in (int, float)
             or kind == "duplicate" and isinstance(node, list)]
    if not spots:
        return
    node, key = draw(st.sampled_from(spots))
    if kind == "junk":
        node[key] = copy.deepcopy(draw(st.sampled_from(_JUNK)))
    elif kind == "delete":
        del node[key]
    elif kind == "scale":
        scaled = node[key] * draw(st.sampled_from([-1, 0, 0.5, 2, 10]))
        node[key] = int(scaled) if type(node[key]) is int else scaled
    else:
        node.insert(key, copy.deepcopy(node[key]))


@st.composite
def edited_documents(draw) -> dict:
    """A shipped document, cut short, with 1-3 random edits."""
    doc = copy.deepcopy(draw(st.sampled_from(_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        _edit(draw, doc)
    end = doc.get("duration_us")
    if end is None or type(end) is int and end > _CUT_US:
        doc["duration_us"] = _CUT_US
    return doc


class TestEditedDocuments:
    @settings(max_examples=150, deadline=None)
    @given(edited_documents())
    def test_edited_documents_run_or_fail_validation(self, doc):
        """Any document in ends in a report (exit 0, nothing on stderr) or
        in validation errors (exit 2, only ``error:`` lines), never in a
        runtime failure (exit 3) or a traceback."""
        code, err = run_document(yaml.safe_dump(doc))
        event(f"exit {code}")
        lines = err.splitlines()
        if code == 0:
            assert lines == []
        else:
            assert code == 2 and lines and all(line.startswith("error: ") for line in lines), err
