#!/usr/bin/env python3
"""coexsim benchmark: host cost of one simulated run, end to end and per layer.

    python3 bench/run.py --workload pairs_grid --seed 1 --seconds 20 --trace 0

Run from the repository root. The simulator is imported from ``src/`` next
to this directory, never from an installed copy. One operation is the
in-process equivalent of ``coexsim run --seed N``: ``load_scenario``,
``Engine(...)``, ``run()``, ``render_run_json``, each on a fresh engine.
Operations repeat until ``--seconds`` have passed.

``--trace 0`` pairs every operation with the same operation of a frozen copy
of the simulator (``reference/coexsim_ref``, see README.md). The two run at
once in two threads of a process pinned to one CPU, so the GIL interleaves
them every few milliseconds and both see the same host speed; each phase is
timed in its thread's CPU time. Each end-to-end timing is reported as the
median per-pair ratio to the reference, times the reference's own figure on
the reference host (``REFERENCE_HOST``). Host speed on a shared machine
drifts by up to a factor of two, within seconds as well as over minutes;
the ratio does not. Raw medians are printed in the detail lines.
``--trace 1`` first times untraced operations for a third of the time, then
traces the layers (see ``tracer.py``) for the rest and reports per-layer
metrics. Human-readable detail goes to stdout first; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

An operation fails if it raises, if its report breaks an invariant
(delivered <= offered bytes per link, every system share and the fairness
index in [0, 1]), or if its trace hash or report digest differs from the
first operation of the run. ``--pairs`` and ``--duration-us`` exist for
hand-run sweeps and the self-test; the benchmark's workloads use defaults.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference"

sys.path.insert(0, str(BENCH))
from pairs_grid import pairs_grid_yaml  # noqa: E402
from tracer import OTHER_BUCKETS, Tracer  # noqa: E402

WORKLOADS = {
    # Cost per event grows with the station count: carrier sense scans every
    # station, overlapper lists grow, backoffs are voided and re-armed.
    "pairs_grid": "generated",
    # TDM frame map every 5 ms plus the whole reservation loop, 7 nodes: the
    # bypass workload for station-scaling changes.
    "conference_room": "shipped",
    # The only workload where the arbiter works; co-located coupling and
    # arbiter-gated reception in the medium.
    "colocated": "shipped",
}
PROBE_TIMEOUT_S = 150
SETUP_MIN_S = 0.05
BASELINE = BENCH / "BASELINE.json"
DEFAULT_SEED = 1
# Scale of the reported timings: raw medians of the unpaired operation over
# ten 30 s runs (seeds 1-10) on the reference host (BASELINE.json's "host"),
# with the code the reference copies. A reported timing is this figure times
# the median ratio of the program to the reference over the run's pairs.
REFERENCE_HOST = {
    "pairs_grid": {"wall_s": 1.550, "setup_s": 0.1713, "run_s": 1.381,
                   "events_per_s": 43560.0},
    "conference_room": {"wall_s": 1.124, "setup_s": 0.008228, "run_s": 1.109,
                        "events_per_s": 49920.0},
    "colocated": {"wall_s": 1.799, "setup_s": 0.006164, "run_s": 1.778,
                  "events_per_s": 38820.0},
}
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "run_s": "s", "events_per_s": "1/s"}


def import_coexsim():
    """Import the simulator from ROOT/src; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from coexsim import cli, engine, scenario
    except ImportError as exc:
        raise SystemExit(f"error: cannot import coexsim from {src}: {exc}")
    origin = Path(scenario.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"error: coexsim imported from {origin}, not from {src}")
    return scenario, engine, cli


def import_reference():
    """Import the frozen reference copy of the simulator."""
    sys.path.insert(0, str(REFERENCE))
    from coexsim_ref import cli, engine, scenario
    return scenario, engine, cli


def scenario_file(workload: str, seed: int, pairs: int,
                  package: Path = ROOT / "src" / "coexsim") -> Path:
    """Path of the scenario YAML the workload loads; pairs_grid is generated,
    the same file for the program and the reference."""
    if WORKLOADS[workload] == "shipped":
        return package / "scenarios" / f"{workload}.yaml"
    WORK.mkdir(exist_ok=True)
    path = WORK / f"pairs_grid-p{pairs}-s{seed}.yaml"
    path.write_text(pairs_grid_yaml(seed, pairs), encoding="utf-8")
    return path


def peak_rss_mb(path: Path, seed: int, duration_us: int | None) -> float:
    """Peak resident memory of a fresh process running one operation.

    Linux carries the parent's peak RSS into the child's ``ru_maxrss`` across
    fork and exec, so this runs before the benchmark imports the simulator,
    while this process is smaller than the child will grow."""
    cmd = [sys.executable, str(BENCH / "rss_probe.py"), str(path), str(seed)]
    if duration_us is not None:
        cmd.append(str(duration_us))
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S)
    if out.returncode != 0:
        raise SystemExit(f"error: rss_probe.py failed: {out.stderr.strip()[-500:]}")
    rss = float(out.stdout.split()[-1])
    if not math.isfinite(rss) or rss <= 0:
        raise RuntimeError(f"bad peak RSS from probe: {out.stdout!r}")
    return rss


class Op:
    """One simulated run, timed by phase; modules are looked up per call so
    that wrappers installed by the tracer are seen.

    Set-up (load and construct) repeats until it has taken SETUP_MIN_S, and
    the operation's ``setup_s`` is the median of those repetitions: on the
    shipped scenarios one set-up is a few milliseconds. The last engine
    built is the one that runs, and ``wall_s`` spans its set-up, the run and
    the rendering. Phases are timed in the calling thread's CPU time, which
    for this single-threaded, CPU-bound work is its wall time less the time
    another thread held the GIL."""

    def __init__(self, modules, path: Path, seed: int, duration_us: int | None):
        self.scenario, self.engine, self.cli = modules
        self.path = str(path)
        self.seed = seed
        self.duration_us = duration_us

    def __call__(self, collect_trace: bool = False):
        clock = time.thread_time
        setups = []
        while True:
            t0 = clock()
            cfg = self.scenario.load_scenario(self.path)
            if self.duration_us is not None:
                cfg = replace(cfg, duration_us=self.duration_us)
            eng = self.engine.Engine(cfg, seed=self.seed, collect_trace=collect_trace)
            t1 = clock()
            setups.append(t1 - t0)
            if sum(setups) >= SETUP_MIN_S:
                break
        result = eng.run()
        t2 = clock()
        text = self.cli.render_run_json(result)
        t3 = clock()
        times = {"setup_s": statistics.median(setups), "run_s": t2 - t1,
                 "wall_s": t3 - t0}
        return times, result.trace_hash, text, eng


def invariant_errors(text: str) -> list[str]:
    """README invariants of one JSON report."""
    rep = json.loads(text)
    errs = []
    for lid, st in rep["links"].items():
        if st["delivered_bytes"] > st["offered_bytes"]:
            errs.append(f"link {lid}: delivered {st['delivered_bytes']} > "
                        f"offered {st['offered_bytes']}")
    for sys_id, st in rep["systems"].items():
        if not 0.0 <= st["share"] <= 1.0:
            errs.append(f"system {sys_id}: share {st['share']} outside [0, 1]")
    if not 0.0 <= rep["fairness_index"] <= 1.0:
        errs.append(f"fairness_index {rep['fairness_index']} outside [0, 1]")
    return errs


def trace_counts(lines: list[str]) -> dict:
    """Counts from a collected trace: events by kind (lines whose second field
    is a phase digit), the engine's notes by their first two words, and the
    decisions of the arbiter requests the engine made (``arb`` notes)."""
    kinds = Counter()
    notes = Counter()
    decisions = Counter()
    for line in lines:
        f = line.split("|")
        if f[1].isdigit():
            kinds[f[2]] += 1
        else:
            notes[f"{f[1]}.{f[2]}"] += 1
            if f[1] == "arb":
                decisions[f[-1]] += 1
    return {"lines": len(lines), "events": sum(kinds.values()), "kinds": kinds,
            "notes": notes, "decisions": decisions}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Runner:
    def __init__(self, args, path: Path):
        self.args = args
        self.modules = import_coexsim()
        self.op = Op(self.modules, path, args.seed, args.duration_us)
        self.ref_op = None
        self.attempted = 0
        self.failed = 0
        self.ref_hash = None
        self.ref_digest = None
        self.last_hash = None

    def reference(self) -> dict:
        """Untimed first operation: reference hash and digest, trace counts."""
        times, trace_hash, text, eng = self.op(collect_trace=True)
        self.attempted += 1
        errs = invariant_errors(text)
        for e in errs:
            print(f"FAIL reference run: {e}", file=sys.stderr)
        self.failed += bool(errs)
        self.ref_hash = trace_hash
        self.ref_digest = hashlib.sha256(text.encode()).hexdigest()
        counts = trace_counts(eng.trace)
        print(f"workload={self.args.workload} seed={self.args.seed} "
              f"trace_hash={trace_hash} report_sha256={self.ref_digest} "
              f"events={counts['events']} trace_lines={counts['lines']}")
        self.compare_reference(counts["events"])
        return counts

    def compare_reference(self, events: int) -> None:
        """Say whether the default-seed outputs equal those in BASELINE.json.
        A difference is reported, not failed: a change may alter them on purpose."""
        a = self.args
        if (a.seed, a.pairs, a.duration_us) != (DEFAULT_SEED, 100, None):
            return
        ref = json.loads(BASELINE.read_text(encoding="utf-8"))["reference"][a.workload]
        now = {"trace_hash": self.ref_hash, "report_sha256": self.ref_digest,
               "events": events}
        diff = [k for k in now if now[k] != ref[k]]
        print(f"# seed {DEFAULT_SEED} outputs vs BASELINE.json: "
              + (f"differ in {', '.join(diff)}" if diff else "identical"))

    def paired_op(self):
        """The operation and the reference's, at once in two threads; which
        thread starts first alternates. Returns both results."""
        out = {}
        start = threading.Barrier(2)

        def work(key, op):
            start.wait()
            try:
                out[key] = op()
            except Exception as exc:  # re-raised below, in the main thread
                out[key] = exc

        threads = [threading.Thread(target=work, args=pair)
                   for pair in (("own", self.op), ("ref", self.ref_op))]
        if self.attempted % 2:
            threads.reverse()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for key in ("own", "ref"):
            if isinstance(out[key], Exception):
                raise out[key]
        return out["own"], out["ref"]

    def timed_ops(self, seconds: float, before_op=None, after_op=None) -> list:
        """Repeat the operation for ``seconds``; at least one runs. With a
        reference operation set, each sample is a pair ``(times, ref_times)``."""
        samples = []
        deadline = time.perf_counter() + seconds
        while True:
            if before_op is not None:
                before_op()
            gc.collect()
            self.attempted += 1
            ref_times = None
            try:
                if self.ref_op is None:
                    times, trace_hash, text, _ = self.op()
                else:
                    (times, trace_hash, text, _), (ref_times, *_) = self.paired_op()
                self.last_hash = trace_hash
                errs = invariant_errors(text)
                if trace_hash != self.ref_hash:
                    errs.append(f"trace_hash {trace_hash} != reference {self.ref_hash}")
                digest = hashlib.sha256(text.encode()).hexdigest()
                if digest != self.ref_digest:
                    errs.append(f"report digest {digest} != reference {self.ref_digest}")
                if after_op is not None:
                    errs += after_op()
            except Exception as exc:  # a raising run is a failed operation
                errs = [f"{type(exc).__name__}: {exc}"]
            if errs:
                self.failed += 1
                for e in errs:
                    print(f"FAIL op {self.attempted}: {e}", file=sys.stderr)
            else:
                samples.append(times if ref_times is None else (times, ref_times))
            if time.perf_counter() >= deadline:
                return samples

    # ------------------------------------------------------------------ modes

    def end_to_end(self, rss: float) -> dict:
        counts = self.reference()
        ref_modules = import_reference()
        ref_path = scenario_file(self.args.workload, self.args.seed, self.args.pairs,
                                 REFERENCE / "coexsim_ref")
        self.ref_op = Op(ref_modules, ref_path, self.args.seed, self.args.duration_us)
        ref_events = trace_counts(self.ref_op(collect_trace=True)[3].trace)["events"]
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        pairs = self.timed_ops(self.args.seconds)
        if not pairs:
            return {}
        for times, ref in pairs:
            times["events_per_s"] = counts["events"] / times["run_s"]
            ref["events_per_s"] = ref_events / ref["run_s"]
        scale = REFERENCE_HOST[self.args.workload]
        metrics = {}
        for name, unit in E2E_UNITS.items():
            own = [t[name] for t, _ in pairs]
            ref = [r[name] for _, r in pairs]
            ratio = [t[name] / r[name] for t, r in pairs]
            q1, med, q3 = quartiles(ratio)
            print(f"{name}: ratio to reference median {med:.6g} q1 {q1:.6g} q3 {q3:.6g}  "
                  f"raw median {statistics.median(own):.6g} {unit}, reference's "
                  f"{statistics.median(ref):.6g} {unit}  n={len(pairs)}")
            metrics[name] = {"value": scale[name] * med, "unit": unit}
        print(f"peak_rss_mb: {rss:.6g} MB (fresh process, one operation)")
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        return metrics

    def per_layer(self) -> dict:
        counts = self.reference()
        untraced = self.timed_ops(self.args.seconds / 3)
        tracer = Tracer()
        per_op = []

        def fold() -> list[str]:
            agg = tracer.attribute()
            agg["active_lens"] = list(tracer.active_lens)
            agg["trains"] = tracer.trains
            per_op.append(agg)
            print(f"# span check: Engine.run span {agg['run_span_s']!r} s, "
                  f"buckets under it {agg['run_buckets_s']!r} s, spans {agg['spans']}")
            errs = []
            if agg["unattributed"]:
                errs.append(f"{agg['unattributed']} spans outside any bucket")
            if not math.isclose(agg["run_buckets_s"], agg["run_span_s"], rel_tol=1e-9):
                errs.append(f"run buckets {agg['run_buckets_s']!r} s != "
                            f"Engine.run span {agg['run_span_s']!r} s")
            return errs

        tracer.install()
        try:
            # spans are dropped before each operation, so the last one's remain
            traced = self.timed_ops(self.args.seconds - self.args.seconds / 3,
                                    before_op=tracer.clear, after_op=fold)
        finally:
            tracer.uninstall()
        print(f"# traced trace_hash={self.last_hash}")
        if not traced or not untraced:
            return {}
        WORK.mkdir(exist_ok=True)
        span_file = WORK / f"spans-{self.args.workload}.tsv.gz"
        tracer.write(span_file)
        print(f"# spans of the last traced operation: {span_file.relative_to(ROOT)}")
        return layer_metrics(counts, per_op, untraced, traced)


def layer_metrics(counts: dict, per_op: list[dict], untraced: list[dict],
                  traced: list[dict]) -> dict:
    """Per-layer metrics: medians over traced operations of bucket self times,
    call counts from the wrappers (an observed value: the lower median),
    event counts and arbiter decisions from the reference trace."""
    med, low = statistics.median, statistics.median_low
    kinds, notes = counts["kinds"], counts["notes"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def bucket_s(bucket):
        return med(op["times"][bucket] for op in per_op)

    def setup_bucket_s(bucket):
        """Per set-up: an operation sets up several times (see ``Op``)."""
        return med(op["times"][bucket] / op["calls"]["engine.Engine.__init__"]
                   for op in per_op)

    def calls(span):
        return low(op["calls"].get(span, 0) for op in per_op)

    put("scenario.load_scenario.s", setup_bucket_s("scenario.load_scenario"), "s")
    put("engine.init.s", setup_bucket_s("engine.init"), "s")
    put("engine.run.self_s", bucket_s("engine.run"), "s")
    put("engine.trace_lines", counts["lines"], "count")
    put("engine.events", counts["events"], "count")
    for kind in ("access", "txend", "boundary", "burst", "cts", "reserve", "retry",
                 "arrival"):
        put(f"engine.events.{kind}", kinds.get(kind, 0), "count")
    access = kinds.get("access", 0)
    put("engine.access_useful_ratio",
        notes.get("air.data", 0) / access if access else 0.0, "ratio")
    put("medium.delivery_result.calls", calls("medium.delivery_result"), "count")
    put("medium.delivery_result.s", bucket_s("medium.delivery_result"), "s")
    put("medium.delivery_result.active_mean",
        med(statistics.fmean(op["active_lens"]) if op["active_lens"] else 0.0
            for op in per_op), "count")
    put("medium.link_loss_db.calls", calls("medium.MediumModel.link_loss_db"), "count")
    put("medium.link_loss_db.s", bucket_s("medium.link_loss_db"), "s")
    for fn in ("on_medium_busy", "arm_attempt"):
        put(f"wifi.{fn}.calls", calls(f"wifi.WifiStation.{fn}"), "count")
        put(f"wifi.{fn}.s", bucket_s(f"wifi.{fn}"), "s")
    for fn in ("on_overheard", "on_tx_outcome"):
        put(f"wifi.{fn}.calls", calls(f"wifi.WifiStation.{fn}"), "count")
    put("wimax.build_frame_map.calls", calls("wimax.build_frame_map"), "count")
    put("wimax.build_frame_map.s", bucket_s("wimax.build_frame_map"), "s")
    for fn in ("build_cts_train", "estimate_interferers"):
        put(f"reservation.{fn}.calls", calls(f"reservation.{fn}"), "count")
        put(f"reservation.{fn}.s", bucket_s(f"reservation.{fn}"), "s")
    for fn in ("update_pacing", "evaluate_performance", "reservation_power"):
        put(f"reservation.{fn}.calls", calls(f"reservation.{fn}"), "count")
    # a reserve event that sends no train: skipped, or its train was denied
    reserve = kinds.get("reserve", 0)
    sent = low(op["trains"] for op in per_op) - notes.get("deny.reserve", 0)
    put("reservation.skip_ratio", 1.0 - sent / reserve if reserve else 0.0, "ratio")
    requests = sum(counts["decisions"].values())
    put("arbiter.request.calls", requests, "count")
    put("arbiter.request.s", bucket_s("arbiter.request"), "s")
    put("arbiter.deny_ratio", counts["decisions"]["deny"] / requests if requests else 0.0,
        "ratio")
    put("cli.render_run_json.s", bucket_s("cli.render_run_json"), "s")
    for bucket in OTHER_BUCKETS:
        put(f"{bucket}.s", bucket_s(bucket), "s")
    run_untraced = med(s["run_s"] for s in untraced)
    run_traced = med(s["run_s"] for s in traced)
    put("trace.overhead_s", run_traced - run_untraced, "s")
    print(f"# run_s untraced median {run_untraced!r} s (n={len(untraced)}), "
          f"traced median {run_traced!r} s (n={len(traced)})")
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description="coexsim host-cost benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pairs", type=int, default=100,
                   help="pairs_grid only: number of WiFi pairs (sweeps by hand)")
    p.add_argument("--duration-us", type=int, default=None,
                   help="virtual run length override, as coexsim run --duration-us")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    path = scenario_file(args.workload, args.seed, args.pairs)
    rss = None if args.trace else peak_rss_mb(path, args.seed, args.duration_us)
    runner = Runner(args, path)
    metrics = runner.per_layer() if args.trace else runner.end_to_end(rss)
    correct = runner.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
