#!/usr/bin/env python3
"""Self-test of the benchmark at a short duration.

    python3 bench/selftest.py

For every workload it runs ``run.py`` untraced and traced for one second on
a shortened virtual run and checks that:

* every metric named in BENCHMARK.json is emitted, with its unit, and the
  run is correct with no failed operation;
* the traced run's trace hash equals the untraced one (each traced operation
  is also checked against it inside ``run.py``);
* in every traced operation the per-layer self times under ``Engine.run``
  add up to the ``Engine.run`` span.

It also checks that the pairs_grid generator is deterministic, and that
``run.py`` fails without printing a result in a directory holding only
BENCHMARK.json and the benchmark's files. Exit code 0 when all pass.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SHORT = ["--seconds", "1", "--duration-us", "1200000", "--pairs", "16"]
TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))
from pairs_grid import pairs_grid_yaml  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--trace", str(trace)] + SHORT
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_workload(workload: str, spec: dict) -> list[str]:
    errs = []
    hashes = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(workload, trace)
        tag = f"{workload} --trace {trace}"
        if proc.returncode != 0:
            return [f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errs.append(f"{tag}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            errs.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = result["metrics"]
        if set(got) != set(want):
            errs.append(f"{tag}: missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
        for name, unit in want.items():
            entry = got.get(name)
            if entry is None:
                continue
            if entry.get("unit") != unit:
                errs.append(f"{tag}: {name} unit {entry.get('unit')!r} != {unit!r}")
            if not (isinstance(entry.get("value"), (int, float))
                    and math.isfinite(entry["value"])):
                errs.append(f"{tag}: {name} value {entry.get('value')!r}")
        found = re.search(r"^workload=.* trace_hash=(\w+)", proc.stdout, re.M)
        hashes[trace] = found and found.group(1)
        if trace == 1:
            found = re.search(r"traced trace_hash=(\w+)", proc.stdout)
            hashes["traced"] = found and found.group(1)
            checks = re.findall(r"Engine\.run span (\S+) s, buckets under it (\S+) s",
                                proc.stdout)
            if not checks:
                errs.append(f"{tag}: no span check printed")
            for span, buckets in checks:
                if not math.isclose(float(span), float(buckets), rel_tol=1e-9):
                    errs.append(f"{tag}: buckets {buckets} s != Engine.run span {span} s")
    if not hashes.get(0) or len({hashes.get(0), hashes.get(1), hashes.get("traced")}) != 1:
        errs.append(f"{workload}: trace hashes differ: {hashes}")
    return errs


def check_generator() -> list[str]:
    a, b = pairs_grid_yaml(7, 40), pairs_grid_yaml(7, 40)
    other = pairs_grid_yaml(8, 40)
    errs = []
    if a != b:
        errs.append("pairs_grid: same seed gave different YAML")
    diff = [(x, y) for x, y in zip(a.splitlines(), other.splitlines()) if x != y]
    if diff != [("seed: 7", "seed: 8")]:
        errs.append(f"pairs_grid: seeds 7 and 8 differ in {diff[:3]}")
    return errs


def check_bare_directory() -> list[str]:
    """run.py must fail, printing no result, where the simulator is absent."""
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("conference_room", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = check_generator() + check_bare_directory()
    for w in spec["workloads"]:
        errs = check_workload(w["name"], spec)
        print(f"{'FAIL' if errs else 'PASS'} {w['name']}", flush=True)
        failures += errs
    for f in failures:
        print(f"  {f}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
