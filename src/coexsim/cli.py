"""Command-line front end: run scenarios, compare mechanism on/off, emit reports.

Exit codes: 0 success, 1 usage, 2 scenario validation, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from typing import Callable, Optional

from .engine import Engine, LinkStats, RunResult, run
from .scenario import ScenarioConfig, ScenarioError, load_scenario, toggled

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_LINK_COLUMNS = ["link", "offered_bytes", "delivered_bytes", "corrupted_frames",
                 "retransmissions", "dropped_frames", "airtime_us", "airtime_share",
                 "throughput_bytes_per_s", "mean_delay_us"]
# the per-link counters the TOTAL row sums; its share and throughput derive from them
_SUMMED_COLUMNS = _LINK_COLUMNS[1:_LINK_COLUMNS.index("airtime_share")]
_SUMMARY_COLUMNS = ["fairness_index", "colocated_conflict_us", "cts_count",
                    "cts_airtime_us", "trace_hash"]


def render_run_json(result: RunResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"


def render_run_csv(result: RunResult) -> str:
    d = result.to_dict()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_LINK_COLUMNS + _SUMMARY_COLUMNS)
    totals = dict.fromkeys(_SUMMED_COLUMNS, 0)
    for lid, st in d["links"].items():
        writer.writerow([lid] + [st[k] for k in _LINK_COLUMNS[1:]]
                        + [""] * len(_SUMMARY_COLUMNS))
        for k in _SUMMED_COLUMNS:
            totals[k] += st[k]
    total = LinkStats(**totals).to_dict(result.measure_us)
    writer.writerow(["TOTAL", *(total[k] for k in _LINK_COLUMNS[1:-1]), "",
                     *(d[k] for k in _SUMMARY_COLUMNS)])
    return buf.getvalue()


def extract_metrics(result: RunResult, cfg: ScenarioConfig) -> dict:
    wimax_nodes = {n.id for n in cfg.nodes if n.kind.startswith("wimax")}
    wimax_delivered = 0
    wimax_corrupted = 0
    total_delivered = 0
    for lid, st in result.links.items():
        src, dst = lid.split("->", 1)
        total_delivered += st.delivered_bytes
        if src in wimax_nodes or dst in wimax_nodes:
            wimax_delivered += st.delivered_bytes
            wimax_corrupted += st.corrupted_frames
    return {
        "total_delivered_bytes": total_delivered,
        "wimax_delivered_bytes": wimax_delivered,
        "wimax_throughput_bytes_per_s": wimax_delivered * 1e6 / result.measure_us,
        "wimax_corrupted_frames": wimax_corrupted,
        "fairness_index": result.fairness_index,
        "colocated_conflict_us": result.colocated_conflict_us,
        "cts_count": result.cts_count,
        "cts_airtime_us": result.cts_airtime_us,
    }


def compare_report(cfg: ScenarioConfig, mechanism: str, seeds: list[int]) -> dict:
    """The metrics of ``extract_metrics`` per seed with the mechanism off and
    on, and their means over the seeds, in that function's key order."""
    per_seed = []
    for seed in seeds:
        row = {"seed": seed}
        for arm, enabled in (("off", False), ("on", True)):
            row[arm] = extract_metrics(run(toggled(cfg, mechanism, enabled), seed=seed), cfg)
        per_seed.append(row)
    n = len(seeds)
    metrics = {}
    for m in per_seed[0]["off"]:
        off_mean = sum((row["off"][m] for row in per_seed), 0.0) / n
        on_mean = sum((row["on"][m] for row in per_seed), 0.0) / n
        metrics[m] = {"off_mean": off_mean, "on_mean": on_mean, "delta": on_mean - off_mean}
    return {"toggle": mechanism, "seeds": seeds, "metrics": metrics, "per_seed": per_seed}


def render_compare_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_compare_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "off_mean", "on_mean", "delta"])
    for m, row in report["metrics"].items():
        writer.writerow([m, row["off_mean"], row["on_mean"], row["delta"]])
    return buf.getvalue()


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _execute(scenario_path: str, work: Callable[[ScenarioConfig], None],
             duration_us: Optional[int] = None) -> int:
    """Load the scenario, apply a duration override, and run ``work`` on it.

    An unreadable or invalid scenario exits 2.  Any exception out of the
    engine or the rendering exits 3 with a one-line message, since the
    command line promises exit codes, not tracebacks.
    """
    try:
        cfg = load_scenario(scenario_path)
    except (OSError, UnicodeDecodeError) as exc:  # missing, or not UTF-8 text
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ScenarioError as exc:
        for e in exc.errors:
            print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    if duration_us is not None:
        try:
            cfg = replace(cfg, duration_us=duration_us)
        except ValueError as exc:  # the config checks its window
            print(f"error: --duration-us: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        work(cfg)
    except Exception as exc:  # the command-line boundary: one line, never a traceback
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def run_command(scenario_path: str, seed: Optional[int] = None,
                duration_us: Optional[int] = None, out: Optional[str] = None,
                fmt: str = "json", trace_path: Optional[str] = None) -> int:
    def work(cfg: ScenarioConfig) -> None:
        engine = Engine(cfg, seed=seed, collect_trace=trace_path is not None)
        result = engine.run()
        text = render_run_json(result) if fmt == "json" else render_run_csv(result)
        _emit(text, out)
        if trace_path is not None:
            with open(trace_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(engine.trace) + "\n")

    return _execute(scenario_path, work, duration_us)


def compare_command(scenario_path: str, mechanism: str, seeds: list[int],
                    out: Optional[str] = None, fmt: str = "json") -> int:
    def work(cfg: ScenarioConfig) -> None:
        report = compare_report(cfg, mechanism, seeds)
        text = render_compare_json(report) if fmt == "json" else render_compare_csv(report)
        _emit(text, out)

    return _execute(scenario_path, work)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _seed_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coexsim",
                     description="WiMAX/WiFi coexistence simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write a report")
    p_run.add_argument("scenario", help="scenario YAML file")
    p_run.add_argument("--seed", type=int, default=None, help="PRNG seed override")
    p_run.add_argument("--duration-us", type=int, default=None,
                       help="virtual run length override")
    p_run.add_argument("--out", default=None, help="report path (default stdout)")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--trace", default=None, help="write the event trace here")

    p_cmp = sub.add_parser("compare", help="run with a mechanism off and on")
    p_cmp.add_argument("scenario", help="scenario YAML file")
    p_cmp.add_argument("--toggle", choices=("reservation", "arbiter"), required=True)
    p_cmp.add_argument("--seeds", type=_seed_list, default=[1],
                       help="comma-separated seed list")
    p_cmp.add_argument("--out", default=None, help="report path (default stdout)")
    p_cmp.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command == "run":
        return run_command(args.scenario, seed=args.seed, duration_us=args.duration_us,
                           out=args.out, fmt=args.format, trace_path=args.trace)
    if args.command == "compare":
        if not args.seeds:
            print("error: empty seed list", file=sys.stderr)
            return EXIT_USAGE
        return compare_command(args.scenario, args.toggle, args.seeds,
                               out=args.out, fmt=args.format)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
