"""The benchmark's span tracer (``bench/tracer.py``) names functions of the
package in ``BUCKETS``; if a refactor drops or moves one, ``bench/run.py
--trace 1`` stops with "traced names not found".  These checks catch that in
the unit suite, without running the benchmark."""

import importlib
import importlib.util
import inspect
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def traced_names() -> set[str]:
    """The span names the tracer wraps, found by its own rule."""
    found = set()
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        found.update(span for span, *_ in tracer._public_callables(module))
    return found


def test_every_bucketed_name_is_traced():
    """Each ``BUCKETS`` name is one the tracer finds and wraps, by its own rule."""
    assert sorted(set(tracer.BUCKETS) - traced_names()) == []


def test_every_counted_function_is_traced():
    """Each ``<layer>.<fn>.calls`` metric of the benchmark names a function
    the tracer wraps, as ``<layer>.<fn>`` or a method ``<layer>.<Class>.<fn>``;
    a renamed one would silently report 0 calls."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    counted = [m["name"].rsplit(".", 1)[0] for m in metrics if m["name"].endswith(".calls")]
    traced = {(span.split(".")[0], span.split(".")[-1]) for span in traced_names()}
    assert counted
    assert [c for c in counted if tuple(c.split(".")) not in traced] == []


def test_delivery_hook_reads_the_overlapper_list():
    """The tracer's delivery hook takes the overlapper list from the second
    positional argument, or from the keyword ``active``."""
    from coexsim.medium import delivery_result
    assert list(inspect.signature(delivery_result).parameters)[1] == "active"
