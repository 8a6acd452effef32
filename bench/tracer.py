"""Span tracing of coexsim's layers, installed from outside the package.

``Tracer.install`` wraps every public function and every public method of
the public classes in the layer modules, and re-points every module
attribute in the package that names one of those functions, so names that
``engine.py`` imported directly (``delivery_result``, ``build_frame_map``,
``build_cts_train`` ...) are traced as well. ``Engine.__init__`` is wrapped
too, for the set-up cost. Properties, enums and exceptions are left alone.

Every wrapper counts its calls. Only some calls open a span (name, start,
end, bucket and the index of the span that was open when it began):

* a function named in ``BUCKETS`` always does, and fills its own bucket;
* a non-engine function called straight from the engine's own code (the
  ``engine.run`` bucket) does, and fills ``<layer>.other``;
* any other call runs inside the open bucket, which it leaves unchanged,
  so its wrapper only counts it and calls straight through, with no clock.

A bucket holds self time: a span's duration minus its children's. The
buckets under ``Engine.run`` therefore add up to the ``Engine.run`` span.
Spans stay in memory (flat arrays) until ``attribute`` folds them into
buckets and ``clear`` drops them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from enum import Enum

PACKAGE = "coexsim"
LAYERS = ("scenario", "engine", "medium", "wifi", "wimax", "reservation",
          "arbiter", "cli")

RUN_SPAN = "engine.Engine.run"

# span name -> bucket (metric prefix)
BUCKETS = {
    "scenario.load_scenario": "scenario.load_scenario",
    "engine.Engine.__init__": "engine.init",
    RUN_SPAN: "engine.run",
    "medium.delivery_result": "medium.delivery_result",
    "medium.MediumModel.link_loss_db": "medium.link_loss_db",
    "wifi.WifiStation.on_medium_busy": "wifi.on_medium_busy",
    "wifi.WifiStation.arm_attempt": "wifi.arm_attempt",
    "wimax.build_frame_map": "wimax.build_frame_map",
    "reservation.build_cts_train": "reservation.build_cts_train",
    "reservation.estimate_interferers": "reservation.estimate_interferers",
    "arbiter.RadioArbiter.request": "arbiter.request",
    "cli.render_run_json": "cli.render_run_json",
}
OTHER_BUCKETS = tuple(f"{m}.other" for m in LAYERS if m not in ("engine", "cli"))
# buckets outside Engine.run: set-up and report rendering
OUTER_BUCKETS = ("scenario.load_scenario", "engine.init", "cli.render_run_json")

BUCKET_NAMES = tuple(BUCKETS.values()) + OTHER_BUCKETS
RUN = BUCKET_NAMES.index(BUCKETS[RUN_SPAN])
OUTSIDE = -1    # no bucket open: a span there is unattributed


def _public_callables(module):
    """(qualified span name, owner, attribute, function) for one layer module."""
    short = module.__name__.rsplit(".", 1)[1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", module, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
            for attr, val in sorted(vars(obj).items()):
                public = not attr.startswith("_") or (name, attr) == ("Engine", "__init__")
                if public and inspect.isfunction(val):
                    yield f"{short}.{name}.{attr}", obj, attr, val


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []      # per wrapped name, since the last clear
        self.span_name = array("i")
        self.span_bucket = array("i")   # index into BUCKET_NAMES, or OUTSIDE
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]              # open spans
        self._state = [OUTSIDE]         # bucket of each open span
        self._patched: list[tuple[object, str, object]] = []
        self.active_lens = array("i")   # len(active) per delivery_result call
        self.trains = 0                 # build_cts_train calls that returned chunks

    # ---------------------------------------------------------------- wrappers

    def _wrap(self, span: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(span)
        self.calls.append(0)
        layer = span.split(".", 1)[0]
        own = BUCKETS.get(span)
        own = BUCKET_NAMES.index(own) if own is not None else None
        # bucket of a span opened from engine code; engine and cli open none
        other = f"{layer}.other"
        other = BUCKET_NAMES.index(other) if other in BUCKET_NAMES else None
        calls, names, buckets = self.calls, self.span_name, self.span_bucket
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        stack, state = self._stack, self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            b = own
            if b is None:
                b = state[-1]
                if b == RUN and other is not None:
                    b = other
                elif b != OUTSIDE:
                    return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            buckets.append(b)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            state.append(b)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                state.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _hook_delivery(self, args, kwargs, result):
        self.active_lens.append(len(args[1] if len(args) > 1 else kwargs["active"]))

    def _hook_train(self, args, kwargs, result):
        if result:
            self.trains += 1

    def install(self) -> None:
        hooks = {"medium.delivery_result": self._hook_delivery,
                 "reservation.build_cts_train": self._hook_train}
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        wrapped: dict[int, object] = {}
        for module in modules:
            for span, owner, attr, fn in _public_callables(module):
                w = self._wrap(span, fn, hooks.get(span))
                wrapped[id(fn)] = w
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, w)
        missing = set(BUCKETS) - set(self.names)
        if missing:
            self.uninstall()
            raise LookupError(f"traced names not found: {sorted(missing)}")
        # names other modules imported with ``from .x import name``
        for module in [importlib.import_module(PACKAGE)] + modules:
            for attr, val in list(vars(module).items()):
                w = wrapped.get(id(val))
                if w is not None:
                    self._patched.append((module, attr, val))
                    setattr(module, attr, w)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # ---------------------------------------------------------------- spans

    def clear(self) -> None:
        for arr in (self.span_name, self.span_bucket, self.span_parent,
                    self.span_start, self.span_end, self.active_lens):
            del arr[:]
        self.calls[:] = [0] * len(self.calls)
        self.trains = 0

    def attribute(self) -> dict:
        """Fold the recorded spans into buckets; returns times, counts and checks."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        n = len(starts)
        dur = [ends[i] - starts[i] for i in range(n)]
        self_t = dur[:]
        for i in range(n):
            p = parents[i]
            if p >= 0:
                self_t[p] -= dur[i]
        totals = [0.0] * len(BUCKET_NAMES)
        unattributed = 0
        for b, t in zip(self.span_bucket, self_t):
            if b == OUTSIDE:
                unattributed += 1
            else:
                totals[b] += t
        times = dict(zip(BUCKET_NAMES, totals))
        run_nid = self.names.index(RUN_SPAN)
        run_total = sum(d for nid, d in zip(self.span_name, dur) if nid == run_nid)
        run_buckets = sum(t for b, t in times.items() if b not in OUTER_BUCKETS)
        return {
            "times": times,
            "calls": dict(zip(self.names, self.calls)),
            "run_span_s": run_total,
            "run_buckets_s": run_buckets,
            "unattributed": unattributed,
            "spans": n,
        }

    def write(self, path) -> None:
        """Write the recorded spans as gzipped TSV: index, name, bucket, start,
        end, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tbucket\tstart_s\tend_s\tparent\n")
            names = self.names
            rows = zip(self.span_name, self.span_bucket, self.span_start,
                       self.span_end, self.span_parent)
            for i, (nid, b, s, e, p) in enumerate(rows):
                bucket = BUCKET_NAMES[b] if b != OUTSIDE else "-"
                fh.write(f"{i}\t{names[nid]}\t{bucket}\t{s!r}\t{e!r}\t{p}\n")
