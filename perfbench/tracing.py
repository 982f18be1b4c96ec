"""In-memory spans and counters around the calls into each puomm layer.

The tracer wraps public functions of the package from outside: every
module attribute in ``puomm.*`` that is bound to a wrapped function is
replaced by a recording wrapper while the tracer is installed, and
restored when it is removed.  Nothing under ``src/`` is changed.

A span is (name, start, end, parent, op).  The objective closures that
``make_objective`` returns are called tens of thousands of times per
fit, so they get no span each; their count and time are added to the
enclosing span instead (``objective_calls`` / ``objective_s``), which is
what the self-time arithmetic needs.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs whose calls open a span; the span name is
# "<layer>.<function>" where the layer is the module's short name.
WRAPPED = (
    ("simulate", "make_datasets"),
    ("dataio", "write_dataset_csv"),
    ("dataio", "ingest_csv"),
    ("dataio", "write_sim_meta"),
    ("dataio", "read_sim_meta"),
    ("dataio", "write_model_json"),
    ("dataio", "read_model_json"),
    ("dataio", "write_metrics_csv"),
    ("baselines", "fit_oracle"),
    ("baselines", "fit_observed_mixture"),
    ("selection", "fit_pu_omm"),
    ("selection", "fit_at_lambda"),
    ("optimizer", "fit"),
    ("metrics", "evaluate_trial"),
    ("experiment", "run_experiment"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s", "objective_calls", "objective_s")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.objective_calls = 0
        self.objective_s = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s


class Tracer:
    """Records spans and counters for one benchmark process."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter() - self.t0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter() - self.t0
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened from the benchmark's own code."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def count(self, key: str, value: float = 1) -> None:
        self.counters[self.op][key] += value

    def count_max(self, key: str, value: float) -> None:
        ops = self.counters[self.op]
        ops[key] = max(ops.get(key, 0), value)

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        post = _POST.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer._open(f"{layer}.{name}")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post is not None:
                post(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_make_objective(self, fn):
        tracer = self

        def timed(kind, f, passes, nbytes):
            def call(w):
                t = time.perf_counter()
                try:
                    return f(w)
                finally:
                    dt = time.perf_counter() - t
                    tracer.count(f"model.{kind}.calls")
                    tracer.count("model.objective.s", dt)
                    tracer.count("model.objective.gb_computed", passes * nbytes / 1e9)
                    if tracer._stack:
                        parent = tracer.spans[tracer._stack[-1]]
                        parent.child_s += dt
                        parent.objective_calls += 1
                        parent.objective_s += dt

            return call

        def make_objective(data, d):
            loss, loss_and_grad = fn(data, d)
            nbytes = data.x.nbytes
            # a loss call reads X twice (two matvecs); loss+grad adds two transposed products
            return timed("loss", loss, 2, nbytes), timed("loss_grad", loss_and_grad, 4, nbytes)

        make_objective.__wrapped__ = fn
        return make_objective

    def _replace_everywhere(self, orig, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "puomm" or mod_name.startswith("puomm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for layer, name in WRAPPED:
            orig = getattr(sys.modules[f"puomm.{layer}"], name)
            self._replace_everywhere(orig, self._wrap(layer, name, orig))
        orig = sys.modules["puomm.model"].make_objective
        self._replace_everywhere(orig, self._wrap_make_objective(orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- per-op summary -------------------------------------------------------
    def op_summary(self, op: int) -> dict[str, float]:
        """Counters, self time per layer and inclusive time per function, for one op."""
        out: dict[str, float] = defaultdict(float, self.counters[op])
        for span in self.spans:
            if span.op != op:
                continue
            out[f"{span.layer}.self_s"] += span.self_s
            out[f"{span.name}.s"] += span.end - span.start
        return dict(out)

    def dump(self, path) -> None:
        """Write every span and the final counters as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                rec = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "op": span.op,
                    "self_s": span.self_s,
                }
                if span.objective_calls:
                    rec["objective_calls"] = span.objective_calls
                    rec["objective_s"] = span.objective_s
                fh.write(json.dumps(rec) + "\n")
            for op, counters in sorted(self.counters.items()):
                fh.write(json.dumps({"op": op, "counters": dict(counters)}) + "\n")


def _post_fit(tracer, args, kwargs, res):
    tracer.count("optimizer.fit.calls")
    tracer.count("optimizer.fit.iterations", res.iterations)
    tracer.count("optimizer.fit.not_converged", 0 if res.converged else 1)
    tracer.count_max("selection.iters_per_point.max", res.iterations)


def _post_selection(tracer, args, kwargs, model):
    scores = [s for _, s in model.selection_scores]
    tracer.count("selection.grid_points", len(scores))
    tracer.count("selection.grid_failed", sum(1 for s in scores if not np.isfinite(s)))


def _post_write(tracer, args, kwargs, out):
    path = kwargs["path"] if "path" in kwargs else args[-1]
    tracer.count("dataio.write.mb", os.path.getsize(path) / 1e6)


def _post_write_dataset(tracer, args, kwargs, out):
    ds = kwargs["ds"] if "ds" in kwargs else args[0]
    tracer.count("dataio.write_dataset_csv.rows", ds.n)
    _post_write(tracer, args, kwargs, out)


def _post_read(tracer, args, kwargs, out):
    path = kwargs["path"] if "path" in kwargs else args[0]
    tracer.count("dataio.read.mb", os.path.getsize(path) / 1e6)


def _post_ingest(tracer, args, kwargs, ds):
    tracer.count("dataio.ingest_csv.rows", ds.n)
    _post_read(tracer, args, kwargs, ds)


_POST = {
    "fit": _post_fit,
    "fit_pu_omm": _post_selection,
    "fit_at_lambda": _post_selection,
    "write_dataset_csv": _post_write_dataset,
    "write_sim_meta": _post_write,
    "write_model_json": _post_write,
    "write_metrics_csv": _post_write,
    "ingest_csv": _post_ingest,
    "read_sim_meta": _post_read,
    "read_model_json": _post_read,
}
