"""Span recorder that wraps the public functions of the gaussgreen modules.

The recorder replaces every public function bound in a module namespace
(``gaussgreen.criteria.invert``, ``gaussgreen.simulate.spectral_radius``,
...) by a wrapper that records one span per call.  Each original function
gets a single wrapper shared by all of its bindings, and the span is named
after the module that defines the function, so a call made through any
binding is attributed to the same layer function.  Nothing in the package
itself changes; :meth:`Recorder.uninstall` puts every original binding back.

Spans stay in memory as lists ``(name, start, end, parent, op, exc,
iterations)`` and are written out only when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time

LAYERS = ("cli", "criteria", "decomposition", "linalg", "simulate", "kernels")

NAME, START, END, PARENT, OP, EXC, ITER = range(7)


class Recorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self._bindings: list[tuple[object, str, object]] = []

    def span(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        rec = [name, self.clock(), None, parent, self.op, None, None]
        idx = len(self.spans)
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            rec[EXC] = type(err).__name__
            rec[ITER] = getattr(err, "iterations", None)
            raise
        finally:
            rec[END] = self.clock()
            self.stack.pop()
        rec[ITER] = getattr(result, "iterations", None)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs)

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    def install(self, modules) -> int:
        """Wrap every public gaussgreen function bound in ``modules``.

        Returns the number of bindings replaced.
        """
        if self._bindings:
            raise RuntimeError("wrappers are already installed")
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("gaussgreen."):
                    continue
                key = id(fn)
                if key not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[key] = self.wrap(f"{layer}.{fn.__name__}", fn)
                self._bindings.append((module, attr, fn))
                setattr(module, attr, wrappers[key])
        return len(self._bindings)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._bindings):
            setattr(module, attr, fn)
        self._bindings = []

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def wrapped_bindings(modules) -> list[str]:
    """Names of module bindings that still hold a benchmark wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in modules
        for attr, fn in vars(module).items()
        if getattr(fn, "__wrapped_by_bench__", False)
    ]


def self_times(spans) -> list[float]:
    """Per-span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - child[k] for k, rec in enumerate(spans)]


def layer_metric(name, spans, selfs, ops, setup_op, overhead_ratio):
    """Value of one per-layer metric named ``<layer>.<function>.<stat>``.

    ``ops`` is the set of op ids of the traced measurement rounds; stats
    other than ``setup_ms`` are taken over spans of those ops and, where
    they are rates, divided by their number.
    """
    if name == "trace.overhead_ratio":
        return overhead_ratio
    layer, fn, stat = name.split(".")
    fname = f"{layer}.{fn}"
    if stat == "setup_ms":
        return 1e3 * sum(
            s for rec, s in zip(spans, selfs) if rec[NAME] == fname and rec[OP] == setup_op
        )
    picked = [k for k, rec in enumerate(spans) if rec[NAME] == fname and rec[OP] in ops]
    n_ops = max(1, len(ops))
    if stat == "calls_per_op":
        return len(picked) / n_ops
    if stat == "self_ms":
        return 1e3 * sum(selfs[k] for k in picked) / n_ops
    if stat == "total_ms":
        return 1e3 * sum(spans[k][END] - spans[k][START] for k in picked) / n_ops
    if stat == "noconv_ratio":
        raised = sum(spans[k][EXC] == "NoConvergenceError" for k in picked)
        return raised / len(picked) if picked else 0.0
    if stat == "iterations_p50":
        its = [spans[k][ITER] for k in picked if spans[k][ITER] is not None]
        return float(statistics.median(its)) if its else 0.0
    raise ValueError(f"unknown per-layer statistic {stat!r} in {name!r}")
