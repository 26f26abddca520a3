"""In-memory span tracer that wraps qwalk's public functions from outside.

Each traced function is replaced, at every module attribute that holds it
(the defining module, the modules that imported it by name, and the
package namespace), by a wrapper that records a span: name, start, end,
parent span and a few attributes.  Nothing inside qwalk is edited; the
originals are put back by `Tracer.uninstall`.

Generator functions (`enumerate_biregular`, `scan_periodicity`) get one
span per `next()`, so the time inside the generator body is separated
from the time the consumer spends between items.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


# Attribute hooks get (result, args); result is None when the call raised.


def _walk_dim(result, _args) -> dict:
    return {} if result is None else {"dim": result.dim}


def _char_poly_dim(_result, args) -> dict:
    return {"dim": len(args[0])}


def _coef_bits(_result, args) -> dict:
    return {"coef_bits": max(abs(c).bit_length() for c in args[0].coeffs)}


def _spectral_status(result, _args) -> dict:
    return {} if result is None else {"inconclusive": int(result.status == "inconclusive")}


# (module, function, span group, attribute hook or None, is_generator)
TARGETS: tuple[tuple[str, str, str, Optional[Callable], bool], ...] = (
    ("qwalk.cli", "main", "cli.main", None, False),
    ("qwalk.cli", "analysis_report", "cli.report", None, False),
    ("qwalk.cli", "verdict_to_dict", "cli.report", None, False),
    ("qwalk.graphs", "parse_graph", "graphs.parse", None, False),
    ("qwalk.graphs", "subdivision", "graphs.transform", None, False),
    ("qwalk.graphs", "bipartite_double_cover", "graphs.transform", None, False),
    ("qwalk.walks", "build_bipartite_walk", "walks.build", _walk_dim, False),
    ("qwalk.walks", "build_grover_walk", "walks.build", _walk_dim, False),
    ("qwalk.walks", "walk_to_json", "walks.serialize", None, False),
    ("qwalk.walks", "grover_to_json", "walks.serialize", None, False),
    ("qwalk.walks", "grover_equals_bipartite_on_subdivision", "walks.verify", None, False),
    ("qwalk.walks", "block_identity_check", "walks.verify", None, False),
    ("qwalk.exact", "mat_mul", "exact.mat_mul", None, False),
    ("qwalk.exact", "mat_pow", "exact.mat_pow", None, False),
    ("qwalk.exact", "char_poly", "exact.char_poly", _char_poly_dim, False),
    ("qwalk.exact", "roots_degree_le2", "exact.roots", _coef_bits, False),
    ("qwalk.exact", "rational_rank", "exact.rank", None, False),
    ("qwalk.periodicity", "decide_periodicity", "periodicity.decide", None, False),
    ("qwalk.periodicity", "exact_period_oracle", "periodicity.oracle", None, False),
    ("qwalk.periodicity", "trace_test", "periodicity.trace", None, False),
    ("qwalk.periodicity", "spectral_test_biregular", "periodicity.spectral", _spectral_status, False),
    ("qwalk.periodicity", "grover_regular_test", "periodicity.spectral", _spectral_status, False),
    ("qwalk.periodicity", "period_from_phases", "periodicity.phases", None, False),
    ("qwalk.periodicity", "state_periodicity", "periodicity.state", None, False),
    ("qwalk.spectral", "eigenvalue_support", "spectral.support", None, False),
    ("qwalk.spectral", "pm1_eigenspace_dims", "spectral.pm1_dims", None, False),
    ("qwalk.scan", "enumerate_biregular", "scan.enumerate", None, True),
    ("qwalk.scan", "scan_periodicity", "scan.scan", None, True),
)

# Groups whose time is reported, inclusive and self.  `scan.decide` is
# derived: decide_periodicity spans that run under a scan_periodicity span.
TIME_GROUPS = (
    "cli.main", "cli.report", "graphs.parse", "graphs.transform",
    "walks.build", "walks.serialize", "walks.verify",
    "exact.mat_mul", "exact.mat_pow", "exact.char_poly", "exact.roots", "exact.rank",
    "periodicity.decide", "periodicity.oracle", "periodicity.trace",
    "periodicity.spectral", "periodicity.phases", "periodicity.state",
    "spectral.support", "spectral.pm1_dims", "scan.enumerate", "scan.decide",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; see module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod_name, fn_name, group, hook, is_gen in TARGETS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            wrapper = (self._wrap_gen if is_gen else self._wrap)(original, group, hook)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "qwalk" and not name.startswith("qwalk."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- span recording ----------------------------------------------------

    def _open(self, group: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), group, time.perf_counter(), parent=parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, group, hook):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(group)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
                if hook is not None:
                    span.attrs.update(hook(result, args))

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, fn, group, _hook):
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = tracer._open(group)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                span.attrs["items"] = 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, **s.attrs}) + "\n")


def layer_metrics(spans: list[Span], traced: list[float], untraced: list[float]) -> dict[str, float]:
    """Per-pass layer metrics from the closed spans of the traced passes,
    whose times are `traced`; `untraced` are the times of untraced passes.

    Inclusive time counts only the outermost span of a group along each
    ancestor chain, so nested calls of one group are not counted twice.
    Self time is a span's duration minus the durations of its direct
    children (children never overlap: the program is single-threaded).
    """
    passes = len(traced)
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)

    def ancestors(s: Span):
        p = s.parent
        while p is not None:
            a = by_id[p]
            yield a
            p = a.parent

    incl = {g: 0.0 for g in TIME_GROUPS}
    self_t = {g: 0.0 for g in TIME_GROUPS}
    counts = {
        "walks.build_calls": 0, "walks.dim_max": 0, "exact.mat_mul_calls": 0,
        "exact.char_poly_dim_max": 0, "exact.roots_hdf": 0, "exact.coef_bits_max": 0,
        "periodicity.oracle_products": 0, "periodicity.trace_products": 0,
        "periodicity.spectral_inconclusive": 0, "scan.classes": 0,
    }
    for s in spans:
        names = [a.name for a in ancestors(s)]
        group = s.name
        if group == "periodicity.decide" and "scan.scan" in names:
            group = "scan.decide"
        if group in incl:
            dur = s.end - s.start
            if group not in names:
                incl[group] += dur
            self_t[group] += dur - child_time.get(s.id, 0.0)
        a = s.attrs
        if s.name == "walks.build":
            counts["walks.build_calls"] += 1
            counts["walks.dim_max"] = max(counts["walks.dim_max"], a.get("dim", 0))
        elif s.name == "exact.mat_mul":
            counts["exact.mat_mul_calls"] += 1
            if "periodicity.oracle" in names:
                counts["periodicity.oracle_products"] += 1
            if "periodicity.trace" in names:
                counts["periodicity.trace_products"] += 1
        elif s.name == "exact.char_poly":
            counts["exact.char_poly_dim_max"] = max(counts["exact.char_poly_dim_max"], a.get("dim", 0))
        elif s.name == "exact.roots":
            counts["exact.roots_hdf"] += a.get("raised") == "HigherDegreeFactor"
            counts["exact.coef_bits_max"] = max(counts["exact.coef_bits_max"], a.get("coef_bits", 0))
        elif s.name == "periodicity.spectral":
            counts["periodicity.spectral_inconclusive"] += a.get("inconclusive", 0)
        elif s.name == "scan.enumerate":
            counts["scan.classes"] += a.get("items", 0)

    out: dict[str, float] = {}
    for g in TIME_GROUPS:
        out[f"{g}_s"] = incl[g] / passes
        out[f"{g}_self_s"] = self_t[g] / passes
    for name, value in counts.items():
        # maxima are per run; tallies are per pass
        out[name] = value if name.endswith("_max") else value / passes
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    out["trace.spans"] = len(spans) / passes
    return out


def metric_names() -> list[str]:
    return list(layer_metrics([], [0.0], [0.0]))


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("dim_max"):
        return "dim"
    if name.endswith("bits_max"):
        return "bits"
    return "count"
