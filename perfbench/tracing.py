"""Spans around octodyson's layer functions, recorded from outside the package.

A :class:`Tracer` replaces the layer functions named in :data:`LAYERS`
(and three numpy entry points whose calls are counted) by wrappers that
record one span per call: name, start, end, the span open when it was
called, and the amount of work the call was given (samples, trials, rows,
MiB, ...).  The package is not edited; every module namespace that binds a
traced function gets the wrapper, so calls made through ``from .x import y``
names are seen too.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import inspect
import math
import os
import time

import numpy as np

#: Public functions whose calls are layer boundaries, per module.
LAYERS = {
    "simulate": ("sample_rng", "sample_components", "cluster_eigenvalues",
                 "sample_spectra", "gap_statistics"),
    "matrices": ("real_form", "resolvent", "symm_compatibility_residual", "oct_inverse",
                 "trace_identity_residuals", "check_dim2_identities",
                 "check_logdet_derivatives", "dim3_counterexample"),
    "calculus": ("gamma_log_charpoly", "generator_log_charpoly"),
    "verify": ("check_closed_forms", "check_trace_identities", "check_inverse_roundtrip"),
    "algebra": ("check_table_structure", "check_sign_identities", "check_moufang",
                "check_norm_multiplicativity", "check_orthogonal_translates",
                "check_imaginary_sum_square", "nonassociativity_witness"),
    "reporting": ("write_spectrum_csv", "write_stats_json", "file_digest"),
}
#: numpy entry points counted per layer call (eigensolves, dense inverses,
#: counter-RNG constructions).
NUMPY = (("linalg", "eigvalsh"), ("linalg", "inv"), ("random", "Philox"))

#: Work carried by one call, from its bound arguments.
WORK = {
    "simulate.sample_spectra": lambda a: a["cfg"].samples,
    "matrices.real_form": lambda a: math.prod(np.shape(a["components"])[:-3]),
    "matrices.check_dim2_identities": lambda a: a["trials"],
    "matrices.check_logdet_derivatives": lambda a: a["count"],
    "verify.check_closed_forms": lambda a: a["trials"],
    "verify.check_trace_identities": lambda a: a["trials"],
    "verify.check_inverse_roundtrip": lambda a: a["trials"],
    "algebra.check_moufang": lambda a: a["trials"],
    "algebra.check_norm_multiplicativity": lambda a: a["pairs"],
    "reporting.write_spectrum_csv": lambda a: len(a["samples"]),
    "reporting.file_digest": lambda a: os.path.getsize(a["path"]) / 2 ** 20,
}

#: Per-layer timings: (metric, span, only inside this span or None,
#: divide by calls (None) or by the work of this span, scale to the unit).
TIMINGS = (
    ("simulate.sample_rng.us", "simulate.sample_rng", None, None, 1e6),
    ("simulate.sample_components.us", "simulate.sample_components", None, None, 1e6),
    ("simulate.cluster_eigenvalues.us", "simulate.cluster_eigenvalues", None, None, 1e6),
    ("simulate.sample_spectra.us", "simulate.sample_spectra", None,
     "simulate.sample_spectra", 1e6),
    ("simulate.eigensolve.us", "numpy.linalg.eigvalsh", "simulate.sample_spectra",
     "simulate.sample_spectra", 1e6),
    ("matrices.real_form.us", "matrices.real_form", None, "matrices.real_form", 1e6),
    ("simulate.gap_statistics.ms", "simulate.gap_statistics", None, None, 1e3),
    ("reporting.write_spectrum_csv.us", "reporting.write_spectrum_csv", None,
     "reporting.write_spectrum_csv", 1e6),
    ("reporting.file_digest.ms", "reporting.file_digest", None, "reporting.file_digest", 1e3),
    ("matrices.resolvent.us", "matrices.resolvent", None, None, 1e6),
    ("matrices.symm_compatibility_residual.us", "matrices.symm_compatibility_residual",
     None, None, 1e6),
    ("matrices.oct_inverse.us", "matrices.oct_inverse", None, None, 1e6),
    ("matrices.CharPolyEval.from_eigenvalues.us", "matrices.CharPolyEval.from_eigenvalues",
     None, None, 1e6),
    ("matrices.trace_identity_residuals.ms", "matrices.trace_identity_residuals",
     None, None, 1e3),
    ("matrices.check_dim2_identities.ms", "matrices.check_dim2_identities", None,
     "matrices.check_dim2_identities", 1e3),
    ("matrices.check_logdet_derivatives.ms", "matrices.check_logdet_derivatives", None,
     "matrices.check_logdet_derivatives", 1e3),
    ("calculus.gamma_log_charpoly.us", "calculus.gamma_log_charpoly", None, None, 1e6),
    ("calculus.generator_log_charpoly.us", "calculus.generator_log_charpoly", None, None, 1e6),
    ("verify.check_closed_forms.ms", "verify.check_closed_forms", None,
     "verify.check_closed_forms", 1e3),
    ("verify.check_trace_identities.ms", "verify.check_trace_identities", None,
     "verify.check_trace_identities", 1e3),
    ("verify.check_inverse_roundtrip.ms", "verify.check_inverse_roundtrip", None,
     "verify.check_inverse_roundtrip", 1e3),
    ("algebra.check_moufang.us", "algebra.check_moufang", None, "algebra.check_moufang", 1e6),
    ("algebra.check_norm_multiplicativity.us", "algebra.check_norm_multiplicativity", None,
     "algebra.check_norm_multiplicativity", 1e6),
    ("algebra.check_sign_identities.ms", "algebra.check_sign_identities", None, None, 1e3),
)

#: Exact counts: (metric, spans counted, inside this span, per its work).
COUNTS = (
    ("count.eigensolves_per_closed_form_trial", "numpy.linalg.eigvalsh",
     "verify.check_closed_forms"),
    ("count.dense_inverses_per_closed_form_trial", "numpy.linalg.inv",
     "verify.check_closed_forms"),
    ("count.real_forms_per_closed_form_trial", "matrices.real_form",
     "verify.check_closed_forms"),
    ("count.eigensolves_per_trace_trial", "numpy.linalg.eigvalsh",
     "verify.check_trace_identities"),
    ("count.rng_constructions_per_sample", "numpy.random.Philox", "simulate.sample_spectra"),
)

#: Name of the span around each call of the CLI entry point.
CLI_SPAN = "cli.main"

#: Every per-layer metric a traced run reports, with its unit.
UNITS = {
    **{m[0]: m[0].rsplit(".", 1)[1] for m in TIMINGS},
    "cli.self.ms": "ms",
    **{m[0]: "count" for m in COUNTS},
    "trace.overhead.ms": "ms",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "work")

    def __init__(self, name: str, parent: int, work: float):
        self.name = name
        self.parent = parent
        self.work = work
        self.start = time.perf_counter()
        self.end = math.nan


class Tracer:
    """Records spans; :meth:`installed` puts the wrappers in place."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _enter(self, name: str, work: float) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, self._open[-1] if self._open else -1, work))
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self._open.pop()
        self.spans[index].end = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, work: float = 1.0):
        index = self._enter(name, work)
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        def traced(*args, **kwargs):
            units = 1.0
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                units = float(work(bound.arguments))
            index = self._enter(name, units)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function in every octodyson namespace binding it,
        plus the counted numpy entry points; undo on exit."""
        pkg = importlib.import_module("octodyson")
        modules = [pkg] + [importlib.import_module(f"octodyson.{m}")
                           for m in (*LAYERS, "cli")]
        swaps = []
        for short, names in LAYERS.items():
            module = importlib.import_module(f"octodyson.{short}")
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for ns in modules:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            swaps.append((ns, attr, original, wrapper))
        matrices = importlib.import_module("octodyson.matrices")
        raw = matrices.CharPolyEval.__dict__["from_eigenvalues"]
        swaps.append((matrices.CharPolyEval, "from_eigenvalues", raw, classmethod(
            self.wrap("matrices.CharPolyEval.from_eigenvalues", raw.__func__))))
        for sub, fname in NUMPY:
            ns = getattr(np, sub)
            original = getattr(ns, fname)
            swaps.append((ns, fname, original, self.wrap(f"numpy.{sub}.{fname}", original)))
        try:
            for ns, attr, _, wrapper in swaps:
                setattr(ns, attr, wrapper)
            yield self
        finally:
            for ns, attr, original, _ in reversed(swaps):
                setattr(ns, attr, original)

    def write(self, path) -> None:
        """Spans as CSV: index, name, start and end in microseconds from the
        first span, parent index (-1 for a root), work."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start_us", "end_us", "parent", "work"))
            for i, s in enumerate(self.spans):
                out.writerow((i, s.name, f"{(s.start - t0) * 1e6:.3f}",
                              f"{(s.end - t0) * 1e6:.3f}", s.parent, s.work))


def _within(spans: list[Span], index: int, name: str | None) -> bool:
    if name is None:
        return True
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def self_times(spans: list[Span]) -> dict[str, dict]:
    """Calls, total and self seconds per span name; self time is a span's
    duration minus that of its direct children (calls nest, one thread)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    table: dict[str, dict] = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - child[i]
        row["work"] += s.work
    return table


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of :data:`TIMINGS` and :data:`COUNTS` over ``spans``;
    a metric whose spans do not occur is left out."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def work(name: str) -> float:
        return sum(spans[i].work for i in by_name.get(name, ()))

    out: dict[str, float] = {}
    for metric, name, inside, per, scale in TIMINGS:
        picked = [i for i in by_name.get(name, ()) if _within(spans, i, inside)]
        if picked:
            total = sum(spans[i].end - spans[i].start for i in picked)
            out[metric] = scale * total / (len(picked) if per is None else work(per))
    for metric, name, inside in COUNTS:
        if work(inside):
            hits = sum(_within(spans, i, inside) for i in by_name.get(name, ()))
            out[metric] = hits / work(inside)
    if CLI_SPAN in by_name:
        passes = len({spans[i].parent for i in by_name[CLI_SPAN]})
        out["cli.self.ms"] = 1e3 * self_times(spans)[CLI_SPAN]["self_s"] / passes
    return out
