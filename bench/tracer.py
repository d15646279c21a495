"""Span tracing of the library's public functions from outside the library.

`Tracer.install` wraps each function listed in TARGETS and rebinds the
wrapper under every name that refers to the original: in each module of the
package that imported it (for example `cli.sample_root` and
`zerovariety.sample_root`), on the class for methods, and in `numpy.linalg`
for the dense linear algebra.  Each call records a span (parent span,
function, start, end, error flag, result details) in memory; `uninstall`
restores the originals.  Self time is computed afterwards from the span tree.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# (layer, module, attribute path, metric name).  Metric names are
# "<layer>.<name>.<counter>".
TARGETS = (
    ("algebra", "slicealgebra.algebra", "Algebra.multiply_vec", "multiply_vec"),
    ("algebra", "slicealgebra.algebra", "Algebra.left_matrix_vec", "left_matrix_vec"),
    ("algebra", "slicealgebra.algebra", "Algebra.right_matrix_vec", "right_matrix_vec"),
    ("algebra", "slicealgebra.algebra", "make_algebra", "make_algebra"),
    ("algebra", "slicealgebra.algebra", "clifford_algebra", "clifford_algebra"),
    ("algebra", "slicealgebra.algebra", "load_algebra", "load_algebra"),
    ("algebra", "slicealgebra.algebra", "inverse", "inverse"),
    ("algebra", "slicealgebra.algebra", "is_zerodivisor", "is_zerodivisor"),
    ("linalg", "numpy.linalg", "svd", "svd"),
    ("linalg", "numpy.linalg", "lstsq", "lstsq"),
    ("linalg", "numpy.linalg", "solve", "solve"),
    ("roots", "slicealgebra.roots", "find_seed_root", "find_seed_root"),
    ("roots", "slicealgebra.roots", "sample_root", "sample_root"),
    ("roots", "slicealgebra.roots", "tangent_frame", "tangent_frame"),
    ("roots", "slicealgebra.roots", "verify_trace_identities", "verify_trace_identities"),
    ("zerovariety", "slicealgebra.zerovariety", "zero_variety_witness", "zero_variety_witness"),
    ("zerovariety", "slicealgebra.zerovariety", "discrete_zero_scan", "discrete_zero_scan"),
    ("slicefunctions", "slicealgebra.slicefunctions", "intrinsic_defect", "intrinsic_defect"),
    ("slicefunctions", "slicealgebra.slicefunctions", "StemPolynomial.evaluate_vector",
     "evaluate_vector"),
    ("slicefunctions", "slicealgebra.slicefunctions", "StemPolynomial.evaluate_many",
     "evaluate_many"),
    ("slicefunctions", "slicealgebra.slicefunctions", "eval_slice", "eval_slice"),
    ("orthogonal", "slicealgebra.orthogonal", "antisymmetric_subspace", "antisymmetric_subspace"),
    ("orthogonal", "slicealgebra.orthogonal", "sample_S0", "sample_S0"),
    ("orthogonal", "slicealgebra.orthogonal", "cone_decompose", "cone_decompose"),
    ("twistor", "slicealgebra.twistor", "twistor_lift", "twistor_lift"),
    ("twistor", "slicealgebra.twistor", "stereographic_fiber", "stereographic_fiber"),
    ("twistor", "slicealgebra.twistor", "generalized_twistor", "generalized_twistor"),
    ("cli", "slicealgebra.cli", "run_suite", "run_suite"),
)

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, _, _, name in TARGETS)

# Extra counters beyond .calls and .self_s, by span name.
ERROR_COUNTED = ("algebra.inverse", "linalg.svd", "roots.sample_root")
WITNESS_STATUSES = ("found", "absent", "inconclusive")


def _svd_details(args, kwargs, result):
    """(computed U/V?, bytes of the returned arrays from their shapes)."""
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    arrays = tuple(result) if uv else (result,)
    return bool(uv), sum(a.size * a.itemsize for a in arrays)


_DETAILS = {
    "linalg.svd": _svd_details,
    "zerovariety.zero_variety_witness": lambda args, kwargs, result: result.status,
    "zerovariety.discrete_zero_scan": lambda args, kwargs, result: len(result),
}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric the spans give, in report order."""
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        if span in ERROR_COUNTED:
            units[f"{span}.errors"] = "count"
        if span == "linalg.svd":
            units["linalg.svd.uv_calls"] = "count"
            units["linalg.svd.computed_mb"] = "MiB"
        if span == "roots.sample_root":
            units["roots.sample_root.draws_per_root"] = "draws/root"
        if span == "zerovariety.zero_variety_witness":
            units.update((f"{span}.{status}", "count") for status in WITNESS_STATUSES)
        if span == "zerovariety.discrete_zero_scan":
            units[f"{span}.hits"] = "count"
    return units


@dataclass
class Span:
    parent: int  # index of the enclosing span, -1 at top level
    name: str
    start: int  # perf_counter_ns
    end: int
    error: bool = False
    detail: object = None


class Tracer:
    """Holds the spans of the current phase and the installed wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start an empty phase."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        tracer = self
        describe = _DETAILS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(stack[-1] if stack else -1, name, 0, 0)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if describe is not None:
                span.detail = describe(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever the original is bound."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "slicealgebra" or key.startswith("slicealgebra.")]
        for (layer, module, path, name) in TARGETS:
            owner = importlib.import_module(module)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{layer}.{name}", original)
            if cls_path:
                self._rebind(owner, attr, wrapper)
                continue
            targets = [owner] + [ns for ns in namespaces if ns is not owner]
            for ns in targets:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._rebind(ns, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# -- analysis ----------------------------------------------------------------


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlaps counted once)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, span.start), min(ce, span.end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.end - span.start - covered)
    return out


def phase_counters(spans) -> dict[str, float]:
    """Additive counters of one phase: calls, self nanoseconds, errors and
    result details per span name."""
    counters: dict[str, float] = {}

    def bump(key: str, amount: float = 1) -> None:
        counters[key] = counters.get(key, 0) + amount

    for name in SPAN_NAMES:
        counters[f"{name}.calls"] = 0
        counters[f"{name}.self_ns"] = 0
    for span, own in zip(spans, self_times(spans)):
        bump(f"{span.name}.calls")
        bump(f"{span.name}.self_ns", own)
        if span.error:
            bump(f"{span.name}.errors")
        if span.name == "linalg.svd" and span.detail is not None:
            uv, nbytes = span.detail
            bump("linalg.svd.uv_calls", int(uv))
            bump("linalg.svd.computed_bytes", nbytes)
        elif span.name == "zerovariety.zero_variety_witness" and span.detail:
            bump(f"{span.name}.{span.detail}")
        elif span.name == "zerovariety.discrete_zero_scan" and span.detail is not None:
            bump(f"{span.name}.hits", span.detail)
        elif (span.name == "algebra.is_zerodivisor" and span.parent >= 0
              and spans[span.parent].name == "roots.sample_root"):
            bump("roots.sample_root.draws")
    return counters


def layer_metrics(counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics, in per_layer_units() order, from summed counters."""
    out = {}
    for key in per_layer_units():
        span, _, field_name = key.rpartition(".")
        if field_name == "self_s":
            out[key] = counters.get(f"{span}.self_ns", 0) / 1e9
        elif key == "linalg.svd.computed_mb":
            out[key] = counters.get("linalg.svd.computed_bytes", 0) / 2 ** 20
        elif key == "roots.sample_root.draws_per_root":
            calls = counters.get("roots.sample_root.calls", 0)
            out[key] = counters.get("roots.sample_root.draws", 0) / calls if calls else 0.0
        else:
            out[key] = counters.get(key, 0)
    return out
