"""Spans and counters around thhlab's public functions, installed from outside.

The program has no tracing of its own yet, so the traced pass wraps the
calls into each layer.  Modules import names directly (`from .fp_linalg
import homology_dim`), so a wrapper replaces the name in every thhlab module
that binds it; methods are replaced once on their class.

A span records its parent: the innermost span open when it starts.  Its
self time is its duration minus the durations of its child spans, and a
layer's self time is the sum over the layer's spans.  Hot primitives
(AlgebraSpec.mono_mul, RewriteRule.divides, FpMatrix.__post_init__) are
counted, not timed, so the time they take lands in the caller's self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Optional


def rebind(original: object, replacement: object) -> None:
    """Point every name bound to original in a thhlab module at replacement."""
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("thhlab"):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, seconds in children]
        self.active: defaultdict[str, int] = defaultdict(int)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.total: defaultdict[str, float] = defaultdict(float)  # outermost calls only
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.edges: defaultdict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.counts: defaultdict[str, int] = defaultdict(int)

    def span(self, name: Optional[str], fn: Callable, *,
             name_of: Optional[Callable] = None,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; name_of(args) names it per call instead."""
        stack, active = self.stack, self.active
        calls, total, self_time, edges = self.calls, self.total, self.self_time, self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            parent = stack[-1][0] if stack else None
            if before is not None:
                before(parent, args, kwargs)
            frame = [span_name, 0.0]
            stack.append(frame)
            active[span_name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[span_name] -= 1
                calls[span_name] += 1
                if not active[span_name]:
                    total[span_name] += dt
                self_time[span_name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                edge = edges[(parent, span_name)]
                edge[0] += 1
                edge[1] += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum((t for n, t in self.self_time.items() if n.startswith(prefix)), 0.0)

    def dump(self) -> dict:
        """Everything recorded, in a json-ready form (the trace dump)."""
        return {
            "spans": {n: {"calls": self.calls[n], "total_s": self.total[n],
                          "self_s": self.self_time[n]} for n in sorted(self.calls)},
            "edges": [{"parent": p, "child": c, "calls": v[0], "seconds": v[1]}
                      for (p, c), v in sorted(self.edges.items(), key=lambda kv: str(kv[0]))],
            "counts": dict(sorted(self.counts.items())),
        }


def install(tr: Tracer) -> None:
    """Wrap the public functions of every layer (call after importing thhlab)."""
    import thhlab.cli  # noqa: F401 - its bindings must exist before rebind()
    from thhlab import (fp_linalg, graded_algebra, les_checker, presentation,
                        scenarios, spectral_sequence, tor_engine)

    counts = tr.counts
    FpMatrix = fp_linalg.FpMatrix

    def on_rank(parent, args, kwargs):
        if tr.active["spectral_sequence.run_differential"]:
            counts["spectral_sequence.survivor_rank_calls"] += 1

    def on_rref(parent, args, kwargs):
        rows, cols = args[0].data.shape
        counts["fp_linalg.rref_cells"] += rows * cols

    def on_from_columns(parent, args, kwargs):
        # matrices assembled by tor_engine code itself: both the resolution's
        # differentials and the tensored complex inside tor_oracle
        if parent is not None and parent.startswith("tor_engine."):
            cols = args[3] if len(args) > 3 else kwargs["cols"]
            counts["tor_engine.matrix_calls"] += 1
            if len(cols) > counts["tor_engine.max_matrix_cols"]:
                counts["tor_engine.max_matrix_cols"] = len(cols)

    def table_size(key):
        def after(table):
            counts[key] += sum(len(v) for v in table.values())
        return after

    methods = [
        (FpMatrix, "rank", "fp_linalg.rank", {"before": on_rank}),
        (FpMatrix, "rref", "fp_linalg.rref", {"before": on_rref}),
        (FpMatrix, "__matmul__", "fp_linalg.matmul", {}),
        (FpMatrix, "kernel", "fp_linalg.kernel", {}),
        (FpMatrix, "from_columns", "fp_linalg.from_columns", {"before": on_from_columns}),
        (graded_algebra.AlgebraSpec, "basis_by_degree", "graded_algebra.basis",
         {"after": table_size("graded_algebra.basis_monos")}),
        (presentation.Presentation, "basis_by_degree", "presentation.basis",
         {"after": table_size("presentation.basis_kept")}),
        (presentation.Presentation, "normal_form_dict", "presentation.normal_form", {}),
        (tor_engine.ChainComplexOfFrees, "check_resolves_unit",
         "tor_engine.check_resolves_unit", {}),
    ]
    for cls, attr, name, hooks in methods:
        patch_method(cls, attr, lambda fn, name=name, hooks=hooks: tr.span(name, fn, **hooks))

    for cls, attr, key in (
        (FpMatrix, "__post_init__", "fp_linalg.matrices_built"),
        (graded_algebra.AlgebraSpec, "mono_mul", "graded_algebra.mono_mul_calls"),
        (presentation.RewriteRule, "divides", "presentation.divides_calls"),
    ):
        patch_method(cls, attr, lambda fn, key=key: tr.counted(key, fn))

    functions = [
        (fp_linalg.homology_dim, "fp_linalg.homology_dim"),
        (fp_linalg.solve, "fp_linalg.solve"),
        (fp_linalg.span_contains, "fp_linalg.span_contains"),
        (fp_linalg.spans_equal, "fp_linalg.spans_equal"),
        (graded_algebra.check_morphism, "graded_algebra.check_morphism"),
        (graded_algebra.hilbert, "graded_algebra.hilbert"),
        (graded_algebra.bigraded_dims, "graded_algebra.bigraded_dims"),
        (presentation.make_theta, "presentation.make_theta"),
        (presentation.check_derivation, "presentation.check_derivation"),
        (tor_engine.resolution, "tor_engine.resolution"),
        (tor_engine.tor_oracle, "tor_engine.oracle"),
        (tor_engine.tor_closed_form, "tor_engine.closed_form"),
        (tor_engine.tor_exterior_module, "tor_engine.exterior_module"),
        (spectral_sequence.run_differential, "spectral_sequence.run_differential"),
        (spectral_sequence.compare_abutment, "spectral_sequence.compare_abutment"),
        (spectral_sequence.verify_rule_family, "spectral_sequence.verify_rule_family"),
        (spectral_sequence.possible_differentials, "spectral_sequence.possible_differentials"),
        (les_checker.check_les, "les_checker.check_les"),
        (les_checker.ell_sequence, "les_checker.ell_sequence"),
        (les_checker.ku_sequence, "les_checker.ku_sequence"),
        (scenarios.emit_report, "cli.emit"),
    ]
    for fn, name in functions:
        rebind(fn, tr.span(name, fn))
    rebind(scenarios.run_scenario,
           tr.span(None, scenarios.run_scenario, name_of=lambda a: f"scenarios.{a[0]}"))


# per-layer metric names; "<span>_calls" and "<span>_s" read the span's call
# count and outermost total, self_s the layer's self time, the rest counters
PER_LAYER = (
    "fp_linalg.rank_calls", "fp_linalg.rref_calls", "fp_linalg.rref_s",
    "fp_linalg.rref_cells", "fp_linalg.matrices_built", "fp_linalg.matmul_calls",
    "fp_linalg.matmul_s", "fp_linalg.homology_dim_calls", "fp_linalg.self_s",
    "graded_algebra.basis_calls", "graded_algebra.basis_monos", "graded_algebra.basis_s",
    "graded_algebra.mono_mul_calls", "graded_algebra.check_morphism_calls",
    "graded_algebra.check_morphism_s", "graded_algebra.self_s",
    "presentation.basis_calls", "presentation.basis_s", "presentation.basis_kept",
    "presentation.divides_calls", "presentation.basis_yield",
    "presentation.normal_form_calls", "presentation.normal_form_s", "presentation.self_s",
    "tor_engine.resolution_calls", "tor_engine.resolution_s",
    "tor_engine.check_resolves_unit_s", "tor_engine.oracle_calls", "tor_engine.oracle_s",
    "tor_engine.matrix_calls", "tor_engine.max_matrix_cols", "tor_engine.self_s",
    "spectral_sequence.run_differential_calls", "spectral_sequence.run_differential_s",
    "spectral_sequence.survivor_rank_calls", "spectral_sequence.compare_abutment_s",
    "spectral_sequence.verify_rule_family_s", "spectral_sequence.self_s",
    "les_checker.check_les_calls", "les_checker.check_les_s", "les_checker.self_s",
    "cli.emit_s",
)
COUNTED = {
    "fp_linalg.rref_cells", "fp_linalg.matrices_built", "graded_algebra.basis_monos",
    "graded_algebra.mono_mul_calls", "presentation.basis_kept",
    "presentation.divides_calls", "tor_engine.matrix_calls", "tor_engine.max_matrix_cols",
    "spectral_sequence.survivor_rank_calls",
}


def layer_metrics(tr: Tracer, scenario_names) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name (times in s)."""
    out: dict[str, float] = {}
    for key in PER_LAYER:
        if key in COUNTED:
            out[key] = tr.counts[key]
        elif key == "presentation.basis_yield":
            kept, tried = out["presentation.basis_kept"], out["presentation.divides_calls"]
            out[key] = kept / tried if tried else 0.0
        elif key.endswith(".self_s"):
            out[key] = tr.layer_self(key.split(".")[0])
        elif key.endswith("_calls"):
            out[key] = tr.calls[key[: -len("_calls")]]
        elif key.endswith("_s"):
            out[key] = tr.total[key[: -len("_s")]]
    for name in scenario_names:
        out[f"scenarios.{name}_s"] = tr.total[f"scenarios.{name}"]
    return out
