"""Per-layer tracing for the benchmark, done from outside the library.

The tracer rebinds gavekit's public functions in every gavekit module that
holds them, plus ``Factorization.solve`` and ``scipy.sparse.linalg.splu``.
Each call becomes a span (name, start, end, parent, op id) kept in memory;
per-layer metrics are computed from the spans and from counts taken at the
same boundaries. ``uninstall`` restores every original binding.

A layer is a gavekit module, so metric names read ``<module>.<function>.<x>``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

GAVEKIT_MODULES = (
    "sparse",
    "mmio",
    "linalg",
    "splittings",
    "solver",
    "certify",
    "problems",
    "bench",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Records spans and counts while installed and ``active``."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._op = None
        self._restore = []

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._op)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def begin_op(self, op_name):
        """Root span of one timed op; every span below it shares its id."""
        self._op = op_name
        return self.begin("op")

    def end_op(self, span):
        self.end(span)
        self._op = None

    def inside(self, name):
        return any(s.name == name for s in self._stack)

    def reset(self):
        self.spans = []
        self.counts = defaultdict(float)

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_result is not None:
                on_result(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every public gavekit function wherever gavekit binds it."""
        import scipy.sparse.linalg

        import gavekit

        for mod_name in GAVEKIT_MODULES:
            importlib.import_module(f"gavekit.{mod_name}")
        holders = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "gavekit" or name.startswith("gavekit.")
        ]
        for mod_name in GAVEKIT_MODULES:
            mod = sys.modules[f"gavekit.{mod_name}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if getattr(fn, "__module__", None) != mod.__name__ or isinstance(
                    fn, type
                ):
                    continue
                wrapped = self._wrap(
                    f"{mod_name}.{attr}", fn, _ON_RESULT.get(f"{mod_name}.{attr}")
                )
                for holder in holders:
                    if getattr(holder, attr, None) is fn:
                        self._rebind(holder, attr, wrapped)
        factorization = gavekit.linalg.Factorization
        self._rebind(
            factorization,
            "solve",
            self._wrap("linalg.Factorization.solve", factorization.solve),
        )
        self._rebind(
            scipy.sparse.linalg,
            "splu",
            self._wrap("scipy.splu", scipy.sparse.linalg.splu, _count_fill),
        )

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """Per span name: calls, total seconds (outermost spans) and self seconds."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += span.self_s
            outer = span.parent
            while outer is not None and outer.name != span.name:
                outer = outer.parent
            if outer is None:
                total[span.name] += span.duration
        return calls, total, self_s

    def write_spans(self, path):
        """Write the spans as gzipped JSON lines, parents referenced by index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                parent = index.get(id(s.parent)) if s.parent is not None else None
                fh.write(
                    json.dumps(
                        {
                            "i": i,
                            "name": s.name,
                            "op": s.op,
                            "start": s.start,
                            "end": s.end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def _count_spmv(tracer, args, kwargs, out):
    tracer.counts["sparse.spmv.nnz_total"] += args[0].nnz


def _count_fill(tracer, args, kwargs, out):
    tracer.counts["linalg.lu_factorize.fill_nnz"] += out.nnz


def _count_lsqr(tracer, args, kwargs, out):
    tracer.counts["linalg.lsqr.iters"] += out.iterations
    tracer.counts["linalg.lsqr.target_met"] += out.stop_reason == "target_met"


def _count_solve(tracer, args, kwargs, out):
    tracer.counts["solver.outer_iters"] += out.iterations
    if out.converged and tracer.inside("bench.tune_alpha"):
        tracer.counts["bench.tune_alpha.converged"] += 1


def _count_tune(tracer, args, kwargs, out):
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    tracer.counts["bench.tune_alpha.points"] += len(grid)


_ON_RESULT = {
    "sparse.spmv": _count_spmv,
    "linalg.lsqr": _count_lsqr,
    "solver.nms_solve": _count_solve,
    "solver.inms_solve": _count_solve,
    "bench.tune_alpha": _count_tune,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of everything traced since the last reset."""
    calls, total, self_s = tracer.totals()
    c = tracer.counts

    def s(name):
        return total.get(name, 0.0)

    def n(name):
        return float(calls.get(name, 0))

    return {
        "problems.gen_example41.s": s("problems.gen_example41"),
        "mmio.write_matrix_market.s": s("mmio.write_matrix_market"),
        "mmio.read_matrix_market.s": s("mmio.read_matrix_market"),
        "mmio.read_vector.s": s("mmio.read_vector"),
        "splittings.build_splitting.s": s("splittings.build_splitting"),
        "splittings.build_splitting.calls": n("splittings.build_splitting"),
        "sparse.sparse_add.s": s("sparse.sparse_add"),
        "sparse.sparse_add.calls": n("sparse.sparse_add"),
        "sparse.spmv.s": s("sparse.spmv"),
        "sparse.spmv.calls": n("sparse.spmv"),
        "sparse.spmv_transpose.calls": n("sparse.spmv_transpose"),
        "sparse.spmv.nnz_total": c["sparse.spmv.nnz_total"],
        "linalg.lu_factorize.s": s("linalg.lu_factorize"),
        "linalg.lu_factorize.calls": n("linalg.lu_factorize"),
        "linalg.lu_factorize.fill_nnz": c["linalg.lu_factorize.fill_nnz"],
        "scipy.splu.s": s("scipy.splu"),
        "linalg.Factorization.solve.s": s("linalg.Factorization.solve"),
        "linalg.Factorization.solve.calls": n("linalg.Factorization.solve"),
        "linalg.lsqr.s": s("linalg.lsqr"),
        "linalg.lsqr.calls": n("linalg.lsqr"),
        "linalg.lsqr.iters": c["linalg.lsqr.iters"],
        "linalg.lsqr.target_met_ratio": _ratio(
            c["linalg.lsqr.target_met"], n("linalg.lsqr")
        ),
        "linalg.spectral_norm.s": s("linalg.spectral_norm"),
        "linalg.spectral_norm.calls": n("linalg.spectral_norm"),
        "linalg.min_singular_value.s": s("linalg.min_singular_value"),
        "linalg.min_singular_value.calls": n("linalg.min_singular_value"),
        "linalg.symmetric_eig_extremes.s": s("linalg.symmetric_eig_extremes"),
        "linalg.skew_spectral_radius.s": s("linalg.skew_spectral_radius"),
        "solver.nms_solve.self_s": self_s.get("solver.nms_solve", 0.0),
        "solver.inms_solve.self_s": self_s.get("solver.inms_solve", 0.0),
        "solver.residual.calls": n("solver.residual"),
        "solver.outer_iters": c["solver.outer_iters"],
        "certify.check_inexact.s": s("certify.check_inexact"),
        "certify.check_corollary.s": s("certify.check_corollary"),
        "bench.tune_alpha.s": s("bench.tune_alpha"),
        "bench.tune_alpha.points": c["bench.tune_alpha.points"],
        "bench.tune_alpha.converged_ratio": _ratio(
            c["bench.tune_alpha.converged"], c["bench.tune_alpha.points"]
        ),
    }
