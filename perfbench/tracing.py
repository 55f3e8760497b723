"""Layer tracing from outside the library.

`Tracer.install()` replaces each traced public function of bmtrunc with a
wrapper that records a span (name, start, end, parent, op id).  bmtrunc's
modules import each other's functions by name (`from .solve import
stationary`), so the wrapper is bound in every `bmtrunc.*` namespace that
holds the original function object, which makes calls between layers go
through it too.  The model classes' `window` is spanned the same way;
`block`, `tail_sum` and `apply_row` run hundreds of thousands of times and
get counters only.  Spans stay in memory; `metrics()` reduces them to the
per-layer numbers and `dump()` writes them out.

A span's self time is its duration minus the durations of its direct
children.  Everything runs on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function) -> span name.  Both certificate searches share one name.
SPANNED = {
    ("blockmat", "load_model"): "blockmat.load_model",
    ("blockmat", "phase_generator"): "blockmat.phase_generator",
    ("truncate", "lc_truncate"): "truncate.truncate",
    ("truncate", "fc_truncate"): "truncate.truncate",
    ("truncate", "custom_truncate"): "truncate.truncate",
    ("solve", "stationary"): "solve.stationary",
    ("solve", "transition_matrix"): "solve.transition_matrix",
    ("solve", "transient_decay_check"): "solve.transient_decay_check",
    ("solve", "tv_distance"): "solve.tv_distance",
    ("order", "generator_is_block_monotone"): "order.generator_is_block_monotone",
    ("order", "vector_dominates"): "order.vector_dominates",
    ("bounds", "drift_check"): "bounds.drift_check",
    ("bounds", "corollary_transform"): "bounds.corollary_transform",
    ("bounds", "bound_report"): "bounds.bound_report",
    ("bmap", "spectral"): "bmap.spectral",
    ("bmap", "arrival_rate"): "bmap.arrival_rate",
    ("bmap", "find_beta_no_disaster"): "bmap.certificate_search",
    ("bmap", "find_constants_disaster"): "bmap.certificate_search",
    ("bmap", "build_generator"): "bmap.build_generator",
    ("bmap", "bound_pipeline"): "bmap.bound_pipeline",
}
COUNTED_METHODS = ("block", "tail_sum", "apply_row")

# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "blockmat.window.calls": "count",
    "blockmat.window.self_s": "s",
    "blockmat.block.calls": "count",
    "blockmat.block.nonzero_ratio": "ratio",
    "blockmat.tail_sum.calls": "count",
    "blockmat.apply_row.calls": "count",
    "blockmat.load_model.self_s": "s",
    "truncate.truncate.calls": "count",
    "truncate.truncate.self_s": "s",
    "truncate.corner_states": "count",
    "truncate.corner_density": "ratio",
    "solve.stationary.calls": "count",
    "solve.stationary.self_s": "s",
    "solve.stationary.states": "count",
    "solve.stationary.flops_computed": "flop",
    "solve.transition_matrix.calls": "count",
    "solve.transition_matrix.self_s": "s",
    "solve.transition_matrix.poisson_terms": "count",
    "solve.transition_matrix.flops_computed": "flop",
    "solve.transient_decay_check.self_s": "s",
    "solve.tv_distance.calls": "count",
    "bmap.spectral.calls": "count",
    "bmap.spectral.self_s": "s",
    "bmap.spectral.iterations": "count",
    "bmap.certificate_search.self_s": "s",
    "bmap.spectral.calls_per_certificate": "ratio",
    "bmap.build_generator.self_s": "s",
    "bounds.drift_check.calls": "count",
    "bounds.drift_check.self_s": "s",
    "bounds.drift_check.errors": "count",
    "bounds.corollary_transform.calls": "count",
    "bounds.bound_report.calls": "count",
    "bounds.bound_report.self_s": "s",
    "order.generator_is_block_monotone.calls": "count",
    "order.generator_is_block_monotone.self_s": "s",
    "order.vector_dominates.calls": "count",
    "order.vector_dominates.self_s": "s",
    "cli.op.self_s": "s",
    "cli.errors": "count",
    "cli.errors.exit_1": "count",
    "cli.errors.exit_2": "count",
    "cli.errors.exit_3": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def poisson_terms(rate: float, tol: float) -> int:
    """Terms 0..M of the Poisson(rate) series, M the first index whose
    cumulative mass reaches 1 - tol: the depth uniformization needs."""
    if rate <= 0.0:
        return 1
    log_rate = math.log(rate)
    cum = 0.0
    m = 0
    while True:
        cum += math.exp(-rate + m * log_rate - math.lgamma(m + 1.0))
        if cum >= 1.0 - tol or m > rate + 60.0 * math.sqrt(rate) + 100.0:
            return m + 1
        m += 1


def _square_size(G) -> int:
    return int(np.asarray(getattr(G, "values", G)).shape[0])


class Tracer:
    """Spans and counters for one traced run; install, run ops, uninstall."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id, raised]
        self.stack = []
        self.counts = Counter()
        self.op = None
        self._undo = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, False])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, raised: bool = False):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = raised
        self.stack.pop()

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, raised=True)
                raise
            self.end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts
        if name == "blockmat.block":
            @functools.wraps(fn)
            def traced(*args):
                counts[name] += 1
                result = fn(*args)
                if result is not None and result.any():
                    counts["blockmat.block.nonzero"] += 1
                return result
        else:
            @functools.wraps(fn)
            def traced(*args):
                counts[name] += 1
                return fn(*args)
        return traced

    # what the bench derives from a call's arguments and result
    def _after_truncate(self, args, kwargs, result):
        values = result.matrix.values
        self.counts["truncate.corner_states"] += values.shape[0]
        self.counts["truncate.corner_cells"] += values.size
        self.counts["truncate.corner_nonzeros"] += int(np.count_nonzero(values))

    def _after_stationary(self, args, kwargs, result):
        N = _square_size(args[0])
        self.counts["solve.stationary.states"] += N
        self.counts["solve.stationary.flops_computed"] += 2 * N ** 3 // 3

    def _after_transition(self, args, kwargs, result):
        G = args[0]
        t = args[1] if len(args) > 1 else kwargs["t"]
        tol = args[2] if len(args) > 2 else kwargs.get("tol", 1e-12)
        values = np.asarray(getattr(G, "values", G))
        N = values.shape[0]
        sigma = float(np.max(np.abs(np.diag(values)))) if N else 1.0
        terms = poisson_terms((sigma if sigma > 0.0 else 1.0) * t, tol)
        self.counts["solve.transition_matrix.poisson_terms"] += terms
        self.counts["solve.transition_matrix.flops_computed"] += (terms - 1) * 2 * N ** 3

    def _after_spectral(self, args, kwargs, result):
        self.counts["bmap.spectral.iterations"] += int(result.iterations)

    # -- installation -----------------------------------------------------

    def _bind_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bmtrunc" or mod_name.startswith("bmtrunc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        from bmtrunc import blockmat

        after = {
            "truncate.truncate": self._after_truncate,
            "solve.stationary": self._after_stationary,
            "solve.transition_matrix": self._after_transition,
            "bmap.spectral": self._after_spectral,
        }
        for (mod_name, fn_name), span in SPANNED.items():
            original = getattr(sys.modules[f"bmtrunc.{mod_name}"], fn_name)
            self._bind_everywhere(original, self._spanned(span, original, after.get(span)))
        classes = [c for c in vars(blockmat).values()
                   if isinstance(c, type) and issubclass(c, blockmat.BlockGeneratorModel)]
        for cls in classes:
            if "window" in vars(cls):
                self._patch(cls, "window", self._spanned("blockmat.window", vars(cls)["window"]))
            for meth in COUNTED_METHODS:
                if meth in vars(cls):
                    self._patch(cls, meth, self._counted(f"blockmat.{meth}", vars(cls)[meth]))

    def _patch(self, cls, attr, wrapper):
        self._undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reduction --------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter, Counter]:
        """Per span name: summed self time, call count, raised count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        raised = Counter()
        for i, (name, start, end, _parent, _op, was_raised) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            raised[name] += was_raised
        return self_s, calls, raised

    def metrics(self, cli_exit_codes: Counter, traced_wall: float, plain_wall: float) -> dict:
        self_s, calls, raised = self.self_times()
        c = self.counts
        searches = calls["bmap.certificate_search"]
        out = {
            "blockmat.window.calls": calls["blockmat.window"],
            "blockmat.window.self_s": self_s["blockmat.window"],
            "blockmat.block.calls": c["blockmat.block"],
            "blockmat.block.nonzero_ratio":
                c["blockmat.block.nonzero"] / c["blockmat.block"] if c["blockmat.block"] else 0.0,
            "blockmat.tail_sum.calls": c["blockmat.tail_sum"],
            "blockmat.apply_row.calls": c["blockmat.apply_row"],
            "blockmat.load_model.self_s": self_s["blockmat.load_model"],
            "truncate.truncate.calls": calls["truncate.truncate"],
            "truncate.truncate.self_s": self_s["truncate.truncate"],
            "truncate.corner_states": c["truncate.corner_states"],
            "truncate.corner_density":
                c["truncate.corner_nonzeros"] / c["truncate.corner_cells"]
                if c["truncate.corner_cells"] else 0.0,
            "solve.stationary.calls": calls["solve.stationary"],
            "solve.stationary.self_s": self_s["solve.stationary"],
            "solve.stationary.states": c["solve.stationary.states"],
            "solve.stationary.flops_computed": c["solve.stationary.flops_computed"],
            "solve.transition_matrix.calls": calls["solve.transition_matrix"],
            "solve.transition_matrix.self_s": self_s["solve.transition_matrix"],
            "solve.transition_matrix.poisson_terms": c["solve.transition_matrix.poisson_terms"],
            "solve.transition_matrix.flops_computed": c["solve.transition_matrix.flops_computed"],
            "solve.transient_decay_check.self_s": self_s["solve.transient_decay_check"],
            "solve.tv_distance.calls": calls["solve.tv_distance"],
            "bmap.spectral.calls": calls["bmap.spectral"],
            "bmap.spectral.self_s": self_s["bmap.spectral"],
            "bmap.spectral.iterations": c["bmap.spectral.iterations"],
            "bmap.certificate_search.self_s": self_s["bmap.certificate_search"],
            "bmap.spectral.calls_per_certificate":
                calls["bmap.spectral"] / searches if searches else 0.0,
            "bmap.build_generator.self_s": self_s["bmap.build_generator"],
            "bounds.drift_check.calls": calls["bounds.drift_check"],
            "bounds.drift_check.self_s": self_s["bounds.drift_check"],
            "bounds.drift_check.errors": raised["bounds.drift_check"],
            "bounds.corollary_transform.calls": calls["bounds.corollary_transform"],
            "bounds.bound_report.calls": calls["bounds.bound_report"],
            "bounds.bound_report.self_s": self_s["bounds.bound_report"],
            "order.generator_is_block_monotone.calls": calls["order.generator_is_block_monotone"],
            "order.generator_is_block_monotone.self_s":
                self_s["order.generator_is_block_monotone"],
            "order.vector_dominates.calls": calls["order.vector_dominates"],
            "order.vector_dominates.self_s": self_s["order.vector_dominates"],
            "cli.op.self_s": self_s["cli.op"],
            "cli.errors": sum(n for code, n in cli_exit_codes.items() if code != 0),
            "cli.errors.exit_1": cli_exit_codes[1],
            "cli.errors.exit_2": cli_exit_codes[2],
            "cli.errors.exit_3": cli_exit_codes[3],
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - plain_wall,
        }
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}

    def dump(self, path, header: dict):
        doc = dict(header)
        doc["fields"] = ["name", "start", "end", "parent", "op", "raised"]
        doc["spans"] = self.spans
        doc["counters"] = dict(self.counts)
        with open(path, "w") as fh:
            json.dump(doc, fh)
