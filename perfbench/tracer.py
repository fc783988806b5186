"""Span tracing of the ellinfo package from outside, for per-layer metrics.

The tracer wraps the public functions and methods of every package module
(the layers) and rebinds each wrapper in every namespace that bound the
original, because modules such as ``cli`` import functions by name.  Each
call records a span: its name, start, end and parent span.  A span's self
time is its duration minus the time its child spans cover, so the self
times of all layers plus the time outside every span add up to the traced
pass time.  Counters (calls, points, bytes, iterations) are recorded at the
same boundaries.  Wrapping changes no argument or result, so experiment
outputs and their checks are the same with and without tracing.

All work runs in one thread of one process and nothing is queued, so no
span waits for another: waiting time does not exist in this program.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from catalog import LAYER_METRICS, LAYERS

#: Methods wrapped although private: the score hot paths that the spectral,
#: simulate and score layers call directly instead of the public applies.
PRIVATE_METHODS = {"ScoreContext": ("_apply_B", "_apply_B_adjoint", "_apply_info")}

#: Per-element helpers left unwrapped: a span per table cell would cost more
#: than the work it measures.  Their time counts as their caller's.
UNWRAPPED = {"io": ("format_value",)}

#: Constructors wrapped as layer work (other classes are plain records).
CONSTRUCTORS = ("DivergenceFormOperator", "ScoreContext", "Conductivity")


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _bhat_missing(args, kwargs) -> bool:
    """Whether ``dense_linearization_hat`` will build B_hat, not reuse it."""
    return getattr(args[0], "_B_hat", None) is None


class Tracer:
    """Span recorder plus the counters that the layer metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.counters: Counter = Counter()
        self._clock = time.perf_counter

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, group: str | None = None,
             before=None, after=None, on_error=None):
        """Wrap ``fn`` in a span.

        ``group`` marks spans whose outermost occurrence is counted: the
        ``after`` hook receives ``outer=True`` only for a call that no other
        span of the same group encloses.  ``before(args, kwargs)`` returns a
        token handed to ``after(args, kwargs, result, duration, outer,
        token)``, which returns the (possibly wrapped) result.  A call that
        raises goes to ``on_error(exc, duration, outer)`` instead.
        """
        name_id = self._name_id(name)
        clock = self._clock
        stack, depth = self._stack, self._depth
        spans = (self.span_name, self.span_parent, self.span_start, self.span_end)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            outer = group is None or depth[group] == 0
            if group is not None:
                depth[group] += 1
            idx = len(spans[0])
            spans[0].append(name_id)
            spans[1].append(stack[-1] if stack else -1)
            spans[3].append(0.0)
            stack.append(idx)
            start = clock()
            spans[2].append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                spans[3][idx] = end
                stack.pop()
                if group is not None:
                    depth[group] -= 1
                if on_error is not None:
                    on_error(exc, end - start, outer)
                raise
            end = clock()
            spans[3][idx] = end
            stack.pop()
            if group is not None:
                depth[group] -= 1
            if after is not None:
                result = after(args, kwargs, result, end - start, outer, token)
            return result

        return wrapper

    def self_times(self) -> tuple[dict, float]:
        """Self time per span name and the summed duration of root spans."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return dict(zip(self.names, own.tolist())), float(dur[~has_parent].sum())

    # -- installation ------------------------------------------------------

    def install(self, package_modules: dict, extra_namespaces=()) -> None:
        """Wrap every layer and rebind the wrappers wherever the originals
        were bound."""
        replaced = {}
        for layer, module in package_modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or attr in UNWRAPPED.get(layer, ()):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    replaced[id(value)] = self._wrap_function(layer, attr, value)
                elif (inspect.isclass(value) and value.__module__ == module.__name__
                      and not issubclass(value, BaseException)
                      and "_member_map_" not in vars(value)):
                    self._wrap_class(layer, value)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "ellinfo" or n.startswith("ellinfo.")]
        namespaces.extend(extra_namespaces)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap_function(self, layer, attr, fn):
        hooks = self._function_hooks(layer, attr, fn)
        return self.wrap(fn, f"{layer}.{attr}", **hooks)

    def _wrap_class(self, layer, cls) -> None:
        own = vars(cls)
        names = [n for n in own if not n.startswith("_")]
        names += [n for n in PRIVATE_METHODS.get(cls.__name__, ()) if n in own]
        if cls.__name__ in CONSTRUCTORS and "__init__" in own:
            names.append("__init__")
        for attr in names:
            raw = own[attr]
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            hooks = self._method_hooks(layer, cls.__name__, attr)
            wrapped = self.wrap(fn, f"{layer}.{cls.__name__}.{attr}", **hooks)
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    # -- layer counters ----------------------------------------------------

    def _add(self, key: str, value=1) -> None:
        self.counters[key] += value

    def _max(self, key: str, value) -> None:
        self.counters[key] = max(self.counters[key], value)

    def _timed(self, time_key: str | None, count_key: str | None = None):
        """``after`` hook adding the outermost duration and/or a count."""
        def after(args, kwargs, result, duration, outer, token):
            if outer:
                if time_key:
                    self._add(time_key, duration)
                if count_key:
                    self._add(count_key)
            return result
        return after

    def _function_hooks(self, layer: str, attr: str, fn) -> dict:
        if layer == "spectral":
            if attr == "eigendecompose":
                return {"group": "eig", "after": self._after_eig(fn)}
            if attr == "fisher_information":
                return {"group": "fisher",
                        "after": self._timed("spectral.fisher_s", "spectral.fisher_calls"),
                        "on_error": self._fisher_error}
            if attr == "degeneracy_profile":
                return {"group": "ladder", "after": self._timed("spectral.ladder_s")}
            if attr == "fisher_refinement":
                return {"after": self._after_sweep}
        if layer == "transport":
            if attr == "trace_curve":
                return {"group": "trace",
                        "after": self._timed("transport.trace_s", "transport.traces")}
            if attr in ("line_integral", "ray_integral_disk"):
                return {"group": "line", "after": self._timed("transport.line_integral_s")}
            if attr == "range_verdict":
                return {"after": self._after_verdict}
            if attr == "solve_transport":
                return {"group": "tsolve", "after": self._timed("transport.solve_s")}
            if attr == "kernel_element":
                return {"group": "kernel", "after": self._timed("transport.kernel_s")}
        if layer == "simulate" and attr in ("lan_mc", "plugin_risk_study", "info_identity_mc"):
            return {"group": "mc", "after": self._after_mc(attr)}
        if layer == "fixtures" and attr in ("psi_fixture", "bump_psi", "quadrant_bump_psi",
                                            "in_range_psi", "in_range_fixture"):
            return {"group": "psi", "after": self._timed("fixtures.psi_s")}
        if layer == "io" and attr.startswith("write_"):
            return {"group": "io", "after": self._after_write}
        if layer == "cli" and attr == "main":
            return {"group": "cli", "after": self._timed(None, "cli.runs")}
        return {}

    def _method_hooks(self, layer: str, cls: str, attr: str) -> dict:
        if layer == "grids" and attr == "interpolator":
            return {"group": "interp_build", "after": self._after_interp_build}
        if cls == "DivergenceFormOperator":
            if attr == "__init__":
                return {"group": "op_build", "after": self._after_op_build}
            if attr in ("solve", "apply_inverse", "apply_inverse_interior"):
                return {"group": "solve", "after": self._after_solve}
        if cls == "ScoreContext":
            if attr == "__init__":
                return {"group": "context",
                        "after": self._timed(None, "score.contexts")}
            if attr == "dense_linearization_hat":
                return {"before": _bhat_missing, "after": self._after_bhat}
            if attr.startswith(("apply_", "_apply_")) and attr != "apply_operator":
                return {"group": "apply",
                        "after": self._timed("score.apply_s", "score.applies")}
        return {}

    def _after_interp_build(self, args, kwargs, result, duration, outer, token):
        if not outer:
            return result
        self._add("grids.interp_builds")
        return self.wrap(result, "grids.interp_call", group="interp",
                         after=self._after_interp_call)

    def _after_interp_call(self, args, kwargs, result, duration, outer, token):
        if outer:
            self._add("grids.interp_calls")
            self._add("grids.interp_points", int(np.atleast_2d(args[0]).shape[0]))
            self._add("grids.interp_s", duration)
        return result

    def _after_op_build(self, args, kwargs, result, duration, outer, token):
        if outer:
            self._add("elliptic.operator_builds")
            self._add("elliptic.operator_build_s", duration)
            self._max("elliptic.unknowns_max", args[0].grid.n_interior)
        return result

    def _after_solve(self, args, kwargs, result, duration, outer, token):
        if outer:
            self._add("elliptic.solves")
            self._add("elliptic.solve_s", duration)
            self._add("elliptic.cg_iterations",
                      int(args[0].last_stats.get("iterations", 0)))
        return result

    def _after_bhat(self, args, kwargs, result, duration, outer, built):
        if built:
            self._add("score.dense_bhat_builds")
            self._add("score.dense_bhat_s", duration)
            self._add("score.dense_bytes_computed", 8 * args[0].grid.n_interior ** 2)
        return result

    def _after_eig(self, fn):
        def after(args, kwargs, result, duration, outer, token):
            if outer:
                self._add("spectral.eig_calls")
                self._add("spectral.eig_s", duration)
                call = _bound(fn, args, kwargs)
                grid = call["ctx"].grid
                dim = grid.n_interior
                if call["subspace"] == "collar_supported":
                    dim = int(np.count_nonzero(~grid.collar_mask[grid.interior_ids]))
                self._max("spectral.eig_dim_max", dim)
            return result
        return after

    def _fisher_error(self, exc: BaseException, duration: float, outer: bool) -> None:
        if outer:
            self._add("spectral.fisher_calls")
            self._add("spectral.fisher_s", duration)
            if isinstance(exc, np.linalg.LinAlgError):
                self._add("spectral.fisher_fallbacks")

    def _after_sweep(self, args, kwargs, result, duration, outer, token):
        self._add("spectral.grids_swept", len(result.lower_bounds))
        self._add("spectral.grids_exact", sum(not lb for lb in result.lower_bounds))
        return result

    def _after_verdict(self, args, kwargs, result, duration, outer, token):
        self._add("transport.curves", len(result.seeds))
        self._add("transport.unclassified", result.n_unclassified)
        return result

    def _after_mc(self, attr: str):
        def after(args, kwargs, result, duration, outer, token):
            if not outer:
                return result
            if attr == "lan_mc":
                self._add("simulate.replicates", result.replicates)
                self._add("simulate.samples", result.n_samples * result.replicates)
            elif attr == "plugin_risk_study":
                self._add("simulate.replicates", result.replicates * len(result.n_values))
                self._add("simulate.samples", result.replicates * sum(result.n_values))
            else:
                self._add("simulate.replicates")
                self._add("simulate.samples", result.n_samples)
                self._add("simulate.identity_s", duration)
            return result
        return after

    def _after_write(self, args, kwargs, result, duration, outer, token):
        if outer:
            self._add("io.files")
            self._add("io.bytes", os.path.getsize(result))
            self._add("io.write_s", duration)
        return result

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, traced_pass_s: float, untraced_pass_s: float) -> dict:
        """Per-layer metrics of the recorded spans and counters."""
        own, covered = self.self_times()
        layer_self = defaultdict(float)
        for name, seconds in own.items():
            layer_self[name.split(".", 1)[0]] += seconds
        c = self.counters
        metrics = {key: c[key] for key in LAYER_METRICS}
        if c["spectral.grids_swept"]:
            metrics["spectral.exact_grid_ratio"] = (
                c["spectral.grids_exact"] / c["spectral.grids_swept"])
        if c["transport.curves"]:
            metrics["transport.unclassified_ratio"] = (
                c["transport.unclassified"] / c["transport.curves"])
        metrics["score.context_self_s"] = own.get("score.ScoreContext.__init__", 0.0)
        metrics["spectral.sweep_self_s"] = own.get("spectral.fisher_refinement", 0.0)
        metrics["transport.verdict_self_s"] = own.get("transport.range_verdict", 0.0)
        metrics["simulate.lan_self_s"] = own.get("simulate.lan_mc", 0.0)
        metrics["simulate.risk_self_s"] = own.get("simulate.plugin_risk_study", 0.0)
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        metrics["bench.self_s"] = traced_pass_s - covered
        metrics["trace.pass_s"] = traced_pass_s
        metrics["trace.untraced_pass_s"] = untraced_pass_s
        metrics["trace.overhead_s"] = traced_pass_s - untraced_pass_s
        metrics["trace.spans"] = len(self.span_name)
        return metrics
