"""In-memory span tracer that wraps elcov's public functions by name.

Every hooked function is swapped, for the duration of a ``with Tracer()``
block, in each ``elcov`` module that holds it under any name (its defining
module, the modules that imported it, the package namespace), so calls are
caught wherever the caller looks the name up.  A wrapper records one span
``[name, start, end, parent, raised]`` and passes arguments, results and
exceptions through unchanged; leaving the block restores every name.

Self time is a span's duration minus the durations of its hooked children
(calls are sequential, so the children never overlap).  Time spent in an
unhooked helper is charged to the nearest hooked caller.
"""

from __future__ import annotations

import inspect
import math
import sys
import time

# Layer (module of ``elcov``) -> the functions wrapped in it.
HOOKS = {
    "hermitian": ("eig_hermitian", "sqrt_factor", "sample_covariance", "sample_training"),
    "scenario": ("jammer_covariance", "generate_training"),
    "estimators": ("smi", "fml", "rcml", "cncml", "cncml_u_star", "lsmi"),
    "likelihood": (
        "lr0_reference", "lr0_store", "lr0_load", "log_lr_value", "log_lr_rcml",
        "log_tail_lr", "lambert_w",
    ),
    "selection": (
        "select_rank", "sigma_el_roots", "sigma_ml", "select_rank_sigma",
        "select_kmax", "select_loading",
    ),
    "metrics": ("apply_inverse", "normalized_sinr", "nmf_statistic"),
    "harness": ("load_experiment_config", "run_experiment", "_write_outputs"),
    "cli": ("cli",),
}
LAYERS = tuple(HOOKS)

LR_EVAL = "likelihood.log_lr_value"
SELECTORS = ("selection.select_rank", "selection.select_kmax", "selection.select_loading")

# A loading selection "misses" when the log LR at the returned loading is
# farther than this from log lr0.  Correct stops land within ~1e-5 nats
# (the linear 1e-8 tolerance divided by lr0 >= 1e-4); the defect at lr0
# below 1e-8 misses by tens to hundreds of nats.
LR_MISS_TOL = 1e-3


class Tracer:
    """Collects spans across any number of ``with`` blocks."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._loading_calls: list[tuple] = []
        self._joint_iterations = 0
        self._log_lr_value = None

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "elcov" or name.startswith("elcov.")]
        self.absent = []
        for layer, names in HOOKS.items():
            home = sys.modules.get(f"elcov.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
                if fname == "log_lr_value":
                    self._log_lr_value = original
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = {
            "selection.select_loading": self._observe_loading,
            "selection.select_rank_sigma": self._observe_joint,
        }.get(name)
        signature = inspect.signature(fn) if observe else None

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(signature.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _observe_loading(self, arguments, beta):
        stats, lr0 = arguments.get("stats"), arguments.get("lr0")
        if stats is not None and lr0 is not None:
            self._loading_calls.append((stats.d.copy(), lr0, beta))

    def _observe_joint(self, arguments, joint):
        self._joint_iterations += getattr(joint, "iterations", 0)

    def lr_misses(self) -> int:
        """Loading selections whose log LR misses log lr0 by more than the tolerance."""
        if self._log_lr_value is None:
            return 0
        misses = 0
        for d, lr0, beta in self._loading_calls:
            if abs(self._log_lr_value(d + beta, d) - math.log(lr0)) > LR_MISS_TOL:
                misses += 1
        return misses

    def function_stats(self) -> dict[str, dict]:
        """Per hooked function: calls, raised, total_s, self_s and lr_evals."""
        n = len(self.spans)
        child_s = [0.0] * n
        evals = [0] * n
        for i in range(n - 1, -1, -1):  # children always follow their parent
            name, start, end, parent, _ = self.spans[i]
            if name == LR_EVAL:
                evals[i] += 1
            if parent >= 0:
                child_s[parent] += end - start
                evals[parent] += evals[i]
        stats: dict[str, dict] = {}
        for i, (name, start, end, _, raised) in enumerate(self.spans):
            s = stats.setdefault(
                name, {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0, "lr_evals": 0}
            )
            s["calls"] += 1
            s["raised"] += int(raised)
            s["total_s"] += end - start
            s["self_s"] += end - start - child_s[i]
            s["lr_evals"] += evals[i] - (name == LR_EVAL)
        return stats

    def per_layer(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
        fs = self.function_stats()

        def get(name, key):
            return fs.get(name, {}).get(key, 0)

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_s"] = (
                    sum(s["self_s"] for n, s in fs.items() if n.split(".")[0] == layer), "s")
        for name in (
            "likelihood.lr0_reference", "hermitian.eig_hermitian", "hermitian.sqrt_factor",
            "hermitian.sample_covariance", "hermitian.sample_training",
            "scenario.generate_training", "metrics.apply_inverse", "selection.select_rank",
        ):
            out[f"{name}.self_s"] = (get(name, "self_s"), "s")
        for name in (
            "likelihood.lr0_reference", "likelihood.log_lr_value", "estimators.cncml",
            "hermitian.sqrt_factor", "hermitian.eig_hermitian", "metrics.apply_inverse",
            "selection.sigma_el_roots", "selection.select_rank_sigma",
        ) + SELECTORS:
            out[f"{name}.calls"] = (get(name, "calls"), "count")
        for name in SELECTORS:
            calls, evals = get(name, "calls"), get(name, "lr_evals")
            out[f"{name}.lr_evals"] = (evals, "count")
            out[f"{name}.lr_evals_per_call"] = (evals / calls if calls else 0.0, "evals/call")
        out["selection.select_loading.lr_miss"] = (self.lr_misses(), "count")
        out["selection.select_rank_sigma.iterations"] = (self._joint_iterations, "count")
        out["selection.select_rank_sigma.failed"] = (get("selection.select_rank_sigma", "raised"), "count")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def dump(self, path) -> None:
        """Write every span as ``id,name,start,end,parent,raised`` CSV."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,raised\n")
            for i, (name, start, end, parent, raised) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{int(raised)}\n")
