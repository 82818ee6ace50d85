"""Layer spans for one traced CLI invocation.

The tracer wraps the public callables each pdlangevin layer exposes, at
the points where the CLI reaches them: the model builders (and, through
them, the built target's operator, proxes and subgradient), the ensemble
driver, the sweep driver, the metric functions, the closed-form oracles
and the image writer. Nothing inside the package is edited; the wrappers
are installed on module attributes and on the built objects, so tracing
costs nothing when it is not installed.

Spans nest on one stack (the CLI is single-threaded). A span's self time
is its duration minus the durations of its direct children, so the self
times of all spans sum to the root span, which is the whole ``cli.main``
call. Aggregates are kept per layer while the run goes; no per-call list
is stored, which keeps a 300k-call sweep cheap in memory.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time

# module-level callables, by the layer their calls are charged to
FUNCTION_LAYERS = {
    "run_ensemble": "samplers",
    "lambda_sweep": "coupling.sweep",
    "w2_exact": "metrics.w2_exact",
    "w2_1d": "metrics.other",
    "moments": "metrics.other",
    "pixelwise_variance": "metrics.other",
    "psnr": "metrics.other",
    "target_variance": "analytic",
    "stationary_cov_pd": "analytic",
    "gaussian_w2": "analytic",
    "save_image_pgm": "cli.io",
    "_write_csv": "cli.io",
    "_write_manifest": "cli.io",
}
BUILDERS = ("gauss1d_target", "tv2pixel_target", "tv_image_target", "tgv_image_target")

# calls that make up a sampler step; the first one ends samplers.first_step_s
KERNEL_LAYERS = frozenset(
    ("linop.apply", "linop.adjoint", "prox.g", "prox.fstar", "models.f_subgrad")
)
# layers whose entries and bytes are counted from the arrays they see
COUNTED_LAYERS = ("linop.apply", "linop.adjoint", "prox.g", "prox.fstar")
# power iteration calls K.apply/K.adjoint; charge those calls to the norm
OPAQUE_LAYERS = frozenset(("linop.norm",))


class _Layer:
    __slots__ = ("calls", "total_s", "self_s", "entries", "bytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.entries = 0
        self.bytes = 0


class Tracer:
    """Per-layer span aggregates for one process."""

    def __init__(self):
        self.layers: dict[str, _Layer] = {}
        # frames: [layer, children_s, metrics_descendants_s]
        self._stack: list[list] = []
        self._ensemble_entered: float | None = None
        self.first_step_s = 0.0
        self.steps = 0
        self.chain_steps = 0
        self.kept_bytes = 0
        self.samplers_metrics_s = 0.0
        self.w2_points = 0

    # --- installing spans ---

    def _layer(self, layer: str) -> _Layer:
        rec = self.layers.get(layer)
        if rec is None:
            rec = self.layers[layer] = _Layer()
        return rec

    def span(self, layer: str, fn):
        """Return ``fn`` wrapped in a span charged to ``layer``."""
        stack = self._stack
        clock = time.perf_counter
        rec = self._layer(layer)
        is_samplers = layer == "samplers"
        is_kernel = layer in KERNEL_LAYERS
        is_metrics = layer.startswith("metrics.")
        sized = layer in COUNTED_LAYERS
        counts = is_samplers or layer == "metrics.w2_exact"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] in OPAQUE_LAYERS:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            if is_samplers:
                self._ensemble_entered = t0
            elif is_kernel and self._ensemble_entered is not None:
                self.first_step_s += t0 - self._ensemble_entered
                self._ensemble_entered = None
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec.calls += 1
                rec.total_s += dur
                rec.self_s += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent[2] += dur if is_metrics else frame[2]
            if sized:
                rec.entries += getattr(out, "size", 0)
                rec.bytes += getattr(args[0] if args else None, "nbytes", 0) + getattr(out, "nbytes", 0)
            elif counts:
                self._count(layer, fn, args, kwargs, out, frame[2])
            return out

        return traced

    def _count(self, layer, fn, args, kwargs, out, metrics_s) -> None:
        if layer == "samplers":
            self.samplers_metrics_s += metrics_s
            self._ensemble_entered = None
            try:
                bound = inspect.signature(fn).bind(*args, **kwargs).arguments
                n_chains, n_steps = int(bound["n_chains"]), int(bound["n_steps"])
            except (TypeError, KeyError, ValueError):
                n_chains = n_steps = 0
            self.steps += n_steps
            self.chain_steps += n_chains * n_steps
            kept = sum(int(getattr(getattr(out, a, None), "nbytes", 0)) for a in ("xs", "ys"))
            self.kept_bytes = max(self.kept_bytes, kept)
        elif args:  # metrics.w2_exact
            self.w2_points += int(getattr(args[0], "n", 0))

    def install(self, package: str = "pdlangevin") -> None:
        """Wrap the layer callables in every loaded module of ``package``."""
        wrapped: dict[int, object] = {}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if not callable(value):
                    continue
                if attr in FUNCTION_LAYERS:
                    layer = FUNCTION_LAYERS[attr]
                    make = functools.partial(self.span, layer)
                elif attr in BUILDERS:
                    make = self._builder
                else:
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = make(value)
                setattr(module, attr, wrapped[id(value)])

    def _builder(self, build):
        spanned = self.span("models.build", build)

        @functools.wraps(build)
        def traced_build(*args, **kwargs):
            target = spanned(*args, **kwargs)
            self.instrument_target(target)
            return target

        return traced_build

    def instrument_target(self, target) -> None:
        """Wrap the operator, proxes and subgradient of a built target."""
        K = getattr(target, "K", None)
        if K is not None:
            for attr, layer in (("apply", "linop.apply"), ("adjoint", "linop.adjoint"),
                                ("norm", "linop.norm")):
                fn = getattr(K, attr, None)
                if callable(fn):
                    setattr(K, attr, self.span(layer, fn))
        for attr, layer in (("g_prox", "prox.g"), ("fstar_prox", "prox.fstar")):
            prox = getattr(target, attr, None)
            if dataclasses.is_dataclass(prox) and callable(getattr(prox, "eval", None)):
                setattr(target, attr, dataclasses.replace(prox, eval=self.span(layer, prox.eval)))
            elif callable(prox):
                setattr(target, attr, self.span(layer, prox))
        f_subgrad = getattr(target, "f_subgrad", None)
        if callable(f_subgrad):
            target.f_subgrad = self.span("models.f_subgrad", f_subgrad)

    # --- results ---

    def metrics(self, wall_s: float, import_s: float) -> dict[str, float]:
        """Per-layer metrics of this invocation (see bench/README.md)."""

        def rec(layer):
            return self.layers.get(layer) or _Layer()

        def ns_per_entry(layer):
            r = rec(layer)
            return 1e9 * r.total_s / r.entries if r.entries else 0.0

        def per_step(value):
            return value / self.steps if self.steps else 0.0

        samplers = rec("samplers")
        linop_bytes = rec("linop.apply").bytes + rec("linop.adjoint").bytes
        prox_bytes = rec("prox.g").bytes + rec("prox.fstar").bytes
        out = {
            "cli.self_s": rec("cli").self_s,
            "cli.io.s": rec("cli.io").total_s,
            "setup.import_s": import_s,
            "setup.build_s": rec("models.build").total_s,
            "linop.norm.s": rec("linop.norm").total_s,
            "linop.bytes_computed": float(linop_bytes),
            "linop.entries_per_step": per_step(rec("linop.apply").entries + rec("linop.adjoint").entries),
            "linop.bytes_per_step": per_step(linop_bytes),
            "prox.bytes_computed": float(prox_bytes),
            "prox.entries_per_step": per_step(rec("prox.g").entries + rec("prox.fstar").entries),
            "prox.bytes_per_step": per_step(prox_bytes),
            "samplers.self_s": samplers.self_s,
            "samplers.ns_per_chain_step": (
                1e9 * (samplers.total_s - self.samplers_metrics_s) / self.chain_steps
                if self.chain_steps else 0.0
            ),
            "samplers.chain_steps": float(self.chain_steps),
            "samplers.first_step_s": self.first_step_s,
            "samplers.kept_bytes": float(self.kept_bytes),
            "metrics.w2_exact.s": rec("metrics.w2_exact").total_s,
            "metrics.w2_exact.calls": float(rec("metrics.w2_exact").calls),
            "metrics.w2_exact.n": (
                self.w2_points / rec("metrics.w2_exact").calls if rec("metrics.w2_exact").calls else 0.0
            ),
            "metrics.other.s": rec("metrics.other").total_s,
            "models.f_subgrad.s": rec("models.f_subgrad").total_s,
            "coupling.sweep.self_s": rec("coupling.sweep").self_s,
            "analytic.s": rec("analytic").total_s,
            "trace.self_sum_s": sum(r.self_s for r in self.layers.values()),
        }
        for layer in ("linop.apply", "linop.adjoint", "prox.fstar", "prox.g"):
            out[f"{layer}.s"] = rec(layer).total_s
            out[f"{layer}.calls"] = float(rec(layer).calls)
            out[f"{layer}.ns_per_entry"] = ns_per_entry(layer)
        out["trace.wall_s"] = wall_s
        out["trace.accounted_frac"] = out["trace.self_sum_s"] / wall_s if wall_s > 0 else 0.0
        return out
