"""Markov chain update rules and ensemble execution.

Implements the primal-dual Langevin iteration (outer / inner /
generalized-noise variants), the purely primal Langevin step, the
subgradient baseline, and an Euler scheme for the bias-corrected joint
diffusion. All step functions accept states whose arrays carry an optional
leading batch axis, so an ensemble of chains advances in single vectorized
calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .linop import LinearMap
from .prox import ProxOperator


@dataclass
class TargetSpec:
    """Everything defining one sampling problem exp(-f(Kx) - g(x)).

    The proxes and the operator are mandatory; gradient-type oracles are
    optional and only required by the samplers that use them.
    """

    g_prox: ProxOperator
    fstar_prox: ProxOperator
    K: LinearMap
    g_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f_subgrad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f_hess_apply: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    fstar_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def dim_primal(self) -> int:
        return self.K.dim_in

    @property
    def dim_dual(self) -> int:
        return self.K.dim_out


@dataclass(frozen=True)
class SamplerParams:
    """Step sizes and noise configuration for one chain.

    ``sigma`` is always ``lam * tau`` exactly. ``noise_variant`` selects
    where the stochastic term enters: after the primal prox ("outer"),
    inside its argument ("inner"), or through constant coefficient blocks
    acting on a joint draw ("general"). In the general variant the blocks
    are the continuous-time coefficients; per step they enter scaled by
    sqrt(tau), so B_X = (sqrt(2) I, 0), B_Y = 0 reproduces the outer
    variant exactly.
    """

    tau: float
    lam: float
    theta: float = 1.0
    noise_variant: str = "outer"
    B_X: Optional[np.ndarray] = None
    B_Y: Optional[np.ndarray] = None
    seed: int = 0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.noise_variant not in ("outer", "inner", "general"):
            raise ValueError(f"unknown noise variant {self.noise_variant!r}")
        if self.noise_variant == "general" and (self.B_X is None or self.B_Y is None):
            raise ValueError("general noise variant requires B_X and B_Y")

    @property
    def sigma(self) -> float:
        return self.lam * self.tau


@dataclass
class ChainState:
    """State of one chain (or a batch of chains along a leading axis)."""

    x: np.ndarray
    y: np.ndarray
    x_prev: np.ndarray
    n: int = 0

    @classmethod
    def initial(cls, x: np.ndarray, y: np.ndarray) -> "ChainState":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return cls(x=x, y=y, x_prev=x.copy(), n=0)


@dataclass
class ValidationReport:
    """Step-size regime flags for a (target, params) pair."""

    L: float
    tau_sigma_L2: float
    stability_regime: bool
    contraction_regime: bool
    bias_regime: bool
    theta_min_contraction: float
    theta_min_bias: float
    notes: list[str] = field(default_factory=list)

    @property
    def any_regime(self) -> bool:
        return self.stability_regime or self.contraction_regime or self.bias_regime


def validate_params(
    target: TargetSpec, params: SamplerParams, L: Optional[float] = None
) -> ValidationReport:
    """Check the step sizes against the stability / contraction / bias regimes.

    Raises only on nonpositive step sizes or on ``theta * tau * sigma * L^2 > 1``;
    everything else is reported as flags. Strong-convexity moduli are read
    from the prox metadata (0 when unknown, the conservative default).
    """
    if params.tau <= 0 or params.sigma <= 0:
        raise ValueError("step sizes must be positive")
    if L is None:
        L = target.K.norm()
    tsl = params.tau * params.sigma * L * L
    if params.theta * tsl > 1.0 + 1e-12:
        raise ValueError(
            f"theta*tau*sigma*L^2 = {params.theta * tsl:.6g} > 1: iteration may diverge"
        )
    omega_g = target.g_prox.modulus
    omega_fs = target.fstar_prox.modulus
    theta_min_contr = max(
        1.0 / (1.0 + 2.0 * omega_g * params.tau),
        1.0 / (1.0 + 2.0 * omega_fs * params.sigma),
    )
    theta_min_bias = max(
        1.0 / (1.0 + omega_g * params.tau),
        1.0 / (1.0 + omega_fs * params.sigma),
    )
    stability = params.theta == 1.0 and tsl <= 1.0 + 1e-12
    contraction = theta_min_contr <= params.theta < 1.0 and params.theta * tsl <= 1.0 + 1e-12
    bias = theta_min_bias <= params.theta < 1.0 and params.theta * tsl <= 1.0 + 1e-12
    notes = []
    if not stability and not contraction:
        notes.append(
            f"theta={params.theta} outside both the theta=1 stability regime and "
            f"the contraction window [{theta_min_contr:.6g}, 1)"
        )
    return ValidationReport(
        L=L,
        tau_sigma_L2=tsl,
        stability_regime=stability,
        contraction_regime=contraction,
        bias_regime=bias,
        theta_min_contraction=theta_min_contr,
        theta_min_bias=theta_min_bias,
        notes=notes,
    )


def _check_dims(state: ChainState, target: TargetSpec) -> None:
    if state.x.shape[-1] != target.dim_primal or state.y.shape[-1] != target.dim_dual:
        raise ValueError(
            f"state dims x{state.x.shape}/y{state.y.shape} do not match target "
            f"({target.dim_primal}, {target.dim_dual})"
        )


def ulpda_step(
    state: ChainState, target: TargetSpec, params: SamplerParams, rng
) -> ChainState:
    """One primal-dual Langevin step: dual prox ascent on the extrapolated
    primal point, primal prox descent, then noise injection per variant."""
    _check_dims(state, target)
    tau, sigma, theta = params.tau, params.sigma, params.theta
    K = target.K
    # Work in place only on arrays made here: the state's arrays, the noise
    # and what K or a prox returns may be shared with the caller. IEEE sums
    # and products commute, so the swapped operands change no bit.
    x_theta = state.x - state.x_prev
    x_theta *= theta
    x_theta += state.x
    dual_arg = sigma * K.apply(x_theta)
    dual_arg += state.y
    y_new = target.fstar_prox.eval(dual_arg, sigma)
    drift_arg = tau * K.adjoint(y_new)
    np.subtract(state.x, drift_arg, out=drift_arg)
    if params.noise_variant == "outer":
        x_new = math.sqrt(2.0 * tau) * rng.standard_normal(state.x.shape)
        x_new += target.g_prox.eval(drift_arg, tau)
    elif params.noise_variant == "inner":
        drift_arg += math.sqrt(2.0 * tau) * rng.standard_normal(state.x.shape)
        x_new = target.g_prox.eval(drift_arg, tau)
    else:  # general
        d, m = target.dim_primal, target.dim_dual
        xi = rng.standard_normal(state.x.shape[:-1] + (d + m,))
        root_tau = math.sqrt(tau)
        x_new = root_tau * (xi @ np.asarray(params.B_X).T)
        x_new += target.g_prox.eval(drift_arg, tau)
        y_new = y_new + root_tau * (xi @ np.asarray(params.B_Y).T)
    return ChainState(x=x_new, y=y_new, x_prev=state.x, n=state.n + 1)


def ula_step(
    state: ChainState, target: TargetSpec, params: SamplerParams, rng
) -> ChainState:
    """Euler step of the overdamped primal diffusion; the dual is untouched."""
    if target.h_grad is None:
        raise ValueError("ula_step requires the full-potential gradient h_grad")
    tau = params.tau
    xi = rng.standard_normal(state.x.shape)
    x_new = state.x - tau * target.h_grad(state.x) + math.sqrt(2.0 * tau) * xi
    return ChainState(x=x_new, y=state.y, x_prev=state.x, n=state.n + 1)


def prox_sub_step(
    state: ChainState, target: TargetSpec, params: SamplerParams, rng
) -> ChainState:
    """Subgradient baseline: the dual is set to an exact element of the
    subdifferential of f at Kx (the minimal-norm one at kinks), then the
    primal takes a prox-gradient Langevin step."""
    if target.f_subgrad is None:
        raise ValueError("prox_sub_step requires f_subgrad")
    _check_dims(state, target)
    tau = params.tau
    y_new = target.f_subgrad(target.K.apply(state.x))
    drift = target.g_prox.eval(state.x - tau * target.K.adjoint(y_new), tau)
    xi = rng.standard_normal(state.x.shape)
    x_new = drift + math.sqrt(2.0 * tau) * xi
    return ChainState(x=x_new, y=y_new, x_prev=state.x, n=state.n + 1)


def modified_sde_step(
    state: ChainState, target: TargetSpec, params: SamplerParams, rng
) -> ChainState:
    """Euler-Maruyama step of the bias-corrected joint diffusion.

    Requires smooth data: gradients of g, f and the conjugate, plus the
    Hessian action of f. The dual receives the primal noise mapped through
    the transposed sensitivity M(x) = K^T H_f(Kx).
    """
    for name in ("g_grad", "f_grad", "f_hess_apply", "fstar_grad"):
        if getattr(target, name) is None:
            raise ValueError(f"modified_sde_step requires {name}")
    _check_dims(state, target)
    tau, lam = params.tau, params.lam
    K = target.K
    u = K.apply(state.x)
    grad_g = target.g_grad(state.x)
    grad_h = grad_g + K.adjoint(target.f_grad(u))

    def mt(v):  # M(x)^T v = H_f(Kx) K v
        return target.f_hess_apply(u, K.apply(v))

    xi = rng.standard_normal(state.x.shape)
    root = math.sqrt(2.0 * tau)
    x_new = state.x - tau * (grad_g + K.adjoint(state.y)) + root * xi
    y_drift = lam * (target.fstar_grad(state.y) - u) + mt(grad_h)
    y_new = state.y - tau * y_drift + root * mt(xi)
    return ChainState(x=x_new, y=y_new, x_prev=state.x, n=state.n + 1)


_STEP_FNS = {
    "ulpda": ulpda_step,
    "ula": ula_step,
    "prox_sub": prox_sub_step,
    "modified_sde": modified_sde_step,
}


def _noise_dim(target: TargetSpec, params: SamplerParams, kind: str) -> int:
    """Length of one chain's standard-normal draw per step."""
    general = kind == "ulpda" and params.noise_variant == "general"
    return target.dim_primal + target.dim_dual if general else target.dim_primal


class _FixedNoise:
    """rng stand-in handing out a precomputed standard-normal draw."""

    __slots__ = ("value",)

    def __init__(self, value: np.ndarray):
        self.value = value

    def standard_normal(self, shape) -> np.ndarray:
        if tuple(shape) != self.value.shape:
            raise ValueError(f"noise shape {self.value.shape} != requested {tuple(shape)}")
        return self.value


@dataclass
class SampleStore:
    """Thinned post-burn-in samples of an ensemble run.

    ``xs`` and ``ys`` have shape (n_kept, n_chains, dim); flattened views
    pool chains and time into a single sample cloud.
    """

    xs: np.ndarray
    ys: np.ndarray
    params: SamplerParams
    kind: str
    n_chains: int
    n_steps: int
    burn_in: int
    thinning: int

    @property
    def x_samples(self) -> np.ndarray:
        return self.xs.reshape(-1, self.xs.shape[-1])

    @property
    def y_samples(self) -> np.ndarray:
        return self.ys.reshape(-1, self.ys.shape[-1])

    @property
    def final_x(self) -> np.ndarray:
        return self.xs[-1]

    @property
    def final_y(self) -> np.ndarray:
        return self.ys[-1]


def _chain_rngs(seed: int, n_chains: int) -> list[np.random.Generator]:
    # counter-based Philox streams keyed by (master seed, chain index):
    # reproducible and independent of any worker layout
    return [
        np.random.Generator(np.random.Philox(seed=np.random.SeedSequence([seed, i])))
        for i in range(n_chains)
    ]


def _resolve_init(init, n_chains: int, d: int, m: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    if init is None:
        return np.zeros((n_chains, d)), np.zeros((n_chains, m))
    if isinstance(init, tuple) and len(init) >= 1 and isinstance(init[0], str):
        if init[0] == "point":
            _, x0, y0 = init
            X = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains, d)).copy()
            Y = np.broadcast_to(np.asarray(y0, dtype=float), (n_chains, m)).copy()
            return X, Y
        if init[0] == "gaussian":
            scale = float(init[1])
            X = np.stack([scale * r.standard_normal(d) for r in rngs])
            Y = np.stack([scale * r.standard_normal(m) for r in rngs])
            return X, Y
        raise ValueError(f"unknown init spec {init[0]!r}")
    X0, Y0 = init
    X = np.array(X0, dtype=float).reshape(n_chains, d)
    Y = np.array(Y0, dtype=float).reshape(n_chains, m)
    return X, Y


def run_ensemble(
    target: TargetSpec,
    params: SamplerParams,
    n_chains: int,
    n_steps: int,
    burn_in: int = 0,
    init=None,
    thinning: int = 1,
    kind: str = "ulpda",
    checkpoints: Optional[Sequence[int]] = None,
    on_checkpoint: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
    noise_block: int = 256,
) -> SampleStore:
    """Run ``n_chains`` independent chains and collect thinned samples.

    Each chain owns a counter-based RNG stream derived from
    ``(params.seed, chain_index)``, so results are bit-reproducible and
    independent of batching. Samples are kept every ``thinning`` steps
    after ``burn_in`` (plus the initial state when ``burn_in`` is 0), in
    arrays of shape (n_kept, n_chains, dim) allocated before the first
    step. Noise is drawn ``noise_block`` steps at a time into one reused
    buffer of at most 2**22 doubles (32 MB); fewer steps per block when
    the ensemble is large. Optional checkpoints invoke a callback with the
    current (X, Y) ensemble arrays at selected step counts; the sampler
    never writes into arrays it has handed out.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    if thinning < 1:
        raise ValueError("thinning must be >= 1")
    validate_params(target, params)
    step_fn = _STEP_FNS[kind]
    d, m = target.dim_primal, target.dim_dual
    noise_dim = _noise_dim(target, params, kind)

    rngs = _chain_rngs(params.seed, n_chains)
    X, Y = _resolve_init(init, n_chains, d, m, rngs)
    state = ChainState.initial(X, Y)

    # every thinning-th step after burn_in, from the first such step >= 1
    first_kept = burn_in + thinning * max(1, -((burn_in - 1) // thinning))
    kept_steps = range(first_kept, n_steps + 1, thinning)
    keep_init = burn_in == 0 and n_steps >= 0
    n_kept = keep_init + len(kept_steps)
    xs = np.empty((max(n_kept, 1), n_chains, d))
    ys = np.empty((max(n_kept, 1), n_chains, m))
    n_filled = 0
    if keep_init:
        xs[0], ys[0] = state.x, state.y
        n_filled = 1
    checkpoint_set = set(checkpoints) if checkpoints is not None else set()

    # cap the noise buffer at 2**22 doubles (32 MB)
    block = max(1, min(noise_block, (1 << 22) // max(1, n_chains * noise_dim)))
    noise = np.empty((min(block, max(n_steps, 0)), n_chains, noise_dim))
    step = 0
    while step < n_steps:
        nb = min(block, n_steps - step)
        for i, r in enumerate(rngs):
            noise[:nb, i, :] = r.standard_normal((nb, noise_dim))
        for j in range(nb):
            state = step_fn(state, target, params, _FixedNoise(noise[j]))
            step += 1
            if step in kept_steps:
                xs[n_filled], ys[n_filled] = state.x, state.y
                n_filled += 1
            if step in checkpoint_set and on_checkpoint is not None:
                on_checkpoint(step, state.x, state.y)
    if n_kept == 0:
        xs[0], ys[0] = state.x, state.y
    return SampleStore(
        xs=xs,
        ys=ys,
        params=params,
        kind=kind,
        n_chains=n_chains,
        n_steps=n_steps,
        burn_in=burn_in,
        thinning=thinning,
    )
