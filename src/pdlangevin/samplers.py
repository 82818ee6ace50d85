"""Markov chain step kernels and the run that drives them.

Each sampler is built once, by :func:`make_step`, as a kernel
``step(state, xi) -> state``: a deterministic map of the chain state and a
standard-normal draw. The samplers are the primal-dual Langevin iteration
(outer / inner / generalized-noise variants), the purely primal Langevin
step, the subgradient baseline, and an Euler scheme for the bias-corrected
joint diffusion. States carry a leading chain axis, and a kernel built for
P parameter points a further leading point axis. Every run, of an
ensemble, a batched sweep, an image posterior or a coupled pair, is a
:class:`Run` built by :func:`prepare_run`; ``Run.drive(*reducers)`` steps
it, hands each reducer the states it asks for, and is the one place that
checks the chains stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

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
    acting on a joint draw ("general"). Only the general variant takes
    B_X and B_Y, LinearMaps from the draw's ``dim_in`` values to the primal
    and the dual: the continuous-time coefficients. Per step they enter
    scaled by sqrt(tau), so B_X = (sqrt(2) I, 0), B_Y = 0 reproduces the
    outer variant exactly.
    """

    tau: float
    lam: float
    theta: float = 1.0
    noise_variant: str = "outer"
    B_X: Optional[LinearMap] = None
    B_Y: Optional[LinearMap] = None
    seed: int = 0

    def __post_init__(self):
        # NaN fails every comparison, so these reject it too
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.noise_variant not in ("outer", "inner", "general"):
            raise ValueError(f"unknown noise variant {self.noise_variant!r}")
        want = LinearMap if self.noise_variant == "general" else type(None)
        if not (isinstance(self.B_X, want) and isinstance(self.B_Y, want)):
            raise ValueError("B_X and B_Y must be LinearMaps in the general noise variant "
                             "and absent in the others")

    @property
    def sigma(self) -> float:
        return self.lam * self.tau


@dataclass
class ChainState:
    """State of one chain (or a batch of chains along a leading axis)."""

    x: np.ndarray
    y: np.ndarray
    x_prev: np.ndarray

    @classmethod
    def initial(cls, x: np.ndarray, y: np.ndarray) -> "ChainState":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return cls(x=x, y=y, x_prev=x)  # kernels never write into a state


# step(state, xi) -> next state; built by make_step
Kernel = Callable[[ChainState, np.ndarray], ChainState]


class DivergenceError(ValueError):
    """A chain's state has a non-finite entry; ``chain`` is its row (within
    point ``point`` of a batched run, else ``point`` is None) and ``step``
    the number of steps taken when it was found."""

    def __init__(self, chain: int, step: int, point: Optional[int] = None):
        where = f"chain {chain}" if point is None else f"chain {chain} of point {point}"
        super().__init__(f"{where} diverged: non-finite state at step {step}")
        self.chain, self.step, self.point = chain, step, point


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


def validate_params(target: TargetSpec, params: SamplerParams) -> ValidationReport:
    """Check the step sizes against the stability / contraction / bias regimes.

    Raises only on nonpositive step sizes or on ``theta * tau * sigma * L^2 > 1``;
    everything else is reported as flags. ``L`` is the certified bound
    ``target.K.norm()``, so the contract holds for the true norm. Strong-convexity
    moduli are read from the prox metadata (0 when unknown, the conservative default).
    """
    if params.tau <= 0 or params.sigma <= 0:
        raise ValueError("step sizes must be positive")
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
    return ValidationReport(L=L, tau_sigma_L2=tsl, stability_regime=stability,
                            contraction_regime=contraction, bias_regime=bias,
                            theta_min_contraction=theta_min_contr,
                            theta_min_bias=theta_min_bias, notes=notes)


def _ulpda_kernel(target: TargetSpec, shared: SamplerParams, c: dict) -> Kernel:
    """Primal-dual Langevin step: dual prox ascent on the extrapolated primal
    point, primal prox descent, then noise injection per variant."""
    tau, sigma, theta = c["tau"], c["sigma"], c["theta"]
    root_2tau, root_tau = c["root_2tau"], c["root_tau"]
    K, variant = target.K, shared.noise_variant
    fstar_prox, g_prox = target.fstar_prox.at(sigma), target.g_prox.at(tau)
    extrapolate = not np.all(np.equal(theta, 1.0))  # x * 1.0 is x, NaN and -0.0 too
    B_X, B_Y = shared.B_X, shared.B_Y
    if variant == "general" and (B_X.dim_in, B_X.dim_out, B_Y.dim_out) != (
            B_Y.dim_in, target.dim_primal, target.dim_dual):
        raise ValueError(f"B_X and B_Y must map one noise dimension to {target.dim_primal} "
                         f"primal and {target.dim_dual} dual values")

    def step(state: ChainState, xi: np.ndarray) -> ChainState:
        # Work in place only on arrays made here: the state's arrays, the
        # noise and what K or a prox returns may be shared with the caller.
        # IEEE sums and products commute, so swapped operands change no bit.
        x_theta = state.x - state.x_prev
        if extrapolate:
            x_theta *= theta
        x_theta += state.x
        dual_arg = sigma * K.apply(x_theta)
        dual_arg += state.y
        y_new = fstar_prox(dual_arg)
        drift_arg = tau * K.adjoint(y_new)
        np.subtract(state.x, drift_arg, out=drift_arg)
        if variant == "outer":
            x_new = root_2tau * xi
            x_new += g_prox(drift_arg)
        elif variant == "inner":
            drift_arg += root_2tau * xi
            x_new = g_prox(drift_arg)
        else:  # general: xi is a joint draw of B_X.dim_in values
            x_new = root_tau * B_X.apply(xi)
            x_new += g_prox(drift_arg)
            y_new = y_new + root_tau * B_Y.apply(xi)
        return ChainState(x=x_new, y=y_new, x_prev=state.x)

    return step


def _ula_kernel(target: TargetSpec, shared: SamplerParams, c: dict) -> Kernel:
    """Euler step of the overdamped diffusion on g(x) + f(Kx); the dual is untouched."""
    if target.g_grad is None or target.f_grad is None:
        raise ValueError("ula requires g_grad and f_grad")
    K, tau, root_2tau = target.K, c["tau"], c["root_2tau"]

    def step(state: ChainState, xi: np.ndarray) -> ChainState:
        grad_h = target.g_grad(state.x) + K.adjoint(target.f_grad(K.apply(state.x)))
        x_new = state.x - tau * grad_h + root_2tau * xi
        return ChainState(x=x_new, y=state.y, x_prev=state.x)

    return step


def _prox_sub_kernel(target: TargetSpec, shared: SamplerParams, c: dict) -> Kernel:
    """Subgradient baseline: the dual is set to an exact element of the
    subdifferential of f at Kx (the minimal-norm one at kinks), then the
    primal takes a prox-gradient Langevin step."""
    if target.f_subgrad is None:
        raise ValueError("prox_sub requires f_subgrad")
    K, tau, root_2tau = target.K, c["tau"], c["root_2tau"]
    g_prox = target.g_prox.at(tau)

    def step(state: ChainState, xi: np.ndarray) -> ChainState:
        y_new = target.f_subgrad(K.apply(state.x))
        drift = g_prox(state.x - tau * K.adjoint(y_new))
        x_new = drift + root_2tau * xi
        return ChainState(x=x_new, y=y_new, x_prev=state.x)

    return step


def _modified_sde_kernel(target: TargetSpec, shared: SamplerParams, c: dict) -> Kernel:
    """Euler-Maruyama step of the bias-corrected joint diffusion.

    Requires smooth data: gradients of g, f and the conjugate, plus the
    Hessian action of f. The dual receives the primal noise mapped through
    the transposed sensitivity M(x) = K^T H_f(Kx).
    """
    for name in ("g_grad", "f_grad", "f_hess_apply", "fstar_grad"):
        if getattr(target, name) is None:
            raise ValueError(f"modified_sde requires {name}")
    K, tau, lam, root_2tau = target.K, c["tau"], c["lam"], c["root_2tau"]

    def step(state: ChainState, xi: np.ndarray) -> ChainState:
        u = K.apply(state.x)
        grad_g = target.g_grad(state.x)
        grad_h = grad_g + K.adjoint(target.f_grad(u))

        def mt(v):  # M(x)^T v = H_f(Kx) K v
            return target.f_hess_apply(u, K.apply(v))

        x_new = state.x - tau * (grad_g + K.adjoint(state.y)) + root_2tau * xi
        y_drift = lam * (target.fstar_grad(state.y) - u) + mt(grad_h)
        y_new = state.y - tau * y_drift + root_2tau * mt(xi)
        return ChainState(x=x_new, y=y_new, x_prev=state.x)

    return step


_KERNELS = {
    "ulpda": _ulpda_kernel,
    "ula": _ula_kernel,
    "prox_sub": _prox_sub_kernel,
    "modified_sde": _modified_sde_kernel,
}

# one SamplerParams, or one per point of a batched run
Params = Union[SamplerParams, Sequence[SamplerParams]]


def _points(params: Params) -> tuple[SamplerParams, ...]:
    points = (params,) if isinstance(params, SamplerParams) else tuple(params)
    if not points:
        raise ValueError("a batched run needs at least one SamplerParams")
    return points


def _coefficients(points: Sequence[SamplerParams], rows: Optional[tuple[int, ...]]) -> dict:
    """Each point's step sizes and noise scales: Python floats for an unbatched
    run (``rows`` None), else ``rows + (1,)`` arrays, point j's in row block j."""
    each = [
        dict(tau=p.tau, sigma=p.sigma, theta=p.theta, lam=p.lam,
             root_2tau=math.sqrt(2.0 * p.tau), root_tau=math.sqrt(p.tau))
        for p in points
    ]
    if rows is None:
        return each[0]
    return {k: np.repeat([c[k] for c in each], rows[1]).reshape(rows + (1,)) for k in each[0]}


def make_step(kind: str, target: TargetSpec, params: Params) -> Kernel:
    """Build the step kernel ``step(state, xi) -> ChainState`` of one sampler.

    ``kind`` is "ulpda" (variant from ``params.noise_variant``), "ula",
    "prox_sub" or "modified_sde". Everything fixed for the run is settled
    here, once: the oracle and block checks, the proxes bound to their step
    sizes (a missing oracle, blocks that do not give d and m values from one
    draw, or a step size a prox rejects raises ``ValueError``) and the noise
    scales. The kernel maps the state and a standard-normal draw
    ``xi`` of shape ``state.x.shape[:-1] + (step.noise_dim,)`` to the next
    state (``noise_dim`` is d, or the blocks' ``dim_in`` in the general
    variant). It does not check the dimensions of what it is given and never
    writes into the state, the noise, or anything K or a prox returns. Each
    kernel maps every chain row on its own, as its LinearMaps do, so any
    slab of rows steps to the bits the whole state gives them.

    ``params`` is one :class:`SamplerParams`, whose step sizes enter as
    scalars, or a sequence of P of them, one per point of a batched run.
    A batched kernel takes states of shape (P, n_rows, dim), point j in
    row block j, and holds tau, sigma, theta, lam and the noise scales as
    (P, 1, 1) columns; a batched run's kernel holds them as (P, n_chains,
    1) arrays, made once, so that its products have operands of one shape.
    Each element gets the IEEE result the scalar gives, so every point's
    chains are bit-identical to an unbatched run of that point. The points
    must share the noise variant and block objects (``ValueError`` otherwise).
    """
    return _make_step(kind, target, params, 1)


def _make_step(kind: str, target: TargetSpec, params: Params, n_rows: int) -> Kernel:
    """:func:`make_step`, holding a batched kernel's step sizes as (P, n_rows, 1) arrays."""
    if kind not in _KERNELS:
        raise ValueError(f"unknown sampler kind {kind!r}; choose from {tuple(_KERNELS)}")
    points = _points(params)
    shared = points[0]
    for p in points[1:]:
        if (p.noise_variant != shared.noise_variant
                or p.B_X is not shared.B_X or p.B_Y is not shared.B_Y):
            raise ValueError("the points of a batched run must share the noise variant and blocks")
    rows = None if isinstance(params, SamplerParams) else (len(points), n_rows)
    step = _KERNELS[kind](target, shared, _coefficients(points, rows))
    general = kind == "ulpda" and shared.noise_variant == "general"
    step.noise_dim = shared.B_X.dim_in if general else target.dim_primal
    return step


@dataclass
class SampleStore:
    """Thinned post-burn-in samples of an ensemble run.

    ``xs`` and ``ys`` have shape (n_kept, n_chains, dim); flattened views
    pool chains and time into a single sample cloud.
    """

    xs: np.ndarray
    ys: np.ndarray
    params: SamplerParams

    @property
    def x_samples(self) -> np.ndarray:
        return self.xs.reshape(-1, self.xs.shape[-1])

    @property
    def y_samples(self) -> np.ndarray:
        return self.ys.reshape(-1, self.ys.shape[-1])

    @property
    def final_x(self) -> np.ndarray:
        return self.xs[-1]


def _chain_rngs(seed: int, n_chains: int) -> np.ndarray:
    # counter-based Philox streams keyed by (master seed, chain index):
    # reproducible and independent of any worker layout
    rngs = np.empty(n_chains, dtype=object)
    rngs[:] = [
        np.random.Generator(np.random.Philox(seed=np.random.SeedSequence([seed, i])))
        for i in range(n_chains)
    ]
    return rngs


# Noise buffers hold at most this many doubles (32 MB) per run.
_NOISE_CAP = 1 << 22
# Bytes of chain rows per slab of Run.drive: 2 chains at 128x128 TV. A
# state of 4 slabs or fewer steps whole: there per-call overhead dominates.
_SLAB_BYTES = 768 << 10
# Normals per generator call from which Run.drive draws on a worker thread,
# and the size of its pipelined draws: each block is the fewest steps that
# reach it. The fill releases the GIL; below this the GIL hand-offs between
# the threads cost more than the overlap saves (at 256 normals per call, a
# 64-chain gauss1d sweep ran 16-23% slower threaded).
_PIPELINE_MIN_DRAW = 4096


@dataclass(frozen=True)
class Run:
    """One prepared run: the kernel, the initial state, the noise streams,
    the number of steps and the step counts ``kept`` whose states the
    reducers see by default (see :func:`kept_steps`).

    The rows of ``state`` are its leading axes: (n_chains,), or (P,
    n_chains) for a batched kernel. ``rngs`` is an array of generators
    whose shape broadcasts to the rows: one per row, one per chain that
    every point shares, or a single one whose draws every row shares
    (coupled chains).
    """

    step: Kernel
    state: ChainState
    rngs: np.ndarray
    n_steps: int
    kept: range

    def drive(self, *reducers, block: int = 256) -> None:
        """Advance the chains by ``n_steps`` kernel steps and hand the states
        to the reducers. A reducer is a callable ``reducer(i, state)``, which
        sees the states after the ``kept`` steps, or a pair ``(steps,
        reducer)``, whose reducer sees the states after ``steps``, strictly
        ascending step counts. Either way it sees them in order, with i the
        index of the step in its set.
        Reducers keep what they need, not the states: a state held past the
        run would be freed after the noise buffers, and glibc's heap-trim
        threshold rises when a buffer that size is unmapped, so the heap
        that held the states could stay mapped.

        Each generator draws once per step and ``np.broadcast_to`` hands
        its draw to every row it serves. Noise is drawn in blocks of at most
        ``block`` steps, in at most 2**22 doubles (32 MB) of buffers; each
        generator's stream does not depend on the blocking.

        The run is pipelined when its lead, the fewest steps at which each
        generator call draws ``_PIPELINE_MIN_DRAW`` normals, is shorter than
        the run and fits within ``block`` steps and within half the cap (a
        one-step lead always fits): one step at 128x128 TV, two at 32x32
        TGV. Its blocks are then lead steps long, in two buffers: one worker
        thread fills block b + 1 into the idle buffer while the kernel steps
        through block b, and the loop waits for that fill before it starts
        block b + 1 (the fill releases the GIL). Drawing further ahead buys
        no speed and holds memory. Otherwise blocks of ``block`` steps, or
        as many as the cap holds, are filled inline into one buffer before
        each block. Either way, during the run only one thread at a time
        touches the generators, in the same order, so every stream and every
        state is the same bit for bit. This holds because kernels never
        write into ``xi`` and never return a view of it: a state that kept
        one would change under the next fill. A fill that raises re-raises
        here unchanged, and the worker has exited when ``drive`` returns or
        raises.

        An unbatched state of over 4 * ``_SLAB_BYTES`` (3 MiB of x and y)
        steps in slabs of that many bytes of chain rows (at least one),
        copied into one new x and y per step. Each numpy pass then stays in
        a 2 MiB L2, and every chain keeps its bits (see :func:`make_step`).
        Batched runs and smaller states step whole.

        Every state is checked before a reducer could see it: the sums of x
        and of y, and a search of the rows only when one of them is not
        finite (a sum of finite entries may overflow). The first non-finite
        row raises :class:`DivergenceError`.
        """
        step, state, n_steps, rngs = self.step, self.state, self.n_steps, self.rngs
        rows, dim = state.x.shape[:-1], step.noise_dim
        step = _in_slabs(step, state.x, state.y)
        streams = rngs.ravel()
        per_step = max(1, streams.size * dim)
        lead = -(-_PIPELINE_MIN_DRAW // max(1, dim))  # fewest steps that draw that many
        pipelined = lead < n_steps and lead <= max(1, min(block, (_NOISE_CAP // 2) // per_step))
        block = lead if pipelined else max(1, min(block, _NOISE_CAP // per_step))
        buffers = [np.empty((min(block, n_steps), streams.size, dim)) for _ in range(1 + pipelined)]
        # the draws' shape with unit axes for the rows the generators do not span
        drawn = (1,) * (len(rows) - rngs.ndim) + rngs.shape + (dim,)
        starts = range(0, n_steps, block)

        def listener(steps: Iterable[int], reducer) -> Callable[[int, ChainState], None]:
            """Call ``reducer(i, state)`` after the i-th step of ``steps``."""
            it, i = iter(steps), -1
            due = next(it, -1)

            def listen(n: int, s: ChainState) -> None:
                nonlocal i, due
                if n == due:
                    i += 1
                    reducer(i, s)
                    due = next(it, -1)

            return listen

        listeners = [listener(*r) if isinstance(r, tuple) else listener(self.kept, r)
                     for r in reducers]

        def fill(k: int) -> np.ndarray:
            """Block k's draws, in buffer k mod 2: never the buffer of block
            k - 1, which the kernel may still be reading."""
            buffer, nb = buffers[k % len(buffers)], min(block, n_steps - starts[k])
            for i, r in enumerate(streams):
                buffer[:nb, i, :] = r.standard_normal((nb, dim))
            return np.broadcast_to(buffer[:nb].reshape((nb,) + drawn), (nb,) + rows + (dim,))

        def visit(n: int, s: ChainState) -> None:
            if not (math.isfinite(s.x.sum()) and math.isfinite(s.y.sum())):
                bad = ~(np.isfinite(s.x).all(axis=-1) & np.isfinite(s.y).all(axis=-1))
                if bad.any():
                    *point, chain = (int(i) for i in np.unravel_index(bad.argmax(), bad.shape))
                    raise DivergenceError(chain, n, *point)
            for listen in listeners:
                listen(n, s)

        visit(0, state)
        worker = None
        if pipelined:  # imported here: it costs the inline runs 0.6 MB of RSS
            from concurrent.futures import ThreadPoolExecutor

            worker = ThreadPoolExecutor(max_workers=1)
        try:
            ahead = worker.submit(fill, 0) if worker else None
            n = 0
            for k in range(len(starts)):
                xi = ahead.result() if worker else fill(k)
                if worker and k + 1 < len(starts):
                    ahead = worker.submit(fill, k + 1)
                for x in xi:
                    state = step(state, x)
                    n += 1
                    visit(n, state)
        finally:
            if worker:  # waits for a fill still running
                worker.shutdown()


def _in_slabs(step: Kernel, x: np.ndarray, y: np.ndarray) -> Kernel:
    """``step``, or, if the state is unbatched and over 4 slabs, ``step`` on
    a slab of chain rows at a time (see :meth:`Run.drive`)."""
    if not (x.ndim == 2 and x.nbytes + y.nbytes > 4 * _SLAB_BYTES):
        return step
    n = max(1, _SLAB_BYTES // (x[0].nbytes + y[0].nbytes))

    def slabbed(state: ChainState, xi: np.ndarray) -> ChainState:
        x_next, y_next = np.empty_like(state.x), np.empty_like(state.y)
        for a in range(0, len(x_next), n):
            rows = slice(a, a + n)
            s = step(ChainState(state.x[rows], state.y[rows], state.x_prev[rows]), xi[rows])
            x_next[rows], y_next[rows] = s.x, s.y
        return ChainState(x=x_next, y=y_next, x_prev=state.x)

    return slabbed


def kept_steps(n_steps: int, burn_in: int, thinning: int) -> range:
    """The step counts whose states an ensemble run keeps: the initial
    state when there is no burn-in, then every ``thinning``-th step after
    ``burn_in``; the final state when that is none."""
    kept = range(burn_in + thinning if burn_in else 0, n_steps + 1, thinning)
    return kept or range(n_steps, n_steps + 1)


def prepare_run(
    target: TargetSpec,
    params: Params,
    n_chains: int,
    n_steps: int,
    burn_in: int = 0,
    thinning: int = 1,
    kind: str = "ulpda",
    init=None,
) -> Run:
    """Check an ensemble run's arguments, run ``validate_params`` on every
    point and build the :class:`Run` (see :func:`make_step`).

    Point j's chain i draws from the stream keyed by (seed_j, i). Points
    that all have one seed share one generator per chain, whose draws are
    broadcast over the points; otherwise every point gets its own.
    ``init`` is None (all chains at zero) or an (X, Y) pair of (n_chains, d)
    and (n_chains, m) arrays, which every point starts from. This is where
    states enter from outside, so it is the one dimension check: kernels
    trust their input.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    if n_steps < 0 or burn_in < 0:
        raise ValueError(f"n_steps and burn_in must be >= 0, got {n_steps} and {burn_in}")
    if thinning < 1:
        raise ValueError("thinning must be >= 1")
    points = _points(params)
    for p in points:
        validate_params(target, p)
    step = _make_step(kind, target, params, n_chains)
    if len({p.seed for p in points}) == 1:
        rngs = _chain_rngs(points[0].seed, n_chains)
    else:
        rngs = np.stack([_chain_rngs(p.seed, n_chains) for p in points])
    want = (n_chains, target.dim_primal), (n_chains, target.dim_dual)
    if init is None:
        X, Y = np.zeros(want[0]), np.zeros(want[1])
    else:
        X, Y = (np.asarray(a, dtype=float) for a in init)
        if (X.shape, Y.shape) != want:
            raise ValueError(
                f"init shapes x{X.shape}/y{Y.shape} do not match the "
                f"target's x{want[0]}/y{want[1]}"
            )
    if not isinstance(params, SamplerParams):  # every point starts from the same arrays
        X, Y = (np.stack([a] * len(points)) for a in (X, Y))
    return Run(step, ChainState.initial(X, Y), rngs, n_steps, kept_steps(n_steps, burn_in, thinning))


class KeepSamples:
    """Reducer that stores the primal rows of the kept states in ``xs`` and,
    with ``dual``, their dual rows in ``ys`` (else None): arrays of shape
    batch + (n_kept, n_chains, dim), allocated before the first step."""

    def __init__(self, run: Run, dual: bool = True):
        *batch, n_chains, d = run.state.x.shape
        shape = (*batch, len(run.kept), n_chains)
        self.xs = np.empty(shape + (d,))
        self.ys = np.empty(shape + run.state.y.shape[-1:]) if dual else None
        # kept-step-major views: x[i] = ... is cheaper than xs[..., i, :, :] = ...
        self._x = np.moveaxis(self.xs, len(batch), 0)
        self._y = None if self.ys is None else np.moveaxis(self.ys, len(batch), 0)

    def __call__(self, i: int, state: ChainState) -> None:
        self._x[i] = state.x
        if self._y is not None:
            self._y[i] = state.y


def run_ensemble(
    target: TargetSpec,
    params: Params,
    n_chains: int,
    n_steps: int,
    burn_in: int = 0,
    init=None,
    thinning: int = 1,
    kind: str = "ulpda",
    noise_block: int = 256,
):
    """Run ``n_chains`` independent chains and collect thinned samples: the
    :class:`Run` of :func:`prepare_run` (its arguments are this function's),
    driven with one :class:`KeepSamples` and noise blocks of at most
    ``noise_block`` steps (see :meth:`Run.drive`). Each chain owns a
    counter-based RNG stream derived from ``(params.seed, chain_index)``, so
    results are bit-reproducible and independent of batching and blocking.

    With a sequence of P :class:`SamplerParams` (say, the points of a
    sweep) all P ensembles advance as one batched run (see
    :func:`make_step`) and a list of P stores comes back, each
    bit-identical to a run of its point alone.
    """
    run = prepare_run(target, params, n_chains, n_steps, burn_in, thinning, kind, init)
    samples = KeepSamples(run)
    run.drive(samples, block=noise_block)
    if isinstance(params, SamplerParams):
        return SampleStore(xs=samples.xs, ys=samples.ys, params=params)
    return [SampleStore(xs=samples.xs[j], ys=samples.ys[j], params=p)
            for j, p in enumerate(_points(params))]
