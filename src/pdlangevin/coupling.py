"""Coupled-chain harnesses for contraction and bias measurements.

Runs pairs of chains driven by identical noise (a two-row
``samplers.Run`` whose rows share one stream) and records the weighted
distance quantities whose per-step decay certifies discrete-time
contraction; also provides one sweep over a grid of sampler parameters
(step sizes, step ratios) that measures the stationary Wasserstein gap
against a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .analytic import gaussian_w2
from .metrics import EmpiricalMeasure, stationary_flag, w2_1d, w2_exact, w2_pool
from .samplers import (
    ChainState,
    KeepSamples,
    SamplerParams,
    TargetSpec,
    noise_stream,
    prepare_run,
    validate_params,
)


@dataclass
class CouplingTrace:
    """Per-step weighted distances of a coupled chain pair.

    ``delta`` is the composite contraction quantity
    ``(tau^-1 + 2 w_g)|U|^2 + tau^-1 |U - U_prev|^2 + (sigma^-1 + 2 w_f*)|V|^2
    + 2 <K(U - U_prev), V>`` with U, V the primal and dual differences.
    ``plain`` is the convex-case quantity
    ``tau^-1 |U|^2 + (1 - tau sigma L^2) sigma^-1 |V|^2``.
    """

    primal_sq: np.ndarray
    dual_sq: np.ndarray
    incr_sq: np.ndarray
    cross: np.ndarray
    delta: np.ndarray
    plain: np.ndarray
    params: SamplerParams
    L: float

    def __len__(self) -> int:
        return self.delta.shape[0]


def run_coupled_pair(
    target: TargetSpec,
    params: SamplerParams,
    init_a: tuple[np.ndarray, np.ndarray],
    init_b: tuple[np.ndarray, np.ndarray],
    n_steps: int,
    kind: str = "ulpda",
) -> CouplingTrace:
    """Advance two chains with shared noise draws and record their
    weighted distances at every step (index 0 is the initialization).

    The pair is a two-row run of :func:`samplers.prepare_run`, every step
    kept, whose rows both take every draw of the one stream
    ``samplers.noise_stream(params.seed)``, that is
    ``SFC64(SeedSequence(params.seed))``.
    """
    report = validate_params(target, params)
    if not report.any_regime:
        raise ValueError(
            "step sizes satisfy no supported regime: " + "; ".join(report.notes)
        )
    tau, sigma = params.tau, params.sigma
    omega_g = target.g_prox.modulus
    omega_fs = target.fstar_prox.modulus
    tsl = report.tau_sigma_L2
    run = prepare_run(target, params, 2, n_steps, kind=kind,
                      init=[np.stack(pair) for pair in zip(init_a, init_b)])
    shared = noise_stream(params.seed)
    rows = []

    def record(_: int, s: ChainState) -> None:
        u = s.x[0] - s.x[1]
        u_prev = s.x_prev[0] - s.x_prev[1]
        v = s.y[0] - s.y[1]
        du = u - u_prev
        p = (1.0 / tau + 2.0 * omega_g) * float(u @ u)
        q = (1.0 / sigma + 2.0 * omega_fs) * float(v @ v)
        inc = (1.0 / tau) * float(du @ du)
        cr = 2.0 * float(target.K.apply(du) @ v)
        plain = (1.0 / tau) * float(u @ u) + (1.0 - tsl) * (1.0 / sigma) * float(v @ v)
        rows.append((p, q, inc, cr, p + q + inc + cr, plain))

    replace(run, rngs=np.array([shared], dtype=object)).drive(record)
    return CouplingTrace(*np.array(rows).T, params=params, L=report.L)


def fit_contraction_rate(trace: CouplingTrace, burn: int = 0) -> float:
    """Least-squares slope of log(delta) versus step count after ``burn``.

    Returns -inf when the coupling has fully collapsed (a nonpositive
    delta appears in the fit window).
    """
    if len(trace) <= burn + 2:
        raise ValueError("trace too short for the requested burn-in")
    deltas = trace.delta[burn:]
    if np.any(deltas <= 0):
        return -math.inf
    n = np.arange(burn, burn + deltas.shape[0], dtype=float)
    slope = np.polyfit(n, np.log(deltas), 1)[0]
    return float(slope)


@dataclass
class SweepResult:
    """Sweep outcome: one (value, w2) point per grid entry plus a
    stationarity flag, and the fitted log-log slope."""

    values: np.ndarray
    w2: np.ndarray
    stationary: np.ndarray

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.w2.tolist()))

    def loglog_slope(self) -> float:
        if self.values.size < 2 or np.any(self.w2 <= 0) or np.any(self.values <= 0):
            return math.nan
        return float(np.polyfit(np.log(self.values), np.log(self.w2), 1)[0])


def _w2_to_reference(clouds, reference, batch_cap: int = 2000) -> list[float]:
    """Stationary distance of each pooled (n, d) primal cloud in ``clouds``
    to a reference.

    ``reference`` is either a (mean, variance) pair — closed-form Gaussian
    distance against the empirical primal moments (1D only) — or an
    :class:`EmpiricalMeasure`, matched by exact assignment over disjoint
    equal-size batches whose average is returned. Every cloud's batches
    are submitted to one ``metrics.w2_pool``, so they are solved on its
    worker threads side by side, and each cloud's results are averaged in
    batch order; the closed-form and 1D paths start no thread.
    """
    if isinstance(reference, tuple) and len(reference) == 2 and np.isscalar(reference[0]):
        mean_ref, var_ref = reference
        if any(cloud.shape[1] != 1 for cloud in clouds):
            raise ValueError("moment reference requires a 1D primal marginal")
        return [gaussian_w2(float(c[:, 0].mean()), float(c[:, 0].var(ddof=1)), mean_ref, var_ref)
                for c in clouds]
    ref: EmpiricalMeasure = reference
    if ref.dim == 1 and all(cloud.shape[1] == 1 for cloud in clouds):
        return [w2_1d(EmpiricalMeasure(cloud), ref) for cloud in clouds]

    def batches(cloud: np.ndarray) -> list[tuple[EmpiricalMeasure, EmpiricalMeasure]]:
        n = min(batch_cap, cloud.shape[0], ref.n)
        rng = np.random.default_rng(0)
        perm_a = rng.permutation(cloud.shape[0])
        perm_b = rng.permutation(ref.n)
        return [(EmpiricalMeasure(cloud[perm_a[i * n : (i + 1) * n]]),
                 EmpiricalMeasure(ref.points[perm_b[i * n : (i + 1) * n]]))
                for i in range(max(1, min(cloud.shape[0] // n, ref.n // n)))]

    pairs = [batches(cloud) for cloud in clouds]
    with w2_pool(sum(map(len, pairs))) as pool:
        solves = [[pool.submit(w2_exact, mu, nu, cap=batch_cap) for mu, nu in b] for b in pairs]
        return [float(np.mean([f.result() for f in fs])) for fs in solves]


def sweep(
    target: TargetSpec,
    values: Iterable[float],
    params_for: Callable[[float], SamplerParams],
    reference,
    *,
    n_chains: int = 1000,
    n_steps: int = 20000,
    burn_in: int = 10000,
    kind: str = "ulpda",
    thinning: int = 1,
) -> SweepResult:
    """Stationary primal distance to ``reference`` at each grid value.

    ``params_for(value)`` gives the sampler parameters of each point (say,
    a step size or a step ratio, with the other settings fixed). All points
    run as one batched ``samplers.Run``, each bit-identical to a fresh
    ensemble of that point alone; only the primal samples are kept.
    Non-stationary runs are flagged, not rejected.
    """
    values = list(values)
    run = prepare_run(
        target, [params_for(v) for v in values], n_chains, n_steps, burn_in, thinning, kind
    )
    samples = KeepSamples(run, dual=False)
    run.drive(samples)
    xs = samples.xs
    return SweepResult(
        values=np.array(values),
        w2=np.array(_w2_to_reference([x.reshape(-1, x.shape[-1]) for x in xs], reference)),
        stationary=np.array([stationary_flag(x) for x in xs]),
    )
