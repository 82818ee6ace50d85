"""End-to-end acceptance checks.

Each test certifies one headline behavior of the toolkit on the 1D
Gaussian benchmark (c_f=1, c_g=2, k=1.5), the 2-pixel total-variation
posterior, or the 32x32 denoising problems, at fixed seeds and sample
budgets chosen so the Monte Carlo error sits well inside the stated
tolerances.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from pdlangevin.analytic import (
    GaussModel1D,
    gaussian_w2,
    general_noise_primal_variance,
    lyapunov_cov,
    modified_sde_stationary_cov,
    stationary_cov_pd,
    target_variance,
)
from pdlangevin.cli import add_gaussian_noise, gauss1d_stepsizes, synthetic_phantom
from pdlangevin.coupling import run_coupled_pair
from pdlangevin.linop import grad2d
from pdlangevin.metrics import (
    EmpiricalMeasure,
    RunningMoments,
    moments,
    psnr,
    stationary_flag,
    w2_exact,
    w2_pool,
)
from pdlangevin.models import gauss1d_target, tv2pixel_target, tv_image_target
from pdlangevin.prox import (
    group_ball_projection,
    interval_projection,
    quadratic_data_prox,
    scaled_square_prox,
)
from pdlangevin.samplers import (
    ChainState,
    KeepSamples,
    SamplerParams,
    make_step,
    prepare_run,
    run_ensemble,
)

C_F, C_G, K = 1.0, 2.0, 1.5


def _model(lam: float) -> GaussModel1D:
    return GaussModel1D(C_F, C_G, K, lam=lam)


def _rel_frobenius(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _joint_cov(store) -> np.ndarray:
    _, cov = moments(EmpiricalMeasure(np.hstack([store.x_samples, store.y_samples])))
    return cov


def test_closed_form_covariance_matches_lyapunov_solver():
    """The printed stationary-covariance formula and the generalized-noise
    primal variance agree with a direct Lyapunov solve on 200 random models."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = GaussModel1D(
            c_f=float(rng.uniform(0.2, 5.0)),
            c_g=float(rng.uniform(0.2, 5.0)),
            k=float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])),
            lam=float(rng.uniform(0.1, 50.0)),
        )
        ref = lyapunov_cov(m.drift_matrix(), m.noise_matrix())
        np.testing.assert_allclose(stationary_cov_pd(m), ref, rtol=1e-10)
        b = rng.uniform(0.3, 2.0, size=4)
        B = np.array([[b[0], b[1]], [b[2], b[3]]])
        np.testing.assert_allclose(
            general_noise_primal_variance(m, *b),
            lyapunov_cov(m.drift_matrix(), B)[0, 0],
            rtol=1e-10,
        )


@pytest.mark.slow
def test_ensemble_covariance_matches_closed_form():
    """A large primal-dual ensemble reproduces the closed-form joint
    stationary covariance within 3% (Frobenius) at step ratios 1, 10, 100."""
    for lam in (1.0, 10.0, 100.0):
        m = _model(lam)
        target = gauss1d_target(m)
        tau, _ = gauss1d_stepsizes(lam, K, 1e-4)
        params = SamplerParams(tau=tau, lam=lam, seed=21)
        store = run_ensemble(
            target, params, n_chains=10_000, n_steps=12_000,
            burn_in=2_000, thinning=10,
        )
        assert _rel_frobenius(_joint_cov(store), stationary_cov_pd(m)) < 0.03


@pytest.mark.slow
def test_primal_bias_decreases_with_step_ratio():
    """The primal-marginal transport distance to the target strictly
    decreases over step ratios 1, 10, 100, 1000 and the largest ratio ends
    within a factor 2 of the subgradient baseline."""
    target = gauss1d_target(_model(1.0))
    v_target = target_variance(_model(1.0))
    run_kw = dict(n_chains=8_000, n_steps=7_000, burn_in=1_000, thinning=4)

    def emp_w2(store) -> float:
        xs = store.x_samples[:, 0]
        return gaussian_w2(float(xs.mean()), float(xs.var(ddof=1)), 0.0, v_target)

    w2s = []
    for lam in (1.0, 10.0, 100.0, 1000.0):
        params = SamplerParams(tau=0.01, lam=lam, seed=3)
        w2s.append(emp_w2(run_ensemble(target, params, **run_kw)))
    ps_params = SamplerParams(tau=0.01, lam=1.0, seed=3)
    w2_ps = emp_w2(run_ensemble(target, ps_params, kind="prox_sub", **run_kw))

    assert w2s[0] > w2s[1] > w2s[2] > w2s[3]
    assert w2s[3] <= 2.0 * w2_ps


def test_coupled_chains_contract_and_respect_convex_bound():
    """Shared-noise chain pairs contract by the extrapolation factor at
    every step in the strongly convex regime, and the convex-only weighted
    distance never exceeds its starting value."""
    target = gauss1d_target(_model(1.0))
    theta = 0.95
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = (2.0 * rng.standard_normal(1), 2.0 * rng.standard_normal(1))
        b = (2.0 * rng.standard_normal(1), 2.0 * rng.standard_normal(1))
        trace = run_coupled_pair(
            target, SamplerParams(tau=0.1, lam=1.0, theta=theta, seed=seed), a, b, 80
        )
        ratio = trace.delta[1:] / trace.delta[:-1]
        assert np.all(ratio <= theta * (1.0 + 1e-9))

        p1 = SamplerParams(tau=0.1, lam=1.0, theta=1.0, seed=seed)
        trace1 = run_coupled_pair(target, p1, a, b, 300)
        tsl = p1.tau * p1.sigma * target.K.norm() ** 2
        C = (1.0 - tsl) ** -0.5
        assert np.all(trace1.plain <= trace1.plain[0] * (1.0 + 1e-9))
        # terminal primal distance, stripped of the strong-convexity weight
        omega_g = target.g_prox.modulus
        u_sq = trace1.primal_sq[-1] / (1.0 + 2.0 * omega_g * p1.tau)
        assert math.sqrt(max(u_sq, 0.0)) <= C * math.sqrt(trace1.plain[0]) + 1e-9


def _probe_linear_transition(target, params):
    """Recover the (x, y, x_prev) transition matrix and noise vector of one
    sampler step on a quadratic target by probing with unit states."""
    step = make_step("ulpda", target, params)

    def advance(x, y, xp, xi):
        state = ChainState(x=np.array([x]), y=np.array([y]), x_prev=np.array([xp]))
        new = step(state, np.array([xi]))
        return np.array([new.x[0], new.y[0], new.x_prev[0]])

    T = np.column_stack(
        [advance(1.0, 0.0, 0.0, 0.0), advance(0.0, 1.0, 0.0, 0.0), advance(0.0, 0.0, 1.0, 0.0)]
    )
    noise = advance(0.0, 0.0, 0.0, 1.0)
    return T, noise


def test_stationary_bias_scales_linearly_with_step_size():
    """The stationary transport gap between the discrete sampler and its
    continuous-time limit decays with log-log slope 1.0 +/- 0.3 in the step
    size; the sampler's exact stationary variance is extracted by probing
    its linear one-step transition and solving the discrete Lyapunov
    equation (a Monte Carlo estimate of these 1e-4-scale gaps would need
    an infeasible budget)."""
    lam = 10.0
    m = _model(lam)
    target = gauss1d_target(m)
    v_limit = stationary_cov_pd(m)[0, 0]
    taus = np.array([4e-3, 2e-3, 1e-3, 5e-4])
    gaps = []
    for tau in taus:
        T, noise = _probe_linear_transition(target, SamplerParams(tau=tau, lam=lam))
        S = solve_discrete_lyapunov(T, np.outer(noise, noise))
        gaps.append(abs(math.sqrt(S[0, 0]) - math.sqrt(v_limit)))
    slope = float(np.polyfit(np.log(taus), np.log(gaps), 1)[0])
    assert slope == pytest.approx(1.0, abs=0.3)


def test_inner_and_outer_noise_agree_at_small_steps():
    """Injecting the noise outside versus inside the primal prox changes
    the stationary primal variance by under 2% at a small step size
    (shared noise streams cancel most of the Monte Carlo error)."""
    target = gauss1d_target(_model(10.0))
    run_kw = dict(n_chains=4_000, n_steps=6_000, burn_in=2_000, thinning=4)
    variances = {}
    for variant in ("outer", "inner"):
        params = SamplerParams(tau=1e-3, lam=10.0, noise_variant=variant, seed=11)
        store = run_ensemble(target, params, **run_kw)
        variances[variant] = float(store.x_samples[:, 0].var(ddof=1))
    gap = abs(variances["inner"] - variances["outer"]) / variances["outer"]
    assert gap < 0.02


@pytest.mark.slow
def test_bias_corrected_diffusion_removes_step_ratio_bias():
    """Euler simulation of the corrected joint diffusion reproduces its
    closed-form stationary covariance (whose primal entry is exactly the
    target variance) within 5% Frobenius."""
    lam = 10.0
    m = _model(lam)
    target = gauss1d_target(m)
    params = SamplerParams(tau=1e-4, lam=lam, seed=13)
    store = run_ensemble(
        target, params, n_chains=64, n_steps=1_000_000,
        burn_in=20_000, thinning=100, kind="modified_sde",
    )
    want = modified_sde_stationary_cov(m)
    assert want[0, 0] == pytest.approx(target_variance(m), rel=1e-12)
    assert _rel_frobenius(_joint_cov(store), want) < 0.05


@pytest.mark.slow
def test_two_pixel_transport_curves_order_by_step_ratio():
    """On the 2-pixel total-variation posterior the stationary transport
    distance to a fine-step subgradient reference is smallest for the
    subgradient sampler itself and grows as the step ratio shrinks
    (1000, 100, 10), with every run reaching a plateau."""
    x_obs = np.array([0.0, 1.0])
    sigma_eps, alpha, tau = 0.5, 3.0, 0.015
    target = tv2pixel_target(x_obs, sigma_eps, alpha)

    ref_params = SamplerParams(tau=tau / 16.0, lam=1.0, seed=100)
    ref = run_ensemble(
        target, ref_params, n_chains=6_000, n_steps=3_000,
        burn_in=2_500, thinning=25, kind="prox_sub",
    )
    ref_cloud = ref.x_samples
    ref_perm = np.random.default_rng(0).permutation(ref_cloud.shape[0])

    n_chains, n_steps = 10_000, 3_500
    checkpoints = list(np.linspace(n_steps // 20, n_steps, 20, dtype=int))
    chain_perm = np.random.default_rng(1).permutation(n_chains)

    def batched_w2(pool, cloud, n_batches=5, size=2_000) -> list:
        return [
            pool.submit(
                w2_exact,
                EmpiricalMeasure(cloud[chain_perm[i * size : (i + 1) * size]]),
                EmpiricalMeasure(ref_cloud[ref_perm[i * size : (i + 1) * size]]),
            )
            for i in range(n_batches)
        ]

    runs = (
        ("ps", "prox_sub", 1.0),
        ("lam1000", "ulpda", 1000.0),
        ("lam100", "ulpda", 100.0),
        ("lam10", "ulpda", 10.0),
    )
    curves, batches = {}, {}
    # the assignments are solved on worker threads while the next chains step
    with w2_pool(len(runs) * (len(checkpoints) + 5)) as pool:
        for label, kind, lam in runs:
            params = SamplerParams(tau=tau, lam=lam, seed=7)
            curve = curves[label] = []

            def solve(i, s, curve=curve):
                mu = EmpiricalMeasure(s.x[chain_perm[:1_000]])
                nu = EmpiricalMeasure(ref_cloud[ref_perm[:1_000]])
                curve.append(pool.submit(w2_exact, mu, nu))

            run = prepare_run(target, params, n_chains, n_steps, burn_in=3_000, thinning=10,
                              kind=kind)
            samples = KeepSamples(run, dual=False)
            run.drive(samples, (checkpoints, solve))
            assert stationary_flag(samples.xs)
            batches[label] = batched_w2(pool, samples.xs[-1])

        results = {}
        for label, _, _ in runs:
            tail = np.array([solve.result() for solve in curves[label][-5:]])
            assert tail.max() <= 1.5 * tail.min()  # plateau
            results[label] = float(np.mean([solve.result() for solve in batches[label]]))

    assert results["ps"] < results["lam1000"] < results["lam100"] < results["lam10"]


@pytest.mark.slow
def test_image_dispersion_and_denoising_signatures():
    """32x32 denoising: primal pixel variance shrinks and dual variance
    grows as the step ratio increases toward the subgradient sampler, and
    every posterior mean beats the noisy input by at least 5 dB. The
    moments are streamed from the driver, as the CLI's image runs do, so
    no run keeps its 600 x 24 samples."""
    width = height = 32
    sigma_eps, alpha, tau = 0.25, 3.0, 0.003
    clean = synthetic_phantom(width, height)
    noisy = add_gaussian_noise(clean, sigma_eps, seed=123)
    target = tv_image_target(noisy.intensities, sigma_eps, alpha, width, height)
    init = np.tile(noisy.intensities, (24, 1)), np.zeros((24, target.dim_dual))
    psnr_noisy = psnr(clean.intensities, noisy.intensities)

    stats = {}
    for label, kind, lam in (
        ("lam1", "ulpda", 1.0),
        ("lam10", "ulpda", 10.0),
        ("lam100", "ulpda", 100.0),
        ("ps", "prox_sub", 100.0),
    ):
        params = SamplerParams(tau=tau, lam=lam, seed=5)
        run = prepare_run(target, params, 24, 6_000, 3_000, 5, kind, init)
        primal, dual = RunningMoments(), RunningMoments(lambda s: s.y)
        run.drive(primal, dual)
        stats[label] = (
            float(primal.variance().mean()),
            float(dual.variance().mean()),
            psnr(clean.intensities, primal.mean()),
        )

    primal = {k: v[0] for k, v in stats.items()}
    dual = {k: v[1] for k, v in stats.items()}
    assert primal["lam1"] > primal["lam10"] > primal["lam100"] > primal["ps"]
    assert dual["lam1"] < dual["lam10"] < dual["lam100"] < dual["ps"]
    for _, _, p in stats.values():
        assert p >= psnr_noisy + 5.0


def test_core_property_suite():
    """Compact cross-module properties: firm nonexpansiveness of every
    prox family, the Moreau decomposition, operator adjointness, transport
    metric axioms, and bit-exact ensemble determinism."""
    rng = np.random.default_rng(42)

    # firm nonexpansiveness of representative prox operators
    proxes = [
        scaled_square_prox(2.0),
        quadratic_data_prox(np.zeros(6), 0.25),
        interval_projection(1.5),
        group_ball_projection(1.0, 2),
    ]
    for op in proxes:
        for _ in range(50):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            pu, pv = op.at(0.7)(u), op.at(0.7)(v)
            assert float((pu - pv) @ (pu - pv)) <= float((pu - pv) @ (u - v)) + 1e-12

    # Moreau decomposition for the quadratic pair f(x) = x^2 / (2c)
    c, gamma = 2.0, 0.7
    f_prox, fstar_prox = scaled_square_prox(c), scaled_square_prox(1.0 / c)
    for _ in range(50):
        v = rng.standard_normal(4)
        np.testing.assert_allclose(
            f_prox.at(gamma)(v) + gamma * fstar_prox.at(1.0 / gamma)(v / gamma),
            v,
            rtol=1e-12,
        )

    # adjointness of the image gradient
    op = grad2d(7, 5)
    for _ in range(50):
        x = rng.standard_normal(35)
        y = rng.standard_normal(70)
        assert float(op.apply(x) @ y) == pytest.approx(float(x @ op.adjoint(y)), rel=1e-10)

    # transport metric axioms on random clouds
    clouds = [EmpiricalMeasure(rng.standard_normal((15, 2))) for _ in range(3)]
    a, b, cc = clouds
    assert w2_exact(a, a) == pytest.approx(0.0, abs=1e-12)
    assert w2_exact(a, b) == pytest.approx(w2_exact(b, a), rel=1e-12)
    assert w2_exact(a, cc) <= w2_exact(a, b) + w2_exact(b, cc) + 1e-9

    # bit-exact determinism of ensemble runs
    target = gauss1d_target(_model(10.0))
    params = SamplerParams(tau=0.01, lam=10.0, seed=9)
    s1 = run_ensemble(target, params, n_chains=32, n_steps=200, burn_in=50)
    s2 = run_ensemble(target, params, n_chains=32, n_steps=200, burn_in=50)
    np.testing.assert_array_equal(s1.xs, s2.xs)
    np.testing.assert_array_equal(s1.ys, s2.ys)
