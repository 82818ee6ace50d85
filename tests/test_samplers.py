"""Chain update rules, parameter validation, and ensemble execution."""

import functools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from pdlangevin import samplers
from pdlangevin.analytic import GaussModel1D, stationary_cov_pd, target_variance
from pdlangevin.linop import LinearMap
from pdlangevin.metrics import RunningMoments
from pdlangevin.models import gauss1d_target, tgv_image_target, tv2pixel_target, tv_image_target
from pdlangevin.prox import ProxOperator
from pdlangevin.samplers import (
    ChainState,
    DivergenceError,
    KeepSamples,
    Run,
    SamplerParams,
    TargetSpec,
    _PIPELINE_MIN_DRAW,
    _make_step,
    make_step,
    prepare_run,
    run_ensemble,
    validate_params,
)
from reference_maps import dense_map

BENCH = GaussModel1D(1.0, 2.0, 1.5)


class TestSamplerParams:
    def test_sigma_is_lam_times_tau(self):
        p = SamplerParams(tau=0.25, lam=8.0)
        assert p.sigma == 2.0

    @pytest.mark.parametrize("kwargs", [
        dict(tau=0.0, lam=1.0),
        dict(tau=0.1, lam=0.0),
        dict(tau=0.1, lam=1.0, theta=1.5),
        dict(tau=0.1, lam=1.0, theta=-0.1),
        dict(tau=0.1, lam=1.0, noise_variant="bogus"),
        dict(tau=0.1, lam=1.0, noise_variant="general"),  # missing blocks
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SamplerParams(**kwargs)

    @pytest.mark.parametrize("variant", ["outer", "inner"])
    def test_only_the_general_variant_takes_blocks(self, variant):
        block = dense_map([[math.sqrt(2.0), 0.0]])
        for blocks in (dict(B_X=block, B_Y=block), dict(B_Y=block)):
            with pytest.raises(ValueError, match="absent in the others"):
                SamplerParams(tau=0.1, lam=1.0, noise_variant=variant, **blocks)

    def test_blocks_must_be_linear_maps(self):
        dense = np.array([[math.sqrt(2.0), 0.0]])
        for blocks in (dict(B_X=dense, B_Y=dense_map(dense)),
                       dict(B_X=dense_map(dense), B_Y=dense)):
            with pytest.raises(ValueError, match="must be LinearMaps"):
                SamplerParams(tau=0.1, lam=1.0, noise_variant="general", **blocks)


class TestValidateParams:
    def test_stability_regime(self):
        target = gauss1d_target(BENCH)
        L = 1.5
        p = SamplerParams(tau=1.0 / (2 * L), lam=1.0)
        rep = validate_params(target, p)
        assert rep.stability_regime
        assert rep.tau_sigma_L2 == pytest.approx(0.25)

    def test_no_contraction_without_moduli(self):
        target = tv2pixel_target(np.array([0.0, 1.0]), 1.0, 1.0)
        # fstar prox is a projection: modulus 0, so theta < 1 is not allowed
        object.__setattr__(target.g_prox, "modulus", 0.0)
        p = SamplerParams(tau=0.1, lam=1.0, theta=0.9)
        rep = validate_params(target, p)
        assert not rep.contraction_regime

    def test_contraction_thresholds(self):
        target = gauss1d_target(BENCH)  # omega_g = 0.5, omega_fstar = 1.0
        p = SamplerParams(tau=0.1, lam=1.0, theta=0.95)
        rep = validate_params(target, p)
        want = max(1.0 / (1.0 + 2 * 0.5 * 0.1), 1.0 / (1.0 + 2 * 1.0 * 0.1))
        assert rep.theta_min_contraction == pytest.approx(want)
        assert rep.contraction_regime == (want <= 0.95)
        want_bias = max(1.0 / (1.0 + 0.5 * 0.1), 1.0 / (1.0 + 1.0 * 0.1))
        assert rep.theta_min_bias == pytest.approx(want_bias)

    def test_hard_error_on_step_size_product(self):
        target = gauss1d_target(BENCH)
        with pytest.raises(ValueError, match="diverge"):
            validate_params(target, SamplerParams(tau=1.0, lam=1.0))

    def test_theta_scales_the_product_bound(self):
        target = gauss1d_target(BENCH)
        # tau sigma L^2 slightly above 1 is fine when theta is small enough
        tau = 0.7
        assert tau * tau * 1.5**2 > 1.0
        rep = validate_params(target, SamplerParams(tau=tau, lam=1.0, theta=0.85))
        assert not rep.stability_regime


class TestUlpdaStep:
    def test_origin_fixed_point_noiseless(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-2, lam=1.0)
        state = ChainState.initial(np.zeros(1), np.zeros(1))
        out = make_step("ulpda", target, p)(state, np.zeros(1))
        np.testing.assert_array_equal(out.x, np.zeros(1))
        np.testing.assert_array_equal(out.y, np.zeros(1))

    def test_vanishing_dual_step_freezes_dual(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-2, lam=1e-12, theta=0.0)
        state = ChainState.initial(np.array([0.7]), np.array([0.4]))
        out = make_step("ulpda", target, p)(state, np.zeros(1))
        assert out.y[0] == pytest.approx(0.4, abs=1e-10)
        # primal becomes a proximal gradient step on g with the frozen dual
        drift = target.g_prox.at(p.tau)(state.x - p.tau * target.K.adjoint(out.y))
        np.testing.assert_allclose(out.x, drift, atol=1e-12)

    def test_inner_noise_passes_through_prox(self):
        target = gauss1d_target(BENCH)
        tau = 1e-2
        xi = np.array([0.8])
        p_out = SamplerParams(tau=tau, lam=1.0, noise_variant="outer")
        p_in = SamplerParams(tau=tau, lam=1.0, noise_variant="inner")
        state = ChainState.initial(np.array([0.3]), np.array([-0.2]))
        a = make_step("ulpda", target, p_out)(state, xi)
        b = make_step("ulpda", target, p_in)(state, xi)
        # inner variant shrinks the noise by the same prox scaling factor
        shrink = 1.0 / (1.0 + tau / BENCH.c_g)
        drift = target.g_prox.at(tau)(state.x - tau * target.K.adjoint(a.y))
        np.testing.assert_allclose(b.x, drift + shrink * np.sqrt(2 * tau) * xi, atol=1e-14)
        np.testing.assert_array_equal(a.y, b.y)

    def test_general_noise_reproduces_outer(self):
        target = gauss1d_target(BENCH)
        d, m = 1, 1
        B_X = dense_map(np.hstack([np.sqrt(2.0) * np.eye(d), np.zeros((d, m))]))
        B_Y = dense_map(np.zeros((m, d + m)))
        tau = 1e-2
        p_out = SamplerParams(tau=tau, lam=1.0, noise_variant="outer")
        p_gen = SamplerParams(tau=tau, lam=1.0, noise_variant="general", B_X=B_X, B_Y=B_Y)
        step_out, step_gen = make_step("ulpda", target, p_out), make_step("ulpda", target, p_gen)
        assert (step_out.noise_dim, step_gen.noise_dim) == (d, d + m)
        rng = np.random.default_rng(0)
        state_a = ChainState.initial(np.array([0.5]), np.array([0.1]))
        state_b = ChainState.initial(np.array([0.5]), np.array([0.1]))
        for _ in range(25):
            joint = rng.standard_normal(d + m)
            state_a = step_out(state_a, joint[:d])
            state_b = step_gen(state_b, joint)
            # sqrt(tau)*sqrt(2) vs sqrt(2*tau) differ in the last ulp
            np.testing.assert_allclose(state_a.x, state_b.x, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(state_a.y, state_b.y, rtol=1e-13, atol=1e-15)

    def test_unknown_kind(self):
        target = gauss1d_target(BENCH)
        with pytest.raises(ValueError, match="bogus"):
            make_step("bogus", target, SamplerParams(tau=1e-2, lam=1.0))

    def test_blocks_must_fit_the_target(self):
        # a one-row B_Y for m = 40 would add one noise value to every dual
        # coordinate; blocks of different noise dimensions cannot share a draw
        target = _image_target()
        d, m = target.dim_primal, target.dim_dual
        rng = np.random.default_rng(4)
        B_X, B_Y = dense_map(rng.standard_normal((d, d + m))), dense_map(np.ones((m, d + m)))
        for bad in (dict(B_X=B_X, B_Y=dense_map(np.ones((1, d + m)))),
                    dict(B_X=dense_map(np.ones((m, d + m))), B_Y=B_Y),
                    dict(B_X=B_X, B_Y=dense_map(np.ones((m, d))))):
            p = SamplerParams(tau=1e-2, lam=1.0, noise_variant="general", **bad)
            with pytest.raises(ValueError, match="must map one noise dimension"):
                make_step("ulpda", target, p)
        p = SamplerParams(tau=1e-2, lam=1.0, noise_variant="general", B_X=B_X, B_Y=B_Y)
        assert make_step("ulpda", target, p).noise_dim == d + m


def _ref_ulpda_step(state, target, params, xi):
    """The out-of-place formulas of the primal-dual step, for ``xi`` of
    length d (outer, inner) or d + m (general)."""
    tau, sigma, theta = params.tau, params.sigma, params.theta
    K = target.K
    x_theta = state.x + theta * (state.x - state.x_prev)
    y_new = target.fstar_prox.at(sigma)(state.y + sigma * K.apply(x_theta))
    drift_arg = state.x - tau * K.adjoint(y_new)
    if params.noise_variant == "outer":
        x_new = target.g_prox.at(tau)(drift_arg) + math.sqrt(2.0 * tau) * xi
    elif params.noise_variant == "inner":
        x_new = target.g_prox.at(tau)(drift_arg + math.sqrt(2.0 * tau) * xi)
    else:
        root_tau = math.sqrt(tau)
        x_new = target.g_prox.at(tau)(drift_arg) + root_tau * params.B_X.apply(xi)
        y_new = y_new + root_tau * params.B_Y.apply(xi)
    return ChainState(x=x_new, y=y_new, x_prev=state.x)


class _Spy:
    """Identity map that remembers every array it is given, with a snapshot,
    so that a later write into one of them shows."""

    def __init__(self):
        self.seen = []

    def __call__(self, a, *_):
        self.seen.append((a, a.copy()))
        return a

    def assert_untouched(self):
        for a, snapshot in self.seen:
            np.testing.assert_array_equal(a, snapshot)


def _spy_target(d, spy):
    """K = I and identity proxes that hand back their input: any array K or
    a prox sees or returns is one the caller may still hold."""
    K = LinearMap(apply=spy, adjoint=spy, dim_in=d, dim_out=d, bound=1.0)
    identity = ProxOperator(at=lambda gamma: spy, label="identity")
    return TargetSpec(g_prox=identity, fstar_prox=identity, K=K)


def _variant_params(target, variant):
    if variant != "general":
        return SamplerParams(tau=1e-2, lam=1.0, theta=0.7, noise_variant=variant)
    d, m = target.dim_primal, target.dim_dual
    rng = np.random.default_rng(0)
    return SamplerParams(
        tau=1e-2, lam=1.0, theta=0.7, noise_variant="general",
        B_X=dense_map(rng.standard_normal((d, d + m))),
        B_Y=dense_map(0.1 * rng.standard_normal((m, d + m))),
    )


def _image_target():
    noisy = np.random.default_rng(3).uniform(0.0, 1.0, 5 * 4)
    return tv_image_target(noisy, 0.1, 0.5, 5, 4)


def _random_state_and_noise(target, variant):
    d, m = target.dim_primal, target.dim_dual
    rng = np.random.default_rng(11)
    state = ChainState(
        x=rng.standard_normal((3, d)), y=rng.standard_normal((3, m)),
        x_prev=rng.standard_normal((3, d)),
    )
    xi = rng.standard_normal((3, d + m if variant == "general" else d))
    return state, xi


VARIANTS = ["outer", "inner", "general"]


class TestUlpdaInPlace:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_reference_formulas(self, variant):
        target = _image_target()
        p = _variant_params(target, variant)
        state, xi = _random_state_and_noise(target, variant)
        out = make_step("ulpda", target, p)(state, xi)
        expect = _ref_ulpda_step(state, target, p, xi.copy())
        np.testing.assert_array_equal(out.x, expect.x)
        np.testing.assert_array_equal(out.y, expect.y)
        assert out.x_prev is state.x

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_never_writes_into_shared_arrays(self, variant):
        spy = _Spy()
        target = _spy_target(6, spy)
        p = _variant_params(target, variant)
        state, xi = _random_state_and_noise(target, variant)
        held = [(a, a.copy()) for a in (state.x, state.y, state.x_prev, xi)]
        step = make_step("ulpda", target, p)
        out = step(state, xi)
        held += [(a, a.copy()) for a in (out.x, out.y)]
        step(out, xi)
        for a, snapshot in held:
            np.testing.assert_array_equal(a, snapshot)
        spy.assert_untouched()


class TestUlaStep:
    def test_stationary_point_noiseless(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-2, lam=1.0)
        state = ChainState.initial(np.zeros(1), np.zeros(1))
        out = make_step("ula", target, p)(state, np.zeros(1))
        np.testing.assert_array_equal(out.x, np.zeros(1))

    def test_one_step_contraction_at_optimal_tau(self):
        # quadratic potential: coupled chains meet after one step at tau = 1/v_h
        target = gauss1d_target(BENCH)
        v_h = 1.0 / BENCH.c_g + BENCH.k**2 / BENCH.c_f
        p = SamplerParams(tau=1.0 / v_h, lam=1.0)
        step = make_step("ula", target, p)
        a = step(ChainState.initial(np.array([3.0]), np.zeros(1)), np.zeros(1))
        b = step(ChainState.initial(np.array([-2.0]), np.zeros(1)), np.zeros(1))
        assert abs(a.x[0] - b.x[0]) < 1e-12

    def test_long_run_variance_matches_target(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-3, lam=1.0, seed=11)
        store = run_ensemble(target, p, n_chains=2000, n_steps=3000, burn_in=1500, kind="ula")
        var = store.x_samples.var(ddof=1)
        assert var == pytest.approx(target_variance(BENCH), rel=0.03)

    def test_missing_gradient(self):
        target = tv2pixel_target(np.array([0.0, 1.0]), 1.0, 1.0)  # no f_grad
        p = SamplerParams(tau=1e-2, lam=1.0)
        with pytest.raises(ValueError, match="f_grad"):
            make_step("ula", target, p)


class TestProxSubStep:
    def test_sign_subgradient(self):
        target = tv2pixel_target(np.array([0.0, 1.0]), 1.0, 2.0)
        p = SamplerParams(tau=1e-2, lam=1.0)
        state = ChainState.initial(np.array([0.0, 1.0]), np.zeros(1))  # Kx = 1 > 0
        out = make_step("prox_sub", target, p)(state, np.zeros(2))
        assert out.y[0] == 2.0

    def test_minimal_norm_choice_at_kink(self):
        target = tv2pixel_target(np.array([0.0, 1.0]), 1.0, 2.0)
        p = SamplerParams(tau=1e-2, lam=1.0)
        state = ChainState.initial(np.array([0.5, 0.5]), np.zeros(1))  # Kx = 0
        out = make_step("prox_sub", target, p)(state, np.zeros(2))
        assert out.y[0] == 0.0

    def test_missing_subgradient(self):
        target = gauss1d_target(BENCH)
        stripped = type(target)(g_prox=target.g_prox, fstar_prox=target.fstar_prox, K=target.K)
        p = SamplerParams(tau=1e-2, lam=1.0)
        with pytest.raises(ValueError, match="f_subgrad"):
            make_step("prox_sub", stripped, p)

    def test_agrees_with_ulpda_at_huge_lambda(self):
        target = gauss1d_target(BENCH)
        tau = 6.7e-4
        p = SamplerParams(tau=tau, lam=1e4, seed=21)
        store_pd = run_ensemble(target, p, n_chains=2000, n_steps=4000, burn_in=2000)
        store_ps = run_ensemble(target, p, n_chains=2000, n_steps=4000, burn_in=2000, kind="prox_sub")
        v_pd = store_pd.x_samples.var(ddof=1)
        v_ps = store_ps.x_samples.var(ddof=1)
        assert abs(v_pd - v_ps) / v_ps < 0.01


class TestModifiedSdeStep:
    def test_dual_residual_decays_on_manifold(self):
        m = BENCH
        target = gauss1d_target(m)
        p = SamplerParams(tau=1e-3, lam=5.0)
        x0 = np.array([0.8])
        state = ChainState.initial(x0, m.k * x0 / m.c_f)  # y = grad f(Kx)
        step = make_step("modified_sde", target, p)
        residuals = []
        for _ in range(200):
            state = step(state, np.zeros(1))
            residuals.append(abs(state.y[0] - m.k * state.x[0] / m.c_f))
        assert residuals[-1] < 1e-6
        assert all(b <= a + 1e-15 for a, b in zip(residuals, residuals[1:]))

    def test_missing_smooth_data(self):
        target = tv2pixel_target(np.array([0.0, 1.0]), 1.0, 1.0)
        p = SamplerParams(tau=1e-3, lam=1.0)
        with pytest.raises(ValueError, match="f_grad"):
            make_step("modified_sde", target, p)


class TestRunEnsemble:
    def test_zero_steps_keeps_init(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-2, lam=1.0)
        store = run_ensemble(target, p, n_chains=1, n_steps=0,
                             init=(np.array([[2.0]]), np.array([[1.0]])))
        np.testing.assert_array_equal(store.xs, [[[2.0]]])
        np.testing.assert_array_equal(store.ys, [[[1.0]]])

    def test_deterministic_repeat(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-2, lam=1.0, seed=5)
        a = run_ensemble(target, p, n_chains=7, n_steps=50)
        b = run_ensemble(target, p, n_chains=7, n_steps=50)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)

    def test_chain_streams_independent_of_batching(self):
        # noise blocking must not change the trajectories
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-2, lam=1.0, seed=9)
        a = run_ensemble(target, p, n_chains=3, n_steps=40, noise_block=7)
        b = run_ensemble(target, p, n_chains=3, n_steps=40, noise_block=1000)
        np.testing.assert_array_equal(a.xs, b.xs)

    def test_prefix_chains_identical(self):
        # chain i's trajectory is the same regardless of the ensemble size
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-2, lam=1.0, seed=3)
        small = run_ensemble(target, p, n_chains=2, n_steps=30)
        big = run_ensemble(target, p, n_chains=5, n_steps=30)
        np.testing.assert_array_equal(small.xs, big.xs[:, :2, :])
        # the general variant too: its blocks map each row on its own
        target = _slab_target("tv16")
        p = _variant_params(target, "general")
        small = run_ensemble(target, p, n_chains=5, n_steps=12)
        big = run_ensemble(target, p, n_chains=9, n_steps=12)
        assert np.isfinite(big.xs).all()
        assert small.xs.tobytes() == big.xs[:, :5, :].tobytes()
        assert small.ys.tobytes() == big.ys[:, :5, :].tobytes()

    def test_benchmark_variance_at_lam_100(self):
        m = GaussModel1D(1.0, 2.0, 1.5, lam=100.0)
        target = gauss1d_target(m)
        tau = np.sqrt(1e-4 / 100.0) / 1.5
        p = SamplerParams(tau=tau, lam=100.0, seed=17)
        store = run_ensemble(target, p, n_chains=5000, n_steps=4000, burn_in=2000, thinning=2)
        var = store.x_samples.var(ddof=1)
        assert var == pytest.approx(stationary_cov_pd(m)[0, 0], rel=0.02)

    def test_thinning_counts(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-2, lam=1.0)
        store = run_ensemble(target, p, n_chains=2, n_steps=100, burn_in=40, thinning=10)
        assert store.xs.shape == (6, 2, 1)

    def test_invalid_args(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-2, lam=1.0)
        with pytest.raises(ValueError):
            run_ensemble(target, p, n_chains=0, n_steps=10)
        with pytest.raises(ValueError):
            run_ensemble(target, p, n_chains=1, n_steps=10, thinning=0)
        with pytest.raises(ValueError, match="n_steps"):
            run_ensemble(target, p, n_chains=1, n_steps=-3)
        with pytest.raises(ValueError, match="burn_in"):
            run_ensemble(target, p, n_chains=1, n_steps=10, burn_in=-1)

    def test_dimension_mismatch(self):
        # the driver checks a state where it enters from outside; kernels
        # trust the shapes they are given
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-2, lam=1.0)
        for init in [
            (np.zeros((2, 2)), np.zeros((2, 1))),  # wrong primal dimension
            (np.zeros((1, 2)), np.zeros((2, 1))),  # right size, wrong shape
            (np.zeros((3, 1)), np.zeros((3, 1))),  # three chains for two
        ]:
            with pytest.raises(ValueError, match="init shapes"):
                run_ensemble(target, p, n_chains=2, n_steps=5, init=init)

    def test_invalid_params_rejected_before_stepping(self):
        target = gauss1d_target(BENCH)
        with pytest.raises(ValueError):
            run_ensemble(target, SamplerParams(tau=1.0, lam=1.0), n_chains=1, n_steps=10)

    def test_leaves_init_and_checkpoint_arrays_alone(self):
        target = _image_target()
        p = SamplerParams(tau=1e-2, lam=1.0, seed=4)
        rng = np.random.default_rng(5)
        X0 = rng.standard_normal((3, target.dim_primal))
        Y0 = rng.standard_normal((3, target.dim_dual))
        before = X0.copy(), Y0.copy()
        seen = []

        def on_checkpoint(i, s):
            seen.append((s.x, s.y, s.x.copy(), s.y.copy()))

        run = prepare_run(target, p, n_chains=3, n_steps=12, init=(X0, Y0))
        samples = KeepSamples(run)
        run.drive(samples, ([1, 5, 11, 12], on_checkpoint), block=4)
        np.testing.assert_array_equal(X0, before[0])
        np.testing.assert_array_equal(Y0, before[1])
        assert len(seen) == 4
        for X, Y, X_then, Y_then in seen:
            np.testing.assert_array_equal(X, X_then)
            np.testing.assert_array_equal(Y, Y_then)
        np.testing.assert_array_equal(seen[-1][0], samples.xs[-1])

    def test_kept_sample_counts_and_values(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-2, lam=1.0, seed=6)
        full = run_ensemble(target, p, n_chains=2, n_steps=23)
        for burn_in, thinning in [(0, 1), (0, 4), (5, 3), (22, 5), (23, 1), (40, 2)]:
            store = run_ensemble(target, p, n_chains=2, n_steps=23,
                                 burn_in=burn_in, thinning=thinning)
            steps = [s for s in range(1, 24) if s > burn_in and (s - burn_in) % thinning == 0]
            steps = ([0] if burn_in == 0 else []) + steps or [23]
            np.testing.assert_array_equal(store.xs, full.xs[steps])
            np.testing.assert_array_equal(store.ys, full.ys[steps])

    @staticmethod
    def _peak_over_kept_samples(target, noisy, n_steps):
        """The traced peak of an image run of 24 chains started at ``noisy``,
        less its kept samples; and the bytes of one state and of one
        pipelined noise block."""
        n_chains, thinning = 24, 8
        x0 = np.zeros(target.dim_primal)  # TGV: the image pixels, then w = 0
        x0[: noisy.size] = noisy
        p = SamplerParams(tau=0.003, lam=10.0, seed=1)
        tracemalloc.start()
        try:
            store = run_ensemble(
                target, p, n_chains=n_chains, n_steps=n_steps, thinning=thinning,
                init=(np.tile(x0, (n_chains, 1)), np.zeros((n_chains, target.dim_dual))),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.xs.shape == (1 + n_steps // thinning, n_chains, target.dim_primal)
        state_bytes = n_chains * (target.dim_primal + target.dim_dual) * 8
        lead = -(-_PIPELINE_MIN_DRAW // target.dim_primal)
        block_bytes = lead * n_chains * target.dim_primal * 8
        return peak - store.xs.nbytes - store.ys.nbytes, state_bytes, block_bytes

    def test_peak_memory_bounded_by_kept_samples_and_noise_cap(self):
        # Deterministic memory guard, no timing: at 128x128 with 24 chains
        # the traced peak must stay within the kept samples, two one-step
        # noise blocks (6.3 MB) and four states (9.4 MB each). Measured: the
        # kept samples plus 41.5 MB. Drawing noise further ahead than the
        # pipeline needs (the whole run: 126 MB; 5 steps a block: 31.5 MB),
        # collecting the kept samples in a list before stacking them
        # (another 57 MB) or copying x into the initial x_prev breaks it.
        noisy = np.random.default_rng(0).uniform(0.0, 1.0, 128 * 128)
        target = tv_image_target(noisy, 0.1, 3.0, 128, 128)
        extra, state_bytes, block_bytes = self._peak_over_kept_samples(target, noisy, 40)
        assert block_bytes == 24 * 128 * 128 * 8
        assert extra <= 2 * block_bytes + 4 * state_bytes

    def test_tgv_peak_memory_bounded_by_kept_samples_and_two_noise_blocks(self):
        # The TGV twin at 32x32: a pipelined block is two steps (2 x 3,072
        # normals per generator call), so the two buffers hold 2.4 MB, and a
        # state is 1.6 MB. Measured: the kept samples plus 10.7 MB; 28-step
        # blocks (33 MB) break the bound.
        noisy = np.random.default_rng(0).uniform(0.0, 1.0, 32 * 32)
        target = tgv_image_target(noisy, 0.1, 10.0, 20.0, 32, 32)
        extra, state_bytes, block_bytes = self._peak_over_kept_samples(target, noisy, 60)
        assert block_bytes == 2 * 24 * 3 * 32 * 32 * 8
        assert extra <= 2 * block_bytes + 6 * state_bytes


def _diverging_init(kind):
    """Four chains at 0 but chain 2. At tau = 3 the explicit steps multiply
    the primal by about -2 to -7 per step, so chain 2's primal of 1e300
    overflows within a few dozen steps. ulpda is stable at these step sizes,
    but chain 2's dual of 1e308 overflows tau * K^T y in the first step.
    The chains started at 0 take hundreds of steps to overflow."""
    X, Y = np.zeros((4, 1)), np.zeros((4, 1))
    if kind == "ulpda":
        Y[2] = 1e308
    else:
        X[2] = 1e300
    return X, Y


class TestDrive:
    @pytest.mark.parametrize("kind", ["ulpda", "ula", "prox_sub", "modified_sde"])
    def test_divergence_is_caught(self, kind):
        run = functools.partial(
            run_ensemble, gauss1d_target(BENCH), SamplerParams(tau=3.0, lam=0.01, seed=1),
            n_chains=4, init=_diverging_init(kind), kind=kind,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as caught:
                run(n_steps=100)
            err = caught.value
            assert err.chain == 2 and 1 <= err.step < 100
            assert str(err) == f"chain 2 diverged: non-finite state at step {err.step}"
            # the named step is the first non-finite one: every earlier
            # state is finite, and the run stops at the named step
            store = run(n_steps=err.step - 1)
            assert np.isfinite(store.xs).all() and np.isfinite(store.ys).all()
            with pytest.raises(DivergenceError, match=f"at step {err.step}$"):
                run(n_steps=err.step)

    def test_non_finite_dual_with_a_finite_primal_is_caught(self):
        # the driver sums x and y separately: a finite x sum must not hide y
        X, Y = np.zeros((3, 1)), np.array([[0.0], [np.inf], [0.0]])
        with pytest.raises(DivergenceError) as caught:
            run_ensemble(gauss1d_target(BENCH), SamplerParams(tau=1e-2, lam=1.0),
                         n_chains=3, n_steps=2, init=(X, Y))
        assert (caught.value.chain, caught.value.step) == (1, 0)

    def test_finite_state_whose_sum_overflows_is_not_flagged(self):
        # the sums over x and y are +inf and -inf, their total NaN, yet every
        # entry is finite
        X, Y = np.full((3, 1), 1e308), np.full((3, 1), -1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            store = run_ensemble(gauss1d_target(BENCH), SamplerParams(tau=1e-2, lam=1.0),
                                 n_chains=3, n_steps=2, init=(X, Y))
        assert np.all(np.abs(store.xs) > 1e307) and np.all(np.abs(store.ys) > 1e307)
        np.testing.assert_array_equal(store.xs[0], X)


# three points with mixed tau, lambda and theta; the gauss1d contract
# theta * tau * sigma * L^2 <= 1 holds at each
_POINTS = [(1e-2, 1.0, 1.0), (3e-3, 10.0, 0.9), (2e-2, 0.5, 1.0)]


def _batch(variant="outer", seeds=(3, 3, 3), points=_POINTS):
    return [SamplerParams(tau=tau, lam=lam, theta=theta, noise_variant=variant, seed=seed)
            for (tau, lam, theta), seed in zip(points, seeds)]


class TestBatchedEnsemble:
    """A sequence of SamplerParams runs every point in one batched ensemble,
    each point bit-identical to a run of its own."""

    @pytest.mark.parametrize("seeds", [(3, 3, 3), (3, 4, 5)], ids=["shared", "distinct"])
    @pytest.mark.parametrize("kind, variant", [
        ("ulpda", "outer"), ("ulpda", "inner"), ("ula", "outer"), ("prox_sub", "outer"),
        ("modified_sde", "outer"),
    ])
    def test_matches_separate_runs_on_gauss1d(self, kind, variant, seeds):
        target = gauss1d_target(BENCH)
        rng = np.random.default_rng(1)
        init = rng.standard_normal((5, 1)), rng.standard_normal((5, 1))
        run = functools.partial(run_ensemble, target, n_chains=5, n_steps=60, burn_in=10,
                                thinning=3, kind=kind, init=init)
        batch = _batch(variant, seeds)
        stores = run(batch)
        assert len(stores) == len(batch)
        for p, store in zip(batch, stores):
            alone = run(p)
            assert store.params is p and store.xs.shape == alone.xs.shape
            np.testing.assert_array_equal(store.xs, alone.xs)
            np.testing.assert_array_equal(store.ys, alone.ys)

    @pytest.mark.parametrize("seeds", [(1, 1, 1), (1, 1, 2)], ids=["shared", "distinct"])
    def test_matches_separate_runs_on_tv2pixel(self, seeds):
        target = tv2pixel_target(np.array([0.0, 1.0]), 0.5, 3.0)
        batch = _batch(seeds=seeds, points=[(0.015, 100.0, 1.0), (0.01, 10.0, 1.0),
                                            (0.005, 1.0, 1.0)])
        for p, store in zip(batch, run_ensemble(target, batch, n_chains=7, n_steps=80)):
            alone = run_ensemble(target, p, n_chains=7, n_steps=80)
            np.testing.assert_array_equal(store.xs, alone.xs)
            np.testing.assert_array_equal(store.ys, alone.ys)

    def test_one_point_batch_is_a_list_of_one(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=1e-2, lam=1.0, seed=2)
        (store,) = run_ensemble(target, [p], n_chains=3, n_steps=20)
        np.testing.assert_array_equal(store.xs, run_ensemble(target, p, n_chains=3, n_steps=20).xs)

    def test_blocking_and_prefix_invariance(self):
        target = gauss1d_target(BENCH)
        for seeds in [(9, 9, 9), (9, 8, 7)]:
            batch = _batch(seeds=seeds)
            a = run_ensemble(target, batch, n_chains=3, n_steps=40, noise_block=7)
            b = run_ensemble(target, batch, n_chains=3, n_steps=40, noise_block=1000)
            big = run_ensemble(target, batch, n_chains=5, n_steps=40)
            for sa, sb, sbig in zip(a, b, big):
                np.testing.assert_array_equal(sa.xs, sb.xs)
                np.testing.assert_array_equal(sa.xs, sbig.xs[:, :3, :])
                np.testing.assert_array_equal(sa.ys, sbig.ys[:, :3, :])

    def test_checkpoints_see_every_point(self):
        target = gauss1d_target(BENCH)
        batch = _batch()
        seen = {}
        stores = run_ensemble(target, batch, n_chains=4, n_steps=10)
        run = prepare_run(target, batch, n_chains=4, n_steps=10)
        run.drive(([10], lambda i, s: seen.update({i: (s.x.copy(), s.y.copy())})))
        X, Y = seen[0]
        assert X.shape == (3, 4, 1) and Y.shape == (3, 4, 1)
        for j, store in enumerate(stores):
            np.testing.assert_array_equal(X[j], store.final_x)
            np.testing.assert_array_equal(Y[j], store.ys[-1])

    def test_diverging_point_is_named(self):
        # every point starts from _diverging_init's chains; only point 1's
        # tau = 3 makes chain 2's primal of 1e300 overflow, while the other
        # points shrink it
        target = gauss1d_target(BENCH)
        batch = [SamplerParams(tau=1e-2, lam=1.0), SamplerParams(tau=3.0, lam=0.01),
                 SamplerParams(tau=2e-2, lam=0.5)]
        run = functools.partial(run_ensemble, target, n_chains=4, n_steps=100, kind="ula",
                                init=_diverging_init("ula"))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as caught:
                run(batch)
            with pytest.raises(DivergenceError) as alone:
                run(batch[1])
        err = caught.value
        assert (err.point, err.chain, err.step) == (1, 2, alone.value.step)
        assert str(err) == f"chain 2 of point 1 diverged: non-finite state at step {err.step}"
        assert alone.value.point is None

    def test_points_must_share_the_noise_variant_and_blocks(self):
        target = gauss1d_target(BENCH)
        mixed = [SamplerParams(tau=1e-2, lam=1.0), SamplerParams(tau=1e-2, lam=1.0,
                                                                  noise_variant="inner")]
        with pytest.raises(ValueError, match="share the noise variant"):
            run_ensemble(target, mixed, n_chains=2, n_steps=5)
        with pytest.raises(ValueError, match="share the noise variant"):
            make_step("ulpda", target, mixed)
        dense_X = np.array([[math.sqrt(2.0), 0.0]])
        B_X, B_Y = dense_map(dense_X), dense_map(np.zeros((1, 2)))
        general = [SamplerParams(tau=1e-2, lam=1.0, noise_variant="general", B_X=B_X, B_Y=B_Y),
                   SamplerParams(tau=2e-2, lam=1.0, noise_variant="general", B_X=B_X, B_Y=B_Y)]
        assert make_step("ulpda", target, general).noise_dim == 2
        # the points share the block objects themselves: an equal copy is another block
        for other in (dense_map(2 * dense_X), dense_map(dense_X)):
            general[1] = SamplerParams(tau=2e-2, lam=1.0, noise_variant="general", B_X=other,
                                       B_Y=B_Y)
            with pytest.raises(ValueError, match="share the noise variant"):
                make_step("ulpda", target, general)
        with pytest.raises(ValueError, match="at least one"):
            make_step("ulpda", target, [])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_theta_one_at_every_point_matches_separate_runs(self, variant):
        # with theta = 1 everywhere the kernel skips the extrapolation's product
        target = gauss1d_target(BENCH)
        blocks = {}
        if variant == "general":
            blocks = dict(B_X=dense_map([[math.sqrt(2.0), 0.3]]),
                          B_Y=dense_map([[0.1, -0.2]]))
        batch = [SamplerParams(tau=tau, lam=lam, theta=1.0, noise_variant=variant, seed=3,
                               **blocks) for tau, lam, _ in _POINTS]
        rng = np.random.default_rng(2)
        init = rng.standard_normal((5, 1)), rng.standard_normal((5, 1))
        run = functools.partial(run_ensemble, target, n_chains=5, n_steps=60, init=init)
        for p, store in zip(batch, run(batch)):
            alone = run(p)
            np.testing.assert_array_equal(store.xs, alone.xs)
            np.testing.assert_array_equal(store.ys, alone.ys)

    @pytest.mark.parametrize("kind", ["ulpda", "ula", "prox_sub", "modified_sde"])
    def test_one_kernel_steps_each_chain_count_with_its_bits(self, kind):
        # make_step's batched kernel holds (P, 1, 1) columns, which serve
        # any chain count; a run's kernel holds (P, n_chains, 1) arrays
        target = gauss1d_target(BENCH)
        batch = _batch()
        step = make_step(kind, target, batch)
        rng = np.random.default_rng(6)
        for n_chains in (4, 2, 4):
            x, y = rng.standard_normal((3, n_chains, 1)), rng.standard_normal((3, n_chains, 1))
            run_step = _make_step(kind, target, batch, n_chains)
            state = run_state = ChainState.initial(x, y)
            alone = [ChainState.initial(x[j], y[j]) for j in range(3)]
            for _ in range(3):
                xi = rng.standard_normal((3, n_chains, 1))
                state, run_state = step(state, xi), run_step(run_state, xi)
                alone = [make_step(kind, target, p)(a, xi[j])
                         for j, (p, a) in enumerate(zip(batch, alone))]
                for j, a in enumerate(alone):
                    for s in (state, run_state):
                        np.testing.assert_array_equal(s.x[j], a.x)
                        np.testing.assert_array_equal(s.y[j], a.y)

    def test_negative_step_size_raises_when_the_kernel_is_built(self):
        # SamplerParams rejects a nonpositive lam, so one is forced past it:
        # the dual prox is bound to sigma = lam * tau before any step
        target = gauss1d_target(BENCH)
        bad = SamplerParams(tau=1e-2, lam=1.0)
        object.__setattr__(bad, "lam", -1.0)
        for params in (bad, [SamplerParams(tau=1e-2, lam=1.0), bad]):
            with pytest.raises(ValueError, match="gamma must be nonnegative"):
                make_step("ulpda", target, params)

    def test_every_point_is_validated_before_stepping(self):
        target = gauss1d_target(BENCH)
        batch = [SamplerParams(tau=1e-2, lam=1.0), SamplerParams(tau=1.0, lam=1.0)]
        with pytest.raises(ValueError, match="diverge"):
            run_ensemble(target, batch, n_chains=1, n_steps=10)


class _Recorder:
    """Reducer that copies every (index, x, y) it is handed."""

    def __init__(self):
        self.seen = []

    def __call__(self, i, state):
        self.seen.append((i, state.x.copy(), state.y.copy()))


class TestRunReducers:
    @pytest.mark.parametrize("batched", [False, True], ids=["one_point", "three_points"])
    def test_overlapping_step_sets_each_see_their_steps_in_order(self, batched):
        target = gauss1d_target(BENCH)
        params = _batch() if batched else SamplerParams(tau=1e-2, lam=1.0, seed=6)
        run = prepare_run(target, params, n_chains=4, n_steps=20, burn_in=5, thinning=3)
        assert list(run.kept) == [8, 11, 14, 17, 20]
        kept, own, own_steps = _Recorder(), _Recorder(), [2, 8, 10, 17]
        run.drive(kept, (own_steps, own))
        # every state of the run, kept by run_ensemble
        full = run_ensemble(target, params, n_chains=4, n_steps=20)
        xs, ys = ((np.stack([st.xs for st in full], 1), np.stack([st.ys for st in full], 1))
                  if batched else (full.xs, full.ys))
        for reducer, steps in ((kept, run.kept), (own, own_steps)):
            assert [i for i, _, _ in reducer.seen] == list(range(len(steps)))
            for (i, x, y), n in zip(reducer.seen, steps):
                np.testing.assert_array_equal(x, xs[n])
                np.testing.assert_array_equal(y, ys[n])


def _slab_target(name):
    if name == "gauss1d":
        return gauss1d_target(BENCH)
    noisy = np.random.default_rng(8).uniform(0.0, 1.0, 16 * 16)
    if name == "tv16":
        return tv_image_target(noisy, 0.1, 0.5, 16, 16)
    return tgv_image_target(noisy, 0.1, 0.5, 1.0, 16, 16)


class _RowCounter:
    """Kernel x + xi that records the rows of every state it is handed."""

    noise_dim = 1

    def __init__(self):
        self.rows = []

    def __call__(self, state, xi):
        self.rows.append(state.x.shape[:-1])
        return ChainState(x=state.x + xi[..., :1], y=state.y, x_prev=state.x)


def _rows_per_step(x_shape, y_shape):
    """The rows of the states the kernel of one Run.drive step sees."""
    kernel = _RowCounter()
    state = ChainState.initial(np.zeros(x_shape), np.zeros(y_shape))
    Run(kernel, state, _streams(1), 1, range(2)).drive()
    return kernel.rows


def _two_row_slabs(monkeypatch, target):
    """Make Run.drive step 9 chains of ``target`` in slabs of 2, 2, 2, 2, 1 rows."""
    row_bytes = 8 * (target.dim_primal + target.dim_dual)
    monkeypatch.setattr(samplers, "_SLAB_BYTES", 2 * row_bytes)
    shapes = (9, target.dim_primal), (9, target.dim_dual)
    assert _rows_per_step(*shapes) == [(2,)] * 4 + [(1,)]


class TestSlabs:
    """Run.drive steps an unbatched state larger than cache in slabs of
    chain rows; every chain keeps its bits and the reducers still see one
    full state per step."""

    @pytest.mark.parametrize("name, kind, variant", [
        ("gauss1d", "ulpda", "outer"), ("gauss1d", "ulpda", "inner"),
        ("gauss1d", "ulpda", "general"), ("gauss1d", "ula", "outer"),
        ("gauss1d", "prox_sub", "outer"), ("gauss1d", "modified_sde", "outer"),
        ("tv16", "ulpda", "outer"), ("tv16", "ulpda", "inner"), ("tv16", "ulpda", "general"),
        ("tv16", "prox_sub", "outer"),
        ("tgv16", "ulpda", "outer"), ("tgv16", "ulpda", "inner"), ("tgv16", "ulpda", "general"),
        ("tgv16", "prox_sub", "outer"),
    ])
    def test_slabbed_run_matches_one_slab_bit_for_bit(self, monkeypatch, name, kind, variant):
        target = _slab_target(name)
        params = _variant_params(target, variant)
        rng = np.random.default_rng(2)
        init = (rng.uniform(0.0, 1.0, (9, target.dim_primal)),
                rng.uniform(-0.1, 0.1, (9, target.dim_dual)))

        def drive():
            run = prepare_run(target, params, 9, 12, burn_in=3, thinning=2, kind=kind,
                              init=init)
            kept, moments = KeepSamples(run), RunningMoments(lambda s: s.y)
            run.drive(kept, moments)
            return kept.xs, kept.ys, moments.mean(), moments.variance()

        whole = drive()
        _two_row_slabs(monkeypatch, target)
        slabbed = drive()
        assert np.isfinite(whole[0]).all()
        for a, b in zip(slabbed, whole):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["ulpda", "ula", "prox_sub", "modified_sde"])
    def test_divergence_in_a_later_slab_names_the_same_chain_and_step(self, monkeypatch, kind):
        # chain 7 sits in the fourth slab; the other chains start at 0
        X, Y = np.zeros((9, 1)), np.zeros((9, 1))
        (Y if kind == "ulpda" else X)[7] = 1e308 if kind == "ulpda" else 1e300
        target = gauss1d_target(BENCH)

        def diverge():
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceError) as caught:
                    run_ensemble(target, SamplerParams(tau=3.0, lam=0.01, seed=1), n_chains=9,
                                 n_steps=100, init=(X, Y), kind=kind)
            return caught.value.chain, caught.value.step

        whole = diverge()
        _two_row_slabs(monkeypatch, target)
        assert diverge() == whole and whole[0] == 7

    @pytest.mark.parametrize("x_shape, y_shape, rows", [
        ((10_000, 2), (10_000, 1), [(10_000,)]),  # tv2pixel_10k
        ((24, 3 * 32 * 32), (24, 5 * 32 * 32), [(24,)]),  # tgv_image_32
        ((4, 64, 1), (4, 64, 1), [(4, 64)]),  # gauss1d_sweep, batched
        ((24, 128 * 128), (24, 2 * 128 * 128), [(2,)] * 12),  # tv_image_128
    ], ids=["tv2pixel_10k", "tgv_image_32", "gauss1d_sweep", "tv_image_128"])
    def test_slab_rule_at_the_bench_shapes(self, x_shape, y_shape, rows):
        assert _rows_per_step(x_shape, y_shape) == rows


def _adding_kernel(dim, pause=0.0, nan_at=None):
    """x += xi on (rows, dim) states, checking that xi holds still for the
    whole step even when the step pauses; ``nan_at`` makes the state
    non-finite at that step. The kernel counts its own calls."""
    changed, calls = [], [0]

    def step(state, xi):
        calls[0] += 1
        seen = xi.copy()
        time.sleep(pause)
        if not np.array_equal(xi, seen):
            changed.append(calls[0])
        x = state.x + xi
        if calls[0] == nan_at:
            x[0, 0] = np.nan
        return ChainState(x=x, y=state.y, x_prev=state.x)

    step.noise_dim = dim
    return step, changed


def _streams(n, seed=0):
    return np.array([np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, i])))
                     for i in range(n)], dtype=object)


class _DrawError(RuntimeError):
    pass


class _FailingStream:
    """A generator stand-in whose draws raise ``error`` from call ``after``
    on (zero-based)."""

    def __init__(self, after, error):
        self.calls, self.after, self.error = 0, after, error

    def standard_normal(self, size=None, out=None):
        self.calls += 1
        if self.calls > self.after:
            raise self.error
        out[...] = 0.0
        return out


class TestPipelinedNoise:
    """Large draws are made on a worker thread one block ahead of the
    kernel; what the chains see must not change."""

    @staticmethod
    def _tv_run(noise_block, n_chains=3):
        noisy = np.random.default_rng(0).uniform(0.0, 1.0, 32 * 32)
        target = tv_image_target(noisy, 0.1, 3.0, 32, 32)
        threads = []
        run = prepare_run(
            target, SamplerParams(tau=0.003, lam=10.0, seed=5), n_chains=n_chains, n_steps=30,
            init=(np.tile(noisy, (n_chains, 1)), np.zeros((n_chains, target.dim_dual))),
        )
        store = KeepSamples(run)
        run.drive(store, ([15], lambda i, s: threads.append(threading.active_count())),
                  block=noise_block)
        return store, threads[0]

    def test_threaded_and_inline_draws_give_the_same_chains(self):
        before = threading.active_count()
        # 1024 normals per step and chain: blocks of at most 2 steps are
        # drawn inline, blocks of at most 7 or 1000 steps on the worker, in
        # draws of the fewest steps that reach _PIPELINE_MIN_DRAW
        assert 2 * 1024 < _PIPELINE_MIN_DRAW <= 7 * 1024
        inline, inline_threads = self._tv_run(noise_block=2)
        threaded, threaded_threads = self._tv_run(noise_block=7)
        whole, whole_threads = self._tv_run(noise_block=1000)
        bigger, _ = self._tv_run(noise_block=7, n_chains=5)
        assert (inline_threads, threaded_threads, whole_threads) == (before, before + 1, before + 1)
        for store in (threaded, whole):
            np.testing.assert_array_equal(store.xs, inline.xs)
            np.testing.assert_array_equal(store.ys, inline.ys)
        np.testing.assert_array_equal(bigger.xs[:, :3], threaded.xs)
        np.testing.assert_array_equal(bigger.ys[:, :3], threaded.ys)
        assert threading.active_count() == before

    @pytest.mark.parametrize("dim, n_steps, block, sizes, threaded", [
        (3072, 9, 256, [2, 2, 2, 2, 1], True),  # 32x32 TGV: 2 steps reach 4096 normals
        (_PIPELINE_MIN_DRAW, 3, 256, [1, 1, 1], True),
        (3072, 2, 256, [2], False),  # the run is one pipelined block long
        (1024, 9, 3, [3, 3, 3], False),  # 4 steps would reach it, blocks hold 3
    ])
    def test_pipelined_blocks_are_the_fewest_steps_that_reach_the_draw(
            self, dim, n_steps, block, sizes, threaded):
        before = threading.active_count()
        drawn, seen = [], []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size=None, out=None):
                drawn.append(out.shape)
                return self.rng.standard_normal(size, out=out)

        step, _ = _adding_kernel(dim)
        state = ChainState.initial(np.zeros((2, dim)), np.zeros((2, 1)))
        streams = np.array([Recording(r) for r in _streams(2)], dtype=object)
        Run(step, state, streams, n_steps, range(n_steps + 1)).drive(
            lambda i, s: seen.append(threading.active_count()), block=block)
        assert drawn == [(nb, dim) for nb in sizes for _ in range(2)]
        assert max(seen) == before + threaded

    def test_noise_holds_still_while_the_kernel_reads_it(self):
        # the worker fills the next block while a step pauses; it must fill
        # the other buffer, not the one the step is reading
        dim = _PIPELINE_MIN_DRAW
        step, changed = _adding_kernel(dim, pause=2e-3)
        state = ChainState.initial(np.zeros((2, dim)), np.zeros((2, 1)))
        finals = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over often
        try:
            Run(step, state, _streams(2), 12, range(13)).drive(
                lambda i, s: finals.append(s.x), block=3)
        finally:
            sys.setswitchinterval(interval)
        assert changed == []
        inline, _ = _adding_kernel(dim)
        expect = []
        Run(inline, state, _streams(2), 12, range(13)).drive(
            lambda i, s: expect.append(s.x), block=1)
        np.testing.assert_array_equal(finals[-1], expect[-1])

    def test_a_failing_draw_reaches_the_caller(self):
        before = threading.active_count()
        dim = _PIPELINE_MIN_DRAW
        step, _ = _adding_kernel(dim)
        error = _DrawError("stream exhausted")
        streams = np.array([_FailingStream(2, error)], dtype=object)
        state = ChainState.initial(np.zeros((1, dim)), np.zeros((1, 1)))
        seen = []
        with pytest.raises(_DrawError) as caught:
            Run(step, state, streams, 10, range(11)).drive(
                lambda i, s: seen.append(threading.active_count()), block=2)
        assert caught.value is error
        assert seen[-1] == before + 1 and len(seen) == 3  # 1-step blocks 0 and 1 were stepped
        assert threading.active_count() == before

    def test_divergence_mid_run_stops_the_worker(self):
        before = threading.active_count()
        dim = _PIPELINE_MIN_DRAW
        step, _ = _adding_kernel(dim, nan_at=5)
        state = ChainState.initial(np.zeros((2, dim)), np.zeros((2, 1)))
        seen = []
        with pytest.raises(DivergenceError, match="chain 0 diverged: non-finite state at step 5$"):
            Run(step, state, _streams(2), 40, range(41)).drive(
                lambda i, s: seen.append(threading.active_count()), block=2)
        assert seen[-1] == before + 1
        assert threading.active_count() == before


@pytest.mark.parametrize("seed", [0, 5, 2**31 - 1])
def test_chain_streams_are_keyed_through_seed_sequence(seed):
    rngs = samplers._chain_rngs(seed, 10_000)
    for i in (0, 1, 9_999):
        keyed = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, i])))
        assert rngs[i].standard_normal(16).tobytes() == keyed.standard_normal(16).tobytes()


class _ScratchSpy:
    """A generator stand-in that draws zeros and records the bytes of the
    array that each draw's ``out`` is a view of."""

    def __init__(self):
        self.scratch_bytes = set()

    def standard_normal(self, size=None, out=None):
        self.scratch_bytes.add(out.base.nbytes)
        out[...] = 0.0
        return out


class TestNoiseFill:
    """A fill draws a group of streams into a stream-major scratch and
    copies it into the step-major buffer; every stream lands where a draw
    of its own would put it, for any group size."""

    # (n_steps, block, pipelined): blocks of 6, 6, 6, 2 steps drawn inline,
    # or of 2 steps (the last of 1) drawn on the worker
    LAYOUTS = {"inline": (20, 6, False), "pipelined": (21, 256, True)}
    DIM = 3

    @pytest.mark.parametrize("fill", ["one_stream", "short_last_group", "default"])
    @pytest.mark.parametrize("layout", ["inline", "pipelined"])
    @pytest.mark.parametrize("rows", [(7,), (2, 5)], ids=["chains", "batched"])
    def test_every_stream_keeps_its_draws(self, monkeypatch, fill, layout, rows):
        n_steps, block, pipelined = self.LAYOUTS[layout]
        if pipelined:  # 2 steps reach the draw size: one worker block ahead
            monkeypatch.setattr(samplers, "_PIPELINE_MIN_DRAW", 2 * self.DIM)
        steps_per_fill = 2 if pipelined else block
        if fill != "default":  # 1 byte: one stream per group; else groups of 3, 3, 1
            size = 1 if fill == "one_stream" else 3 * 8 * steps_per_fill * self.DIM
            monkeypatch.setattr(samplers, "_FILL_BYTES", size)
        # a batched run with distinct seeds has a (P, n) array of generators
        seeds = range(rows[0]) if len(rows) == 2 else [4]
        rngs = np.stack([_streams(rows[-1], seed) for seed in seeds]).reshape(rows)
        step, _ = _adding_kernel(self.DIM)
        state = ChainState.initial(np.zeros(rows + (self.DIM,)), np.zeros(rows + (1,)))
        kept = []
        threads = []
        Run(step, state, rngs, n_steps, range(n_steps + 1)).drive(
            lambda i, s: (kept.append(s.x), threads.append(threading.active_count())),
            block=block)
        # the reference layout: each stream's whole draw at once, summed in step order
        walks = np.stack([np.cumsum(r.standard_normal((n_steps, self.DIM)), axis=0)
                          for r in np.stack([_streams(rows[-1], s) for s in seeds]).ravel()])
        want = np.concatenate([np.zeros((1,) + walks.shape[:1] + (self.DIM,)),
                               walks.transpose(1, 0, 2)])
        want = want.reshape((n_steps + 1,) + rows + (self.DIM,))
        assert np.stack(kept).tobytes() == want.tobytes()
        assert (max(threads) > min(threads)) == pipelined

    @pytest.mark.parametrize("n_streams, dim, n_steps, fill_steps, scratch", [
        (10_000, 2, 209, 209, 78 * 209 * 2 * 8),  # tv2pixel_10k: 78 streams of 209 steps
        (24, 128 * 128, 3, 1, 2 * 128 * 128 * 8),  # tv_image_128: 2 one-step streams
        (3, 40_000, 3, 1, 40_000 * 8),  # one stream's block is over the cap
    ], ids=["tv2pixel_10k", "tv_image_128", "one_stream_over_the_cap"])
    def test_scratch_holds_at_most_the_cap_or_one_stream(
            self, n_streams, dim, n_steps, fill_steps, scratch):
        spy = _ScratchSpy()
        step, _ = _adding_kernel(dim)
        state = ChainState.initial(np.zeros((n_streams, dim)), np.zeros((n_streams, 1)))
        Run(step, state, np.array([spy] * n_streams, dtype=object), n_steps,
            range(n_steps, n_steps + 1)).drive()
        assert spy.scratch_bytes == {scratch}
        assert scratch <= max(256 << 10, 8 * dim * fill_steps)
