"""Coupled-chain contraction harness and bias sweeps."""

import copy
import math

import numpy as np
import pytest

from pdlangevin import coupling, samplers
from pdlangevin.analytic import GaussModel1D, stationary_cov_pd, target_variance
from pdlangevin.coupling import (
    CouplingTrace,
    SweepResult,
    _w2_to_reference,
    fit_contraction_rate,
    run_coupled_pair,
    sweep,
)
from pdlangevin.metrics import EmpiricalMeasure, stationary_flag, w2_exact, w2_pool
from pdlangevin.models import gauss1d_target, tv2pixel_target
from pdlangevin.samplers import DivergenceError, SamplerParams, run_ensemble
from reference_maps import dense_map

BENCH = GaussModel1D(1.0, 2.0, 1.5)


def _tau_params(lam, seed=0):
    """Step-size sweep: each grid value is tau, the ratio lam is fixed."""
    return lambda tau: SamplerParams(tau=tau, lam=lam, seed=seed)


def _lambda_params(tau, seed=0):
    """Step-ratio sweep: each grid value is lam, the step tau is fixed."""
    return lambda lam: SamplerParams(tau=tau, lam=lam, seed=seed)


def _inits(rng, scale=2.0):
    a = (scale * rng.standard_normal(1), scale * rng.standard_normal(1))
    b = (scale * rng.standard_normal(1), scale * rng.standard_normal(1))
    return a, b


@pytest.mark.parametrize("seed", [0, 5, 2**31 - 1])
def test_pair_stream_is_keyed_through_seed_sequence(seed, monkeypatch):
    drive, shared = samplers.Run.drive, []

    def spy(run, *reducers, **kwargs):
        shared.append(copy.deepcopy(run.rngs))
        return drive(run, *reducers, **kwargs)

    monkeypatch.setattr(samplers.Run, "drive", spy)
    init = (np.array([0.4]), np.array([-0.2]))
    run_coupled_pair(gauss1d_target(BENCH), SamplerParams(tau=0.1, lam=1.0, seed=seed),
                     init, init, n_steps=3)
    [rngs] = shared
    keyed = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    assert rngs.shape == (1,)
    assert rngs[0].standard_normal(16).tobytes() == keyed.standard_normal(16).tobytes()


class TestRunCoupledPair:
    def test_equal_inits_stay_collapsed(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=0.1, lam=1.0, theta=0.95, seed=0)
        init = (np.array([0.4]), np.array([-0.2]))
        trace = run_coupled_pair(target, p, init, init, n_steps=100)
        assert np.all(trace.delta == 0.0)
        assert np.all(trace.plain == 0.0)

    def test_per_step_contraction_strongly_convex(self):
        target = gauss1d_target(BENCH)
        theta = 0.95
        p = SamplerParams(tau=0.1, lam=1.0, theta=theta, seed=1)
        rng = np.random.default_rng(1)
        for _ in range(5):
            a, b = _inits(rng)
            trace = run_coupled_pair(target, p, a, b, n_steps=60)
            ratio = trace.delta[1:] / trace.delta[:-1]
            assert np.all(ratio <= theta * (1.0 + 1e-9))

    def test_theta_one_terminal_bound(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=0.1, lam=1.0, theta=1.0, seed=2)
        rng = np.random.default_rng(2)
        for _ in range(5):
            a, b = _inits(rng)
            trace = run_coupled_pair(target, p, a, b, n_steps=300)
            tsl = p.tau * p.sigma * target.K.norm() ** 2
            C = (1.0 - tsl) ** -0.5
            # terminal weighted primal distance bounded by C * initial joint
            u_term = trace.primal_sq[-1] - 2.0 * target.g_prox.modulus * 0.0
            assert np.all(trace.plain <= trace.plain[0] * (1.0 + 1e-9))
            assert math.sqrt(max(u_term, 0.0)) <= C * math.sqrt(trace.plain[0]) + 1e-9

    def test_regime_violation_rejected(self):
        target = gauss1d_target(BENCH)
        # theta below every admissible window
        p = SamplerParams(tau=1e-3, lam=1.0, theta=0.5)
        with pytest.raises(ValueError, match="regime"):
            run_coupled_pair(target, p, (np.zeros(1), np.zeros(1)), (np.ones(1), np.zeros(1)), 10)

    def test_initial_record_consistent(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=0.1, lam=1.0, theta=0.95, seed=3)
        a = (np.array([1.0]), np.array([0.5]))
        b = (np.array([-1.0]), np.array([0.0]))
        trace = run_coupled_pair(target, p, a, b, n_steps=1)
        u0 = a[0] - b[0]
        v0 = a[1] - b[1]
        want = (1 / p.tau + 2 * target.g_prox.modulus) * float(u0 @ u0) + (
            1 / p.sigma + 2 * target.fstar_prox.modulus
        ) * float(v0 @ v0)
        assert trace.delta[0] == pytest.approx(want, rel=1e-12)

    def test_general_noise_shares_a_joint_draw(self):
        # B_X = (sqrt(2) I, 0), B_Y = 0 is the outer variant driven by a
        # (d + m)-dimensional draw; shared noise cancels in the differences
        # of this affine chain, so the traces agree to rounding
        target = gauss1d_target(BENCH)
        B_X = dense_map(np.array([[np.sqrt(2.0), 0.0]]))
        B_Y = dense_map(np.zeros((1, 2)))
        kw = dict(tau=0.1, lam=1.0, theta=0.95, seed=5)
        a = (np.array([1.0]), np.array([0.5]))
        b = (np.array([-0.5]), np.array([0.2]))
        outer = run_coupled_pair(target, SamplerParams(**kw), a, b, n_steps=40)
        general = run_coupled_pair(
            target, SamplerParams(**kw, noise_variant="general", B_X=B_X, B_Y=B_Y), a, b,
            n_steps=40,
        )
        np.testing.assert_allclose(general.delta, outer.delta, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["ula", "prox_sub", "modified_sde"])
    def test_other_kinds_run_and_equal_inits_stay_collapsed(self, kind):
        target = gauss1d_target(BENCH)
        init = (np.array([0.4]), np.array([-0.2]))
        same = run_coupled_pair(target, SamplerParams(tau=0.01, lam=1.0, seed=6), init, init,
                                n_steps=50, kind=kind)
        assert len(same) == 51
        assert np.all(same.delta == 0.0)
        # every chain here is affine with additive noise, so shared draws
        # cancel in the differences: the trace does not depend on the seed
        other = (np.array([-1.0]), np.array([0.3]))
        apart = [
            run_coupled_pair(target, SamplerParams(tau=0.01, lam=1.0, seed=seed), init, other,
                             n_steps=50, kind=kind).delta
            for seed in (6, 7)
        ]
        assert np.all(apart[0] > 0)
        np.testing.assert_allclose(apart[0], apart[1], rtol=1e-9)

    def test_prox_sub_on_two_pixels(self):
        target = tv2pixel_target(np.array([0.0, 1.0]), 0.5, 3.0)
        p = SamplerParams(tau=0.01, lam=10.0, seed=2)
        init = (np.array([0.2, 0.7]), np.zeros(1))
        trace = run_coupled_pair(target, p, init, init, n_steps=50, kind="prox_sub")
        assert np.all(trace.delta == 0.0)

    def test_divergence_is_caught(self):
        # at tau = 3 the ula step multiplies the primal by about -7.25, so
        # chain 1, started at 1e300, overflows within a few dozen steps
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=3.0, lam=0.01, seed=3)
        a, b = (np.zeros(1), np.zeros(1)), (np.full(1, 1e300), np.zeros(1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as caught:
                run_coupled_pair(target, p, a, b, n_steps=100, kind="ula")
            step = caught.value.step
            assert caught.value.chain == 1 and 1 <= step < 100
            assert len(run_coupled_pair(target, p, a, b, n_steps=step - 1, kind="ula")) == step
            with pytest.raises(DivergenceError, match=f"at step {step}$"):
                run_coupled_pair(target, p, a, b, n_steps=step, kind="ula")

    def test_dimension_mismatch(self):
        target = gauss1d_target(BENCH)
        p = SamplerParams(tau=0.1, lam=1.0)
        with pytest.raises(ValueError, match="init shapes"):
            run_coupled_pair(target, p, (np.zeros(2), np.zeros(1)), (np.zeros(2), np.zeros(1)), 5)


class TestFitContractionRate:
    def _synthetic(self, deltas):
        n = len(deltas)
        z = np.zeros(n)
        return CouplingTrace(
            primal_sq=z, dual_sq=z, incr_sq=z, cross=z,
            delta=np.asarray(deltas, dtype=float), plain=z,
            params=SamplerParams(tau=0.1, lam=1.0), L=1.0,
        )

    def test_exact_geometric_decay(self):
        theta = 0.9
        trace = self._synthetic(theta ** np.arange(50))
        assert fit_contraction_rate(trace) == pytest.approx(math.log(theta), abs=1e-12)

    def test_collapsed_sentinel(self):
        trace = self._synthetic([1.0, 0.5, 0.0, 0.0])
        assert fit_contraction_rate(trace) == -math.inf

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit_contraction_rate(self._synthetic([1.0, 0.9]), burn=0)

    def test_quadratic_run_rate_below_log_theta(self):
        target = gauss1d_target(BENCH)
        theta = 0.95
        p = SamplerParams(tau=0.1, lam=1.0, theta=theta, seed=4)
        trace = run_coupled_pair(
            target, p, (np.array([2.0]), np.array([1.0])), (np.array([-1.0]), np.array([0.5])), 80
        )
        assert fit_contraction_rate(trace, burn=5) <= math.log(theta) + 1e-3


class TestBiasSweepTau:
    def test_moment_reference_runs(self):
        m = GaussModel1D(1.0, 2.0, 1.5, lam=10.0)
        target = gauss1d_target(m)
        ref = (0.0, stationary_cov_pd(m)[0, 0])
        result = sweep(
            target, [4e-3, 2e-3], _tau_params(10.0, seed=5), ref,
            n_chains=300, n_steps=3000, burn_in=1500,
        )
        assert result.w2.shape == (2,)
        assert np.all(result.w2 >= 0)
        assert result.stationary.dtype == bool

    def test_nonstationary_flagged(self):
        m = GaussModel1D(1.0, 2.0, 1.5, lam=1.0)
        target = gauss1d_target(m)
        # far-out point init and no burn-in: halves of the run differ
        result = sweep(
            target, [1e-3], _tau_params(1.0, seed=6), (0.0, target_variance(m)),
            n_chains=200, n_steps=400, burn_in=0,
        )
        assert not result.stationary[0]


class TestSweepResult:
    def test_slope_needs_two_positive_points(self):
        one = SweepResult(values=np.array([1.0]), w2=np.array([0.2]), stationary=np.array([True]))
        assert math.isnan(one.loglog_slope())
        two = SweepResult(values=np.array([1.0, 10.0]), w2=np.array([0.2, 0.02]),
                          stationary=np.array([True, True]))
        assert two.loglog_slope() == pytest.approx(-1.0)
        two.w2[1] = 0.0
        assert math.isnan(two.loglog_slope())


class TestLambdaSweep:
    def test_decreasing_bias(self):
        target = gauss1d_target(BENCH)
        ref = (0.0, target_variance(BENCH))
        result = sweep(
            target, [1.0, 100.0], _lambda_params(0.01, seed=7), ref,
            n_chains=2000, n_steps=4000, burn_in=1000,
        )
        assert result.w2[1] < result.w2[0]
        assert result.loglog_slope() < 0

    def test_points_property(self):
        target = gauss1d_target(BENCH)
        result = sweep(
            target, [1.0, 10.0], _lambda_params(0.01, seed=8), (0.0, target_variance(BENCH)),
            n_chains=50, n_steps=200, burn_in=100,
        )
        pts = result.points
        assert len(pts) == 2 and pts[0][0] == 1.0


class TestSweepIsBatched:
    """One batched run gives each point the statistics of its own run."""

    @pytest.mark.parametrize("case", ["lambda", "tau", "empirical_1d", "tv2pixel"])
    def test_matches_per_point_runs(self, case):
        target = gauss1d_target(BENCH)
        ref = (0.0, target_variance(BENCH))
        if case == "lambda":
            values, params_for = [1.0, 10.0, 100.0], _lambda_params(0.01, seed=7)
        elif case == "tau":
            values, params_for = [4e-3, 2e-3, 1e-3], _tau_params(10.0, seed=5)
        elif case == "empirical_1d":
            values, params_for = [1.0, 10.0], _lambda_params(0.01, seed=3)
            ref = EmpiricalMeasure(np.random.default_rng(0).normal(0.0, 1.2, 4000))
        else:  # exact assignment over batches of 2D clouds
            target = tv2pixel_target(np.array([0.0, 1.0]), 0.5, 3.0)
            values, params_for = [1.0, 10.0], _lambda_params(0.01, seed=2)
            ref = EmpiricalMeasure(np.random.default_rng(0).normal(0.5, 0.4, (600, 2)))
        run = dict(n_chains=40, n_steps=600, burn_in=200, thinning=2)
        result = sweep(target, values, params_for, ref, **run)
        for value, w2, flag in zip(values, result.w2, result.stationary):
            store = run_ensemble(target, params_for(value), **run)
            assert [w2] == _w2_to_reference([store.x_samples], ref)
            assert flag == stationary_flag(store.xs)

    def test_diverging_point_is_named(self):
        target = gauss1d_target(BENCH)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="of point 1 diverged"):
                sweep(target, [1e-2, 3.0], _tau_params(0.01), (0.0, 1.0), n_chains=4,
                      n_steps=2000, burn_in=0, kind="ula")


class TestReferenceDistance:
    def test_batches_average_the_inline_solves_in_batch_order(self):
        rng = np.random.default_rng(4)
        cloud, ref = rng.standard_normal((1000, 2)), EmpiricalMeasure(rng.standard_normal((900, 2)))
        perm = np.random.default_rng(0)
        perm_a, perm_b = perm.permutation(1000), perm.permutation(900)
        want = float(np.mean([
            w2_exact(EmpiricalMeasure(cloud[perm_a[i * 200 : (i + 1) * 200]]),
                     EmpiricalMeasure(ref.points[perm_b[i * 200 : (i + 1) * 200]]))
            for i in range(4)
        ]))
        assert _w2_to_reference([cloud], ref, batch_cap=200) == [want]

    def test_each_cloud_averages_its_own_batches(self):
        rng = np.random.default_rng(8)
        ref = EmpiricalMeasure(rng.standard_normal((900, 2)))
        clouds = [rng.standard_normal((1000, 2)), 1.5 + rng.standard_normal((700, 2))]
        want = [_w2_to_reference([c], ref, batch_cap=200)[0] for c in clouds]
        assert _w2_to_reference(clouds, ref, batch_cap=200) == want

    def test_a_sweep_solves_every_point_in_one_pool(self, monkeypatch):
        opened = []

        def counting_pool(n_solves):
            opened.append(n_solves)
            return w2_pool(n_solves)

        monkeypatch.setattr(coupling, "w2_pool", counting_pool)
        target = tv2pixel_target(np.array([0.0, 1.0]), 0.5, 3.0)
        ref = EmpiricalMeasure(np.random.default_rng(0).normal(0.5, 0.4, (600, 2)))
        sweep(target, [1.0, 10.0], _lambda_params(0.01, seed=2), ref,
              n_chains=40, n_steps=300, burn_in=100, thinning=2)
        assert opened == [2]

    def test_moment_and_1d_references_start_no_pool(self, monkeypatch):
        def no_pool(n_solves):
            raise AssertionError("a 1D reference started a solve pool")

        monkeypatch.setattr(coupling, "w2_pool", no_pool)
        cloud = np.random.default_rng(5).standard_normal((500, 1))
        _w2_to_reference([cloud], (0.0, 1.0))
        _w2_to_reference([cloud], EmpiricalMeasure(np.random.default_rng(6).standard_normal(300)))


class TestDualConcentration:
    def test_dual_residual_variance_decreases_with_lambda(self):
        # the gap between the dual state and the exact subgradient at the
        # primal state concentrates as the step ratio grows
        target = gauss1d_target(BENCH)
        spreads = []
        for lam in (1.0, 10.0, 100.0):
            p = SamplerParams(tau=0.01, lam=lam, seed=9)
            store = run_ensemble(target, p, n_chains=2000, n_steps=3000, burn_in=1500, thinning=3)
            resid = store.y_samples[:, 0] - BENCH.k * store.x_samples[:, 0] / BENCH.c_f
            spreads.append(resid.var(ddof=1))
        assert spreads[0] > spreads[1] > spreads[2]
