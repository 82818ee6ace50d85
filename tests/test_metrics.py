"""Wasserstein distances, moments, pixel statistics, PSNR."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlangevin.metrics import (
    EmpiricalMeasure,
    RunningMoments,
    moments,
    pixelwise_variance,
    _sq_dist_matrix,
    psnr,
    stationary_flag,
    stationary_statistic,
    w2_1d,
    w2_exact,
    w2_pool,
)


class TestEmpiricalMeasure:
    def test_1d_input_promoted(self):
        mu = EmpiricalMeasure(np.array([1.0, 2.0]))
        assert (mu.n, mu.dim) == (2, 1)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([[np.inf]]))


class TestW21d:
    def test_sorted_matching(self):
        mu = EmpiricalMeasure(np.array([0.0, 2.0]))
        nu = EmpiricalMeasure(np.array([3.0, 1.0]))
        assert w2_1d(mu, nu) == pytest.approx(1.0)

    def test_identical_zero(self):
        mu = EmpiricalMeasure(np.array([0.3, -1.0, 2.0]))
        assert w2_1d(mu, mu) == 0.0

    def test_point_masses(self):
        assert w2_1d(EmpiricalMeasure(np.array([2.0])), EmpiricalMeasure(np.array([-1.0]))) == 3.0

    def test_unequal_counts_interpolated(self):
        mu = EmpiricalMeasure(np.array([0.0]))
        nu = EmpiricalMeasure(np.array([0.0, 0.0, 0.0]))
        assert w2_1d(mu, nu) == 0.0

    def test_unequal_counts_integrate_the_step_quantiles(self):
        # F^-1 is 0 on (0, 1]; G^-1 is 0 on (0, 1/2] and 1 on (1/2, 1]
        mu, nu = EmpiricalMeasure(np.array([0.0])), EmpiricalMeasure(np.array([1.0, 0.0]))
        assert w2_1d(mu, nu) == math.sqrt(0.5)

    @given(a=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50),
           b=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_unequal_counts_match_the_repeated_equal_count_coupling(self, a, b):
        # repeating each point N/n times leaves the measure as it is, and
        # at equal counts sorted matching is the exact coupling
        n_common = math.lcm(len(a), len(b))
        a_rep = np.sort(np.repeat(a, n_common // len(a)))
        b_rep = np.sort(np.repeat(b, n_common // len(b)))
        expected = math.sqrt(np.mean((a_rep - b_rep) ** 2))
        got = w2_1d(EmpiricalMeasure(np.array(a)), EmpiricalMeasure(np.array(b)))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            w2_1d(EmpiricalMeasure(np.zeros((3, 2))), EmpiricalMeasure(np.zeros((3, 2))))

    def test_matches_exact_solver(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            mu = EmpiricalMeasure(rng.standard_normal(n))
            nu = EmpiricalMeasure(rng.standard_normal(n) + rng.uniform(-1, 1))
            assert w2_1d(mu, nu) == pytest.approx(w2_exact(mu, nu), abs=1e-12)


class TestW2Exact:
    def test_two_point_clouds(self):
        mu = EmpiricalMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]))
        nu = EmpiricalMeasure(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert w2_exact(mu, nu) == pytest.approx(1.0)

    def test_shuffled_self_zero(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((20, 3))
        mu = EmpiricalMeasure(pts)
        nu = EmpiricalMeasure(pts[rng.permutation(20)])
        assert w2_exact(mu, nu) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        mu = EmpiricalMeasure(rng.standard_normal((15, 2)))
        nu = EmpiricalMeasure(rng.standard_normal((15, 2)))
        assert w2_exact(mu, nu) == pytest.approx(w2_exact(nu, mu), rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = (EmpiricalMeasure(rng.standard_normal((12, 2))) for _ in range(3))
            assert w2_exact(a, c) <= w2_exact(a, b) + w2_exact(b, c) + 1e-9

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            w2_exact(EmpiricalMeasure(np.zeros((2, 1))), EmpiricalMeasure(np.zeros((3, 1))))

    def test_cap_exceeded_suggests_subsampling(self):
        mu = EmpiricalMeasure(np.zeros((5, 1)))
        with pytest.raises(ValueError, match="subsample"):
            w2_exact(mu, mu, cap=3)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cost_matches_the_broadcast_formula(self, d):
        # the in-place build keeps every bit of the (n, m, d) broadcast sum,
        # signs of zero included; the further coordinates go 327 rows at a
        # time when m = 200, so 300 rows fit one chunk and 1000 do not
        # fill the last
        rng = np.random.default_rng(d)
        for n, m in [(300, 200), (1000, 200), (37, 53), (1, 5), (5, 1)]:
            P, Q = rng.standard_normal((n, d)), rng.standard_normal((m, d))
            P[:3], Q[:2] = 0.0, -0.0
            P[min(5, n - 1), 0] = Q[min(7, m - 1), 0]
            want = np.sum((P[:, None, :] - Q[None, :, :]) ** 2, axis=-1)
            got = _sq_dist_matrix(P, Q)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()

    def test_cost_build_holds_one_cost_matrix(self):
        # further coordinates are squared a chunk of rows at a time, so the
        # build peaks at the (n, n) cost plus one small chunk
        rng = np.random.default_rng(0)
        P, Q = rng.standard_normal((1000, 2)), rng.standard_normal((1000, 2))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _sq_dist_matrix(P, Q)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 1000 * 1000 * 8


class TestW2Pool:
    @staticmethod
    def _pairs(count, n=40, d=2):
        rng = np.random.default_rng(9)
        return [
            (EmpiricalMeasure(rng.standard_normal((n, d))),
             EmpiricalMeasure(rng.standard_normal((n, d))))
            for _ in range(count)
        ]

    def test_results_are_the_inline_bits_in_submission_order(self):
        pairs = self._pairs(7)
        with w2_pool(len(pairs)) as pool:
            solves = [pool.submit(w2_exact, mu, nu) for mu, nu in pairs]
            got = [solve.result(timeout=60) for solve in solves]
        want = [w2_exact(mu, nu) for mu, nu in pairs]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_at_most_two_workers_and_no_more_than_solves(self):
        with w2_pool(1) as pool:
            assert pool._max_workers == 1
        with w2_pool(50) as pool:
            assert pool._max_workers <= 2

    def test_a_failing_solve_reraises_its_exception_and_threads_exit(self):
        before = threading.active_count()
        (mu, nu), = self._pairs(1, n=5)
        err = ValueError("raised on a worker")

        def fail():
            raise err

        with w2_pool(3) as pool:
            over_cap = pool.submit(w2_exact, mu, nu, cap=3)
            failing = pool.submit(fail)
            fine = pool.submit(w2_exact, mu, nu)
            with pytest.raises(ValueError, match="subsample"):
                over_cap.result(timeout=60)
            with pytest.raises(ValueError) as info:
                failing.result(timeout=60)
            assert info.value is err
            assert fine.result(timeout=60) == w2_exact(mu, nu)
        assert threading.active_count() == before

    def test_an_exception_in_the_block_cancels_and_joins(self):
        before = threading.active_count()
        pairs = self._pairs(4)
        with pytest.raises(RuntimeError, match="caller failed"):
            with w2_pool(len(pairs)) as pool:
                # keep every worker busy so the solves are still queued
                busy = [pool.submit(threading.Event().wait, 0.2) for _ in range(2)]
                solves = [pool.submit(w2_exact, mu, nu) for mu, nu in pairs]
                raise RuntimeError("caller failed")
        assert threading.active_count() == before
        assert all(b.done() for b in busy)
        assert all(solve.cancelled() for solve in solves)


class TestMoments:
    def test_two_point_variance(self):
        mean, cov = moments(EmpiricalMeasure(np.array([-1.0, 1.0])))
        assert mean[0] == 0.0
        assert cov[0, 0] == pytest.approx(2.0)

    def test_translation_invariant_cov(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((100, 2))
        _, c1 = moments(EmpiricalMeasure(pts))
        _, c2 = moments(EmpiricalMeasure(pts + np.array([5.0, -3.0])))
        np.testing.assert_allclose(c1, c2, atol=1e-12)

    def test_monte_carlo_variance(self):
        rng = np.random.default_rng(6)
        _, cov = moments(EmpiricalMeasure(rng.standard_normal(100_000)))
        assert cov[0, 0] == pytest.approx(1.0, rel=0.02)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            moments(EmpiricalMeasure(np.array([1.0])))


class TestPixelwiseVariance:
    def test_constant_chain_zero(self):
        samples = np.ones((10, 4))
        np.testing.assert_array_equal(pixelwise_variance(samples), np.zeros(4))

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((50, 6))
        np.testing.assert_allclose(pixelwise_variance(s), pixelwise_variance(s + 3.0), atol=1e-12)

    def test_monte_carlo_iid_pixels(self):
        rng = np.random.default_rng(8)
        s = 2.0 * rng.standard_normal((20_000, 3))
        np.testing.assert_allclose(pixelwise_variance(s), 4.0, rtol=0.05)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            pixelwise_variance(np.ones((1, 4)))

    @pytest.mark.parametrize("n, width, d", [
        (480, 16384, 16384), (480, 32768, 32768),  # tv_image 128x128: x and y clouds
        (960, 3072, 1024), (960, 5120, 5120),  # tgv_image 32x32: u out of x, and y
        (9, 1, 1), (200, 1, 1), (33, 3, 3), (129, 7, 7), (300, 1023, 1023), (5, 70001, 70001),
        (200, 9, 3), (2, 2, 2),
    ])
    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    def test_bits_of_numpy_two_pass_variance(self, n, width, d, layout):
        # the CLI passes C-ordered clouds, whole or as a leading-column view
        pts = 3.0 * np.random.default_rng(n + d).standard_normal((n, width))[:, :d] + 1.0
        if layout == "fortran":
            pts = np.asfortranarray(pts)
        elif layout == "strided":
            pts = np.repeat(pts, 2, axis=1)[:, ::2]
        assert np.array_equal(pixelwise_variance(pts), pts.var(axis=0, ddof=1))


@st.composite
def _clouds_in_blocks(draw):
    """A random (n, dim) cloud, some of its columns constant, and a split
    of its rows into consecutive blocks (1-row blocks included)."""
    n, dim = draw(st.integers(1, 60)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.3, 1.0, 40.0]))
    cloud = draw(st.sampled_from([0.0, 0.5, -3.0])) + scale * rng.standard_normal((n, dim))
    constant = draw(st.sets(st.integers(0, dim - 1)))
    for j in constant:
        cloud[:, j] = draw(st.sampled_from([0.0, -0.0, 0.1, -3.7, 1e8]))
    sizes, left = [], n
    while left:
        sizes.append(draw(st.integers(1, left)))
        left -= sizes[-1]
    return cloud, sorted(constant), sizes


class TestRunningMoments:
    # dim >= 2: numpy sums a single column pairwise, not row by row
    @settings(max_examples=200, deadline=None)
    @given(_clouds_in_blocks())
    def test_streams_the_moments_of_the_whole_cloud(self, case):
        cloud, constant, sizes = case
        moments_ = RunningMoments()
        start = 0
        for k in sizes:
            moments_.add(cloud[start : start + k])
            start += k
        assert moments_.n == cloud.shape[0]
        assert moments_.mean().tobytes() == cloud.mean(axis=0).tobytes()
        if cloud.shape[0] < 2:
            with pytest.raises(ValueError, match="at least 2"):
                moments_.variance()
            return
        var = moments_.variance()
        assert np.all(var[constant] == 0.0)
        assert not np.signbit(var).any()
        varying = np.setdiff1d(np.arange(cloud.shape[1]), constant)
        np.testing.assert_allclose(var[varying], cloud.var(axis=0, ddof=1)[varying],
                                   rtol=1e-12, atol=0)

    def test_needs_samples(self):
        moments_ = RunningMoments()
        with pytest.raises(ValueError):
            moments_.mean()
        with pytest.raises(ValueError, match="at least 2"):
            moments_.variance()
        moments_.add(np.ones((1, 3)))
        with pytest.raises(ValueError, match="at least 2"):
            moments_.variance()
        moments_.add(np.zeros((0, 3)))
        assert moments_.n == 1

    def test_rejects_blocks_of_another_shape(self):
        moments_ = RunningMoments()
        with pytest.raises(ValueError):
            moments_.add(np.ones(3))
        moments_.add(np.ones((2, 3)))
        with pytest.raises(ValueError):
            moments_.add(np.ones((2, 1)))


class TestStationaryStatistic:
    def test_flag_is_the_statistic_below_its_threshold(self):
        # the later kept steps hold the earlier ones' values, shuffled and
        # shifted, so the statistic is near the shift: both sides of 1e-2
        rng = np.random.default_rng(4)
        flags = []
        for shift in rng.uniform(0.0, 0.02, 24):
            n_kept = int(rng.integers(1, 4)) * 2
            first = rng.standard_normal((n_kept // 2, 30, 2))
            second = rng.permutation(first.reshape(-1, 2)).reshape(first.shape) + shift
            cloud = np.concatenate([first, second])
            statistic = stationary_statistic(cloud)
            assert math.isfinite(statistic) and statistic >= 0.0
            assert stationary_flag(cloud) == (statistic < 1e-2)
            flags.append(stationary_flag(cloud))
        assert any(flags) and not all(flags)

    def test_one_kept_step_has_no_statistic(self):
        cloud = np.zeros((1, 10, 2))
        assert stationary_statistic(cloud) == math.inf
        assert not stationary_flag(cloud)


class TestPsnr:
    def test_direct_formula(self):
        ref = np.zeros(100)
        est = np.full(100, 0.1)  # MSE 0.01
        assert psnr(ref, est) == pytest.approx(20.0)

    def test_identical_infinite(self):
        assert psnr(np.ones(4), np.ones(4)) == math.inf

    def test_zero_vs_one(self):
        assert psnr(np.zeros(9), np.ones(9)) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(3), np.zeros(4))
