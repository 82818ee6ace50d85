"""Proximal operators: closed forms, projections, firm nonexpansiveness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlangevin.prox import (
    group_ball_projection,
    interval_projection,
    quadratic_data_prox,
    scaled_square_prox,
)


class TestScaledSquare:
    def test_shrinkage_formula(self):
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(scaled_square_prox(1.0).eval(v, 1.0), v / 2.0)
        np.testing.assert_allclose(scaled_square_prox(2.0).eval(v, 0.5), v / 1.25)

    def test_zero_gamma_is_identity(self):
        v = np.array([3.0, -1.5])
        np.testing.assert_array_equal(scaled_square_prox(2.0).eval(v, 0.0), v)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            scaled_square_prox(0.0)
        with pytest.raises(ValueError):
            scaled_square_prox(1.0).eval(np.ones(2), -1.0)

    def test_factory_modulus(self):
        assert scaled_square_prox(2.0).modulus == 0.5

    def test_column_gamma(self):
        # a batched run passes one step size per point as a (P, 1, 1) column
        v = np.random.default_rng(0).standard_normal((3, 4, 2))
        gammas = [0.5, 1e-3, 0.0]
        prox = scaled_square_prox(2.0)
        got = prox.eval(v, np.array(gammas).reshape(-1, 1, 1))
        for j, gamma in enumerate(gammas):
            np.testing.assert_array_equal(got[j], prox.eval(v[j], gamma))
        with pytest.raises(ValueError, match="nonnegative"):
            prox.eval(v, np.array([0.5, -1e-3, 0.0]).reshape(-1, 1, 1))


class TestQuadraticData:
    def test_formula(self):
        target = np.array([1.0, 2.0])
        v = np.array([0.0, 0.0])
        # (v + (gamma/var) target) / (1 + gamma/var)
        got = quadratic_data_prox(target, 1.0).eval(v, 1.0)
        np.testing.assert_allclose(got, target / 2.0)

    def test_converges_to_target_for_large_gamma(self):
        target = np.array([0.3, -0.7])
        got = quadratic_data_prox(target, 1.0).eval(np.zeros(2), 1e12)
        np.testing.assert_allclose(got, target, atol=1e-9)

    def test_batched_input(self):
        target = np.array([1.0, 2.0])
        v = np.zeros((5, 2))
        got = quadratic_data_prox(target, 1.0).eval(v, 1.0)
        assert got.shape == (5, 2)

    def test_column_gamma(self):
        v = np.random.default_rng(1).standard_normal((3, 4, 2))
        gammas = [0.5, 1e-3, 2.0]
        prox = quadratic_data_prox(np.array([1.0, -2.0]), 0.25)
        got = prox.eval(v, np.array(gammas).reshape(-1, 1, 1))
        for j, gamma in enumerate(gammas):
            np.testing.assert_array_equal(got[j], prox.eval(v[j], gamma))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            quadratic_data_prox(np.zeros(2), 1.0).eval(np.zeros(3), 1.0)

    def test_invalid_var(self):
        with pytest.raises(ValueError):
            quadratic_data_prox(np.zeros(2), 0.0)


class TestProjections:
    def test_interval_clamp(self):
        v = np.array([-5.0, -0.5, 0.5, 5.0])
        got = interval_projection(1.0).eval(v, 0.0)
        np.testing.assert_array_equal(got, [-1.0, -0.5, 0.5, 1.0])

    def test_interval_idempotent(self):
        v = np.array([0.2, -0.9])
        clamp = interval_projection(1.0)
        np.testing.assert_array_equal(clamp.eval(clamp.eval(v, 0.0), 0.0), clamp.eval(v, 0.0))

    def test_group_ball_norms_bounded(self):
        rng = np.random.default_rng(0)
        v = 10.0 * rng.standard_normal(20)
        out = group_ball_projection(2.0, group_size=2).eval(v, 0.0)
        norms = np.linalg.norm(out.reshape(-1, 2), axis=1)
        assert np.all(norms <= 2.0 + 1e-12)

    def test_group_ball_inside_untouched(self):
        v = np.array([0.1, 0.2, -0.3, 0.1])
        np.testing.assert_array_equal(group_ball_projection(1.0).eval(v, 0.0), v)

    def test_group_ball_zero_group(self):
        v = np.zeros(4)
        np.testing.assert_array_equal(group_ball_projection(1.0).eval(v, 0.0), v)

    def test_group_ball_direction_preserved(self):
        v = np.array([3.0, 4.0])  # norm 5, project to radius 1
        np.testing.assert_allclose(group_ball_projection(1.0).eval(v, 0.0), [0.6, 0.8])

    def test_group_size_mismatch(self):
        with pytest.raises(ValueError):
            group_ball_projection(1.0, group_size=2).eval(np.zeros(5), 0.0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            interval_projection(0.0)
        for alpha in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                group_ball_projection(alpha)

    def test_group_ball_overflowing_square_is_not_non_finite(self):
        # 1e200**2 overflows, yet the input is finite: the group norm is
        # inf, so the group shrinks to 0, as np.linalg.norm would have it
        with np.errstate(over="ignore"):
            out = group_ball_projection(1.0).eval(np.array([1e200, 1e200, 0.3, 0.4]), 0.0)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.3, 0.4])


def _ref_project_l2_ball_groups(v, alpha, group_size):
    """The np.linalg.norm form the projection replaced."""
    g = v.reshape(v.shape[:-1] + (-1, group_size))
    norms = np.linalg.norm(g, axis=-1, keepdims=True)
    scale = np.ones_like(norms)
    np.divide(alpha, norms, out=scale, where=norms > alpha)
    return (g * scale).reshape(v.shape)


class TestGroupBallMatchesReference:
    @pytest.mark.parametrize("group_size", [2, 3])
    @pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("alpha", [0.3, 1.5, 40.0])
    def test_bit_identical(self, group_size, batch, alpha):
        rng = np.random.default_rng(group_size * 100 + len(batch))
        n = 60 * group_size
        v = 2.0 * rng.standard_normal(batch + (n,))
        v[..., :group_size] = 0.0  # a zero group
        v[..., group_size + 1 : 2 * group_size] = -0.0
        v[..., group_size] = alpha  # a group with norm exactly alpha
        # a non-contiguous slice, as the TGV dual projection receives it
        wide = 2.0 * rng.standard_normal(batch + (n + 3 * group_size,))
        sliced = wide[..., 2 * group_size : 2 * group_size + n]
        projection = group_ball_projection(alpha, group_size)
        for x in (v, sliced):
            got = projection.eval(x, 0.0)
            expect = _ref_project_l2_ball_groups(x, alpha, group_size)
            np.testing.assert_array_equal(got, expect)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(expect))
        on_sphere = slice(group_size, 2 * group_size)
        out = projection.eval(v, 0.0)
        np.testing.assert_array_equal(out[..., on_sphere], v[..., on_sphere])

    def test_does_not_write_into_input(self):
        v = 5.0 * np.random.default_rng(1).standard_normal((3, 8))
        before = v.copy()
        group_ball_projection(1.0).eval(v, 0.0)
        np.testing.assert_array_equal(v, before)


def _all_prox_ops():
    return [
        scaled_square_prox(2.0),
        quadratic_data_prox(np.arange(4.0), 0.5),
        interval_projection(1.2),
        group_ball_projection(0.8, group_size=2),
    ]


@pytest.mark.parametrize("op", _all_prox_ops(), ids=lambda o: o.label)
def test_firm_nonexpansiveness(op):
    """||Tu - Tv||^2 <= <Tu - Tv, u - v> for resolvents of monotone maps."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        u = 4.0 * rng.standard_normal(4)
        v = 4.0 * rng.standard_normal(4)
        gamma = float(rng.uniform(0.01, 5.0))
        tu, tv = op.eval(u, gamma), op.eval(v, gamma)
        diff = tu - tv
        assert diff @ diff <= diff @ (u - v) + 1e-12


@given(
    v=st.floats(-1e6, 1e6),
    gamma=st.floats(0.0, 1e3),
    c=st.floats(1e-3, 1e3),
)
@settings(max_examples=100, deadline=None)
def test_scaled_square_contracts(v, gamma, c):
    out = scaled_square_prox(c).eval(np.array([v]), gamma)[0]
    assert abs(out) <= abs(v) + 1e-9


@given(v=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2), alpha=st.floats(1e-3, 50.0))
@settings(max_examples=100, deadline=None)
def test_group_projection_idempotent(v, alpha):
    arr = np.array(v)
    projection = group_ball_projection(alpha, group_size=2)
    once = projection.eval(arr, 0.0)
    twice = projection.eval(once, 0.0)
    np.testing.assert_allclose(once, twice, atol=1e-12)
