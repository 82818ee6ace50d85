"""Proximal operators: closed forms, projections, firm nonexpansiveness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdlangevin.models import tgv_image_target
from pdlangevin.prox import (
    group_ball_projection,
    interval_projection,
    quadratic_data_prox,
    scaled_square_prox,
)


class TestScaledSquare:
    def test_shrinkage_formula(self):
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(scaled_square_prox(1.0).at(1.0)(v), v / 2.0)
        np.testing.assert_allclose(scaled_square_prox(2.0).at(0.5)(v), v / 1.25)

    def test_zero_gamma_is_identity(self):
        v = np.array([3.0, -1.5])
        np.testing.assert_array_equal(scaled_square_prox(2.0).at(0.0)(v), v)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            scaled_square_prox(0.0)
        with pytest.raises(ValueError):
            scaled_square_prox(1.0).at(-1.0)(np.ones(2))

    def test_factory_modulus(self):
        assert scaled_square_prox(2.0).modulus == 0.5

    def test_column_gamma(self):
        # a batched run passes one step size per point as a (P, 1, 1) column
        v = np.random.default_rng(0).standard_normal((3, 4, 2))
        gammas = [0.5, 1e-3, 0.0]
        prox = scaled_square_prox(2.0)
        got = prox.at(np.array(gammas).reshape(-1, 1, 1))(v)
        for j, gamma in enumerate(gammas):
            np.testing.assert_array_equal(got[j], prox.at(gamma)(v[j]))
        with pytest.raises(ValueError, match="nonnegative"):
            prox.at(np.array([0.5, -1e-3, 0.0]).reshape(-1, 1, 1))(v)


class TestQuadraticData:
    def test_formula(self):
        target = np.array([1.0, 2.0])
        v = np.array([0.0, 0.0])
        # (v + (gamma/var) target) / (1 + gamma/var)
        got = quadratic_data_prox(target, 1.0).at(1.0)(v)
        np.testing.assert_allclose(got, target / 2.0)

    def test_converges_to_target_for_large_gamma(self):
        target = np.array([0.3, -0.7])
        got = quadratic_data_prox(target, 1.0).at(1e12)(np.zeros(2))
        np.testing.assert_allclose(got, target, atol=1e-9)

    def test_batched_input(self):
        target = np.array([1.0, 2.0])
        v = np.zeros((5, 2))
        got = quadratic_data_prox(target, 1.0).at(1.0)(v)
        assert got.shape == (5, 2)

    def test_column_gamma(self):
        v = np.random.default_rng(1).standard_normal((3, 4, 2))
        gammas = [0.5, 1e-3, 2.0]
        prox = quadratic_data_prox(np.array([1.0, -2.0]), 0.25)
        got = prox.at(np.array(gammas).reshape(-1, 1, 1))(v)
        for j, gamma in enumerate(gammas):
            np.testing.assert_array_equal(got[j], prox.at(gamma)(v[j]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            quadratic_data_prox(np.zeros(2), 1.0).at(1.0)(np.zeros(3))

    def test_invalid_var(self):
        with pytest.raises(ValueError):
            quadratic_data_prox(np.zeros(2), 0.0)


class TestProjections:
    def test_interval_clamp(self):
        v = np.array([-5.0, -0.5, 0.5, 5.0])
        got = interval_projection(1.0).at(0.0)(v)
        np.testing.assert_array_equal(got, [-1.0, -0.5, 0.5, 1.0])

    def test_interval_idempotent(self):
        v = np.array([0.2, -0.9])
        clamp = interval_projection(1.0)
        np.testing.assert_array_equal(clamp.at(0.0)(clamp.at(0.0)(v)), clamp.at(0.0)(v))

    def test_group_ball_norms_bounded(self):
        rng = np.random.default_rng(0)
        v = 10.0 * rng.standard_normal(20)
        out = group_ball_projection(2.0, group_size=2).at(0.0)(v)
        norms = np.linalg.norm(out.reshape(-1, 2), axis=1)
        assert np.all(norms <= 2.0 + 1e-12)

    def test_group_ball_inside_untouched(self):
        v = np.array([0.1, 0.2, -0.3, 0.1])
        np.testing.assert_array_equal(group_ball_projection(1.0).at(0.0)(v), v)

    def test_group_ball_zero_group(self):
        v = np.zeros(4)
        np.testing.assert_array_equal(group_ball_projection(1.0).at(0.0)(v), v)

    def test_group_ball_direction_preserved(self):
        v = np.array([3.0, 4.0])  # norm 5, project to radius 1
        np.testing.assert_allclose(group_ball_projection(1.0).at(0.0)(v), [0.6, 0.8])

    def test_group_size_mismatch(self):
        with pytest.raises(ValueError):
            group_ball_projection(1.0, group_size=2).at(0.0)(np.zeros(5))

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
            out = group_ball_projection(1.0).at(0.0)(np.array([1e200, 1e200, 0.3, 0.4]))
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
            got = projection.at(0.0)(x)
            expect = _ref_project_l2_ball_groups(x, alpha, group_size)
            np.testing.assert_array_equal(got, expect)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(expect))
        on_sphere = slice(group_size, 2 * group_size)
        out = projection.at(0.0)(v)
        np.testing.assert_array_equal(out[..., on_sphere], v[..., on_sphere])

    def test_does_not_write_into_input(self):
        v = 5.0 * np.random.default_rng(1).standard_normal((3, 8))
        before = v.copy()
        group_ball_projection(1.0).at(0.0)(v)
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
        tu, tv = op.at(gamma)(u), op.at(gamma)(v)
        diff = tu - tv
        assert diff @ diff <= diff @ (u - v) + 1e-12


@given(
    v=st.floats(-1e6, 1e6),
    gamma=st.floats(0.0, 1e3),
    c=st.floats(1e-3, 1e3),
)
@settings(max_examples=100, deadline=None)
def test_scaled_square_contracts(v, gamma, c):
    out = scaled_square_prox(c).at(gamma)(np.array([v]))[0]
    assert abs(out) <= abs(v) + 1e-9


@given(v=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2), alpha=st.floats(1e-3, 50.0))
@settings(max_examples=100, deadline=None)
def test_group_projection_idempotent(v, alpha):
    arr = np.array(v)
    projection = group_ball_projection(alpha, group_size=2)
    once = projection.at(0.0)(arr)
    twice = projection.at(0.0)(once)
    np.testing.assert_allclose(once, twice, atol=1e-12)


# --- the bound form: at(gamma) settles the step size once ---


def _ref_scaled_square(v, gamma, c):
    """The per-call formula the bound form replaced."""
    return v / (1.0 + gamma / c)


def _ref_quadratic_data(v, gamma, target, var):
    """The per-call formula the bound form replaced."""
    r = gamma / var
    out = v + r * target
    out /= 1.0 + r
    return out


@st.composite
def _states_and_steps(draw):
    """A (P, n, 2) batch with a (P, 1, 1) step-size column."""
    P, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    v = draw(hnp.arrays(float, (P, n, 2), elements=st.floats(-1e6, 1e6)))
    column = draw(hnp.arrays(float, (P, 1, 1), elements=st.floats(0.0, 1e3)))
    return v, column


def _step_forms(column, n):
    """One step size as a Python float, the (P, 1, 1) column, and the
    column repeated to the (P, n, 1) rows, as a batched kernel binds it."""
    return float(column.flat[0]), column, np.repeat(column, n, axis=1)


@given(case=_states_and_steps(), c=st.floats(1e-3, 1e3))
@settings(max_examples=100, deadline=None)
def test_scaled_square_bound_form_has_the_formula_bits(case, c):
    v, column = case
    prox = scaled_square_prox(c)
    for gamma in _step_forms(column, v.shape[1]):
        np.testing.assert_array_equal(prox.at(gamma)(v), _ref_scaled_square(v, gamma, c))


@given(case=_states_and_steps(), target=hnp.arrays(float, 2, elements=st.floats(-1e3, 1e3)),
       var=st.floats(1e-3, 1e3))
@settings(max_examples=100, deadline=None)
def test_quadratic_data_bound_form_has_the_formula_bits(case, target, var):
    v, column = case
    prox = quadratic_data_prox(target, var)
    for gamma in _step_forms(column, v.shape[1]):
        np.testing.assert_array_equal(prox.at(gamma)(v), _ref_quadratic_data(v, gamma, target, var))


@given(case=_states_and_steps(), alpha=st.floats(1e-3, 50.0))
@settings(max_examples=100, deadline=None)
def test_projection_bound_forms_have_the_formula_bits(case, alpha):
    v, column = case
    for gamma in _step_forms(column, v.shape[1]):
        np.testing.assert_array_equal(interval_projection(alpha).at(gamma)(v),
                                      np.clip(v, -alpha, alpha))
        np.testing.assert_array_equal(group_ball_projection(alpha).at(gamma)(v),
                                      _ref_project_l2_ball_groups(v, alpha, 2))


@pytest.mark.parametrize("gamma", [-1e-3, np.array([0.5, -1e-3, 0.0]).reshape(-1, 1, 1)],
                         ids=["scalar", "column"])
def test_scaled_square_rejects_a_negative_step_at_bind_time(gamma):
    prox = scaled_square_prox(2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        prox.at(gamma)  # the bound map is never called


def test_projections_ignore_the_step_size():
    v = 3.0 * np.random.default_rng(2).standard_normal((2, 6))
    for projection in (interval_projection(1.0), group_ball_projection(1.0, group_size=3)):
        np.testing.assert_array_equal(projection.at(-1.0)(v), projection.at(0.0)(v))


class TestTgvCompositeProxes:
    """The TGV target's g and f* bind their parts: the data prox on the
    image block, and the two group-ball projections on the dual blocks."""

    WIDTH, HEIGHT, SIGMA_EPS, ALPHA1, ALPHA0 = 4, 3, 0.2, 0.7, 1.1

    def _target(self):
        noisy = np.random.default_rng(4).uniform(0.0, 1.0, self.WIDTH * self.HEIGHT)
        target = tgv_image_target(noisy, self.SIGMA_EPS, self.ALPHA1, self.ALPHA0,
                                  self.WIDTH, self.HEIGHT)
        return target, noisy

    @pytest.mark.parametrize("gamma", [0.03, np.array([0.03, 0.5]).reshape(-1, 1, 1)],
                             ids=["scalar", "column"])
    def test_parts_bits(self, gamma):
        target, noisy = self._target()
        d, m_top = noisy.size, 2 * noisy.size
        rng = np.random.default_rng(5)
        z = rng.standard_normal((2, 3, target.dim_primal))
        y = 2.0 * rng.standard_normal((2, 3, target.dim_dual))
        before = z.copy(), y.copy()
        g, fstar = target.g_prox.at(gamma)(z), target.fstar_prox.at(gamma)(y)
        data = quadratic_data_prox(noisy, self.SIGMA_EPS**2).at(gamma)
        np.testing.assert_array_equal(g[..., :d], data(z[..., :d]))
        np.testing.assert_array_equal(g[..., d:], z[..., d:])
        np.testing.assert_array_equal(
            fstar[..., :m_top], group_ball_projection(self.ALPHA1, 2).at(gamma)(y[..., :m_top]))
        np.testing.assert_array_equal(
            fstar[..., m_top:], group_ball_projection(self.ALPHA0, 3).at(gamma)(y[..., m_top:]))
        np.testing.assert_array_equal(z, before[0])
        np.testing.assert_array_equal(y, before[1])
