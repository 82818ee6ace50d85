"""Linear operators: exact values on small inputs, adjointness, norms."""

import numpy as np
import pytest

from pdlangevin.linop import (
    LinearMap,
    diff_pair,
    grad2d,
    power_iteration_norm,
    scalar_map,
    sym_grad2d,
    tgv_block,
)


def _adjointness(op, n_pairs=100, seed=0, rtol=1e-10):
    rng = np.random.default_rng(seed)
    for _ in range(n_pairs):
        x = rng.standard_normal(op.dim_in)
        y = rng.standard_normal(op.dim_out)
        lhs = float(op.apply(x) @ y)
        rhs = float(x @ op.adjoint(y))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= rtol * scale


class TestScalarMap:
    def test_apply_adjoint(self):
        op = scalar_map(-2.5)
        np.testing.assert_allclose(op.apply(np.array([3.0])), [-7.5])
        np.testing.assert_allclose(op.adjoint(np.array([2.0])), [-5.0])

    def test_norm(self):
        assert scalar_map(-2.5).norm() == pytest.approx(2.5, rel=1e-12)


class TestDiffPair:
    def test_values(self):
        np.testing.assert_allclose(diff_pair().apply(np.array([1.0, 4.0])), [3.0])
        np.testing.assert_allclose(diff_pair().adjoint(np.array([2.0])), [-2.0, 2.0])

    def test_adjointness(self):
        _adjointness(diff_pair())

    def test_norm_sqrt2(self):
        assert diff_pair().norm() == pytest.approx(np.sqrt(2.0), rel=1e-8)


class TestGrad2d:
    def test_constant_image_zero_gradient(self):
        op = grad2d(4, 3)
        np.testing.assert_array_equal(op.apply(np.full(12, 3.7)), np.zeros(24))

    def test_small_example(self):
        # image [[0, 1], [2, 3]]: forward differences, replicate boundary
        op = grad2d(2, 2)
        out = op.apply(np.array([0.0, 1.0, 2.0, 3.0]))
        # per-pixel (horizontal, vertical): (1,2), (0,2), (1,0), (0,0)
        np.testing.assert_array_equal(out, [1, 2, 0, 2, 1, 0, 0, 0])

    @pytest.mark.parametrize("w,h", [(1, 1), (4, 3), (7, 5)])
    def test_adjointness(self, w, h):
        _adjointness(grad2d(w, h))

    def test_norm_bound(self):
        assert grad2d(8, 8).norm() <= np.sqrt(8.0) + 1e-9

    def test_batched_matches_loop(self):
        op = grad2d(3, 3)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 9))
        batched = op.apply(X)
        looped = np.stack([op.apply(x) for x in X])
        np.testing.assert_array_equal(batched, looped)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            grad2d(0, 3)


class TestSymGrad2d:
    @pytest.mark.parametrize("w,h", [(3, 3), (5, 4)])
    def test_adjointness(self, w, h):
        _adjointness(sym_grad2d(w, h))

    def test_constant_field_zero(self):
        op = sym_grad2d(4, 4)
        v = np.tile([1.0, -2.0], 16)
        # backward differences vanish except at the zero-padded first row/col
        out = op.apply(v).reshape(4, 4, 3)
        assert np.all(out[1:, 1:, :] == 0)

    def test_offdiagonal_channel_weight(self):
        # the third channel carries sqrt(2) * symmetrized off-diagonal, so
        # squared channel norms reproduce the doubled off-diagonal count
        op = sym_grad2d(3, 3)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(18)
        out = op.apply(v).reshape(9, 3)
        w12 = out[:, 2] / np.sqrt(2.0)
        frob_sq = out[:, 0] ** 2 + out[:, 1] ** 2 + 2.0 * w12**2
        np.testing.assert_allclose(frob_sq, (out**2).sum(axis=1), atol=1e-12)


class TestTgvBlock:
    def test_adjointness(self):
        _adjointness(tgv_block(3, 4, sym_grad2d(3, 4)))

    def test_block_structure(self):
        w, h = 3, 3
        d = w * h
        op = tgv_block(w, h, sym_grad2d(w, h))
        assert (op.dim_in, op.dim_out) == (3 * d, 5 * d)
        u = np.random.default_rng(4).standard_normal(d)
        x = np.concatenate([u, np.zeros(2 * d)])
        out = op.apply(x)
        np.testing.assert_array_equal(out[: 2 * d], grad2d(w, h).apply(u))
        np.testing.assert_array_equal(out[2 * d :], np.zeros(3 * d))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            tgv_block(3, 3, sym_grad2d(4, 4))


class TestPowerIteration:
    def test_matches_svd_on_dense_matrix(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 4))
        op = LinearMap(apply=lambda x: x @ A.T, adjoint=lambda y: y @ A, dim_in=4, dim_out=6)
        est = power_iteration_norm(op, iters=500)
        assert est == pytest.approx(np.linalg.svd(A, compute_uv=False)[0], rel=1e-8)

    def test_monotone_in_iterations(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((5, 5))
        op = LinearMap(apply=lambda x: x @ A.T, adjoint=lambda y: y @ A, dim_in=5, dim_out=5)
        ests = [power_iteration_norm(op, iters=i) for i in (1, 3, 10, 50)]
        assert all(b >= a - 1e-12 for a, b in zip(ests, ests[1:]))

    def test_deterministic(self):
        op = grad2d(5, 5)
        assert power_iteration_norm(op, iters=50, seed=3) == power_iteration_norm(
            op, iters=50, seed=3
        )

    def test_zero_operator(self):
        op = LinearMap(apply=lambda x: 0.0 * x, adjoint=lambda y: 0.0 * y, dim_in=3, dim_out=3)
        assert power_iteration_norm(op) == 0.0

    def test_norm_cached(self):
        op = grad2d(4, 4)
        assert op.norm() == op.norm()

    def test_bad_iters(self):
        with pytest.raises(ValueError):
            power_iteration_norm(grad2d(2, 2), iters=0)


# --- reference formulas: the zeros + np.stack forms the operators replaced ---

def _ref_grad_apply(x, w, h):
    img = x.reshape(x.shape[:-1] + (h, w))
    gh = np.zeros_like(img)
    gv = np.zeros_like(img)
    gh[..., :, :-1] = img[..., :, 1:] - img[..., :, :-1]
    gv[..., :-1, :] = img[..., 1:, :] - img[..., :-1, :]
    return np.stack([gh, gv], axis=-1).reshape(x.shape[:-1] + (2 * w * h,))


def _ref_grad_adjoint(y, w, h):
    g = y.reshape(y.shape[:-1] + (h, w, 2))
    gh, gv = g[..., 0], g[..., 1]
    out = np.zeros(y.shape[:-1] + (h, w))
    out[..., :, 1:] += gh[..., :, :-1]
    out[..., :, :-1] -= gh[..., :, :-1]
    out[..., 1:, :] += gv[..., :-1, :]
    out[..., :-1, :] -= gv[..., :-1, :]
    return out.reshape(y.shape[:-1] + (w * h,))


def _ref_bh(a):
    out = np.zeros_like(a)
    out[..., :, 1:] = a[..., :, 1:] - a[..., :, :-1]
    return out


def _ref_bv(a):
    out = np.zeros_like(a)
    out[..., 1:, :] = a[..., 1:, :] - a[..., :-1, :]
    return out


def _ref_bh_t(a):
    out = np.zeros_like(a)
    out[..., :, :-1] -= a[..., :, 1:]
    out[..., :, 1:] += a[..., :, 1:]
    return out


def _ref_bv_t(a):
    out = np.zeros_like(a)
    out[..., :-1, :] -= a[..., 1:, :]
    out[..., 1:, :] += a[..., 1:, :]
    return out


def _ref_sym_apply(v, w, h):
    f = v.reshape(v.shape[:-1] + (h, w, 2))
    vh, vv = f[..., 0], f[..., 1]
    w12 = 0.5 * (_ref_bv(vh) + _ref_bh(vv))
    out = np.stack([_ref_bh(vh), _ref_bv(vv), np.sqrt(2.0) * w12], axis=-1)
    return out.reshape(v.shape[:-1] + (3 * w * h,))


def _ref_sym_adjoint(q, w, h):
    root2 = np.sqrt(2.0)
    g = q.reshape(q.shape[:-1] + (h, w, 3))
    w11, w22, w12s = g[..., 0], g[..., 1], g[..., 2]
    vh = _ref_bh_t(w11) + 0.5 * root2 * _ref_bv_t(w12s)
    vv = _ref_bv_t(w22) + 0.5 * root2 * _ref_bh_t(w12s)
    return np.stack([vh, vv], axis=-1).reshape(q.shape[:-1] + (2 * w * h,))


def _ref_tgv_apply(x, w, h):
    d = w * h
    u, v = x[..., :d], x[..., d:]
    return np.concatenate([_ref_grad_apply(u, w, h) - v, _ref_sym_apply(v, w, h)], axis=-1)


def _ref_tgv_adjoint(y, w, h):
    d = w * h
    p, q = y[..., : 2 * d], y[..., 2 * d :]
    return np.concatenate([_ref_grad_adjoint(p, w, h), -p + _ref_sym_adjoint(q, w, h)], axis=-1)


def _assert_same_bits(got, expect):
    assert got.shape == expect.shape
    np.testing.assert_array_equal(got, expect)
    # array_equal treats -0.0 == 0.0; the sign of zero must match as well
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expect))


def _inputs(rng, batch, n):
    """A dense draw, one with zeros of both signs, and a non-contiguous slice."""
    dense = rng.standard_normal(batch + (n,))
    zeros = dense.copy()
    zeros[..., ::3] = 0.0
    zeros[..., 1::4] = -0.0
    wide = rng.standard_normal(batch + (n + 7,))
    return dense, zeros, wide[..., 3 : 3 + n]


class TestMatchesReferenceFormulas:
    @pytest.mark.parametrize("w,h", [(1, 1), (1, 4), (5, 1), (7, 5)])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    def test_bit_identical(self, w, h, batch):
        rng = np.random.default_rng(w * 10 + h)
        cases = [
            (grad2d(w, h), _ref_grad_apply, _ref_grad_adjoint),
            (sym_grad2d(w, h), _ref_sym_apply, _ref_sym_adjoint),
            (tgv_block(w, h, sym_grad2d(w, h)), _ref_tgv_apply, _ref_tgv_adjoint),
        ]
        for op, ref_apply, ref_adjoint in cases:
            for x in _inputs(rng, batch, op.dim_in):
                _assert_same_bits(op.apply(x), ref_apply(x, w, h))
            for y in _inputs(rng, batch, op.dim_out):
                _assert_same_bits(op.adjoint(y), ref_adjoint(y, w, h))

    def test_tgv_sliced_blocks_as_the_tgv_target_passes_them(self):
        # the TGV dual arrives as views into one (chains, 5d) array
        w, h = 6, 4
        d = w * h
        rng = np.random.default_rng(8)
        E = sym_grad2d(w, h)
        Y = rng.standard_normal((4, 5 * d))
        p, q = Y[:, : 2 * d], Y[:, 2 * d :]
        _assert_same_bits(grad2d(w, h).adjoint(p), _ref_grad_adjoint(p, w, h))
        _assert_same_bits(E.adjoint(q), _ref_sym_adjoint(q, w, h))
        X = rng.standard_normal((4, 3 * d))
        _assert_same_bits(E.apply(X[:, d:]), _ref_sym_apply(X[:, d:], w, h))


_ROWWISE_MAPS = {
    "scalar_map": lambda: scalar_map(-1.7),
    "diff_pair": diff_pair,
    "grad2d": lambda: grad2d(16, 16),
    "sym_grad2d": lambda: sym_grad2d(16, 16),
    "tgv_block": lambda: tgv_block(16, 16, sym_grad2d(16, 16)),
}


class TestRowwiseContract:
    """Each row of ``apply`` and ``adjoint`` depends on that row alone, bit
    for bit: the samplers step slabs of chain rows on this contract."""

    @pytest.mark.parametrize("name", list(_ROWWISE_MAPS))
    def test_slabs_of_rows_give_the_bits_of_the_whole_batch(self, name):
        op = _ROWWISE_MAPS[name]()
        rng = np.random.default_rng(7)
        for f, dim in ((op.apply, op.dim_in), (op.adjoint, op.dim_out)):
            rows = rng.standard_normal((9, dim))
            slabs = np.concatenate([f(rows[a : a + 2]) for a in range(0, 9, 2)])
            assert slabs.tobytes() == f(rows).tobytes()
