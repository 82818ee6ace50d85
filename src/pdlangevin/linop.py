"""Matrix-free linear operators with adjoints and certified operator norms.

Images are stored row-major as flat vectors of length ``width * height``.
Gradient outputs interleave the (horizontal, vertical) components per pixel,
matching the group layout of the l2,1-ball projections. Forward differences
use replicate (Neumann) boundaries, so the adjoint of the gradient is an
exact negative divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# a few ulps up: a bound computed below may land an ulp or two under the exact norm
_ULPS_UP = 1.0 + 4.0 * np.finfo(float).eps


@dataclass
class LinearMap:
    """A linear operator ``K`` given by its action and adjoint action.

    ``apply`` and ``adjoint`` act on the last axis, so batched inputs of
    shape ``(..., d)`` are supported. Each row of their result depends on
    that row alone, bit for bit (a dense map meets this through
    ``np.matvec``, not BLAS ``x @ A.T``); the samplers' kernels rely on it.

    ``bound`` is a certified upper bound on ``||K||``, stated by the map's
    builder; a map without a finite, nonnegative one is rejected.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    dim_in: int
    dim_out: int
    bound: float
    label: str = "K"

    def __post_init__(self):
        if not 0.0 <= self.bound < math.inf:  # NaN fails too
            raise ValueError(f"the norm bound must be finite and nonnegative, got {self.bound}")

    def norm(self) -> float:
        """The certified bound on ``||K||`` the map was built with."""
        return self.bound


def scalar_map(k: float) -> LinearMap:
    """The 1x1 map ``x -> k x``; self-adjoint with norm ``|k|``."""
    k = float(k)
    return LinearMap(
        apply=lambda x: k * np.asarray(x, dtype=float),
        adjoint=lambda y: k * np.asarray(y, dtype=float),
        dim_in=1,
        dim_out=1,
        bound=abs(k),
        label=f"scalar({k})",
    )


def diff_pair() -> LinearMap:
    """The two-pixel difference ``x -> x_2 - x_1``, with norm sqrt(2)."""

    def apply(x):
        x = np.asarray(x, dtype=float)
        return (x[..., 1] - x[..., 0])[..., None]

    def adjoint(y):
        y = np.asarray(y, dtype=float)
        return np.concatenate([-y, y], axis=-1)

    return LinearMap(apply=apply, adjoint=adjoint, dim_in=2, dim_out=1,
                     bound=math.sqrt(2.0) * _ULPS_UP, label="diff_pair")


def _forward_diffs_into(img, out) -> None:
    """Write the forward differences of ``img`` (..., h, w) into ``out``
    (..., h, w, 2), zero across the last column and the last row."""
    np.subtract(img[..., :, 1:], img[..., :, :-1], out=out[..., :, :-1, 0])
    out[..., :, -1, 0] = 0.0
    np.subtract(img[..., 1:, :], img[..., :-1, :], out=out[..., :-1, :, 1])
    out[..., -1, :, 1] = 0.0


def _neg_divergence_into(g, out) -> None:
    """Adjoint of :func:`_forward_diffs_into`: ``g`` (..., h, w, 2) into ``out`` (..., h, w)."""
    gh, gv = g[..., 0], g[..., 1]
    # 0.0 + gh and gh + 0.0 are the same IEEE sum, so this is the zero-fill
    # and first add in one pass, signs of zero included
    np.add(gh[..., :, :-1], 0.0, out=out[..., :, 1:])
    out[..., :, 0] = 0.0
    out[..., :, :-1] -= gh[..., :, :-1]
    out[..., 1:, :] += gv[..., :-1, :]
    out[..., :-1, :] -= gv[..., :-1, :]


def _grad_norm(width: int, height: int) -> float:
    """``||grad2d(width, height)||``, from the path-graph Laplacians' top eigenvalues."""
    top = [math.sin(math.pi * (n - 1) / (2 * n)) ** 2 for n in (width, height)]
    return 2.0 * math.sqrt(sum(top)) * _ULPS_UP


def grad2d(width: int, height: int) -> LinearMap:
    """Forward-difference gradient on a ``height x width`` image.

    Output has 2 channels per pixel, interleaved (horizontal, vertical).
    Differences across the last column/row are zero (replicate boundary).
    """
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be >= 1")
    d = width * height

    def apply(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (height, width, 2))
        _forward_diffs_into(x.reshape(x.shape[:-1] + (height, width)), out)
        return out.reshape(x.shape[:-1] + (2 * d,))

    def adjoint(y):
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape[:-1] + (height, width))
        _neg_divergence_into(y.reshape(y.shape[:-1] + (height, width, 2)), out)
        return out.reshape(y.shape[:-1] + (d,))

    return LinearMap(apply=apply, adjoint=adjoint, dim_in=d, dim_out=2 * d,
                     bound=_grad_norm(width, height), label=f"grad2d({width}x{height})")


def sym_grad2d(width: int, height: int) -> LinearMap:
    """Symmetrized backward-difference gradient on a 2-channel vector field.

    Input: interleaved (v_h, v_v) per pixel, length ``2 * width * height``.
    Output: 3 channels per pixel, (diag_h, diag_v, sqrt(2) * offdiag), so the
    groupwise l2 norm over the 3 channels equals the Frobenius norm of the
    symmetric 2x2 Jacobian with the off-diagonal counted twice.

    Its norm bound is that of :func:`grad2d`, as ``||E v||^2 <= ||B v_h||^2 +
    ||B v_v||^2`` for ``B`` the backward-difference gradient, of equal norm.
    """
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be >= 1")
    d = width * height
    root2 = np.sqrt(2.0)

    def _bh(a, out):
        # backward difference along width, zero at the first column
        out[..., :, 0] = 0.0
        np.subtract(a[..., :, 1:], a[..., :, :-1], out=out[..., :, 1:])

    def _bv(a, out):
        out[..., 0, :] = 0.0
        np.subtract(a[..., 1:, :], a[..., :-1, :], out=out[..., 1:, :])

    def _bh_t(a, out):
        # adjoint of _bh, summed as (0 - a[j+1]) + a[j]
        np.subtract(0.0, a[..., :, 1:], out=out[..., :, :-1])
        out[..., :, -1] = 0.0
        out[..., :, 1:] += a[..., :, 1:]

    def _bv_t(a, out):
        np.subtract(0.0, a[..., 1:, :], out=out[..., :-1, :])
        out[..., -1, :] = 0.0
        out[..., 1:, :] += a[..., 1:, :]

    def apply(v):
        v = np.asarray(v, dtype=float)
        f = v.reshape(v.shape[:-1] + (height, width, 2))
        vh, vv = f[..., 0], f[..., 1]
        out = np.empty(v.shape[:-1] + (height, width, 3))
        _bh(vh, out[..., 0])
        _bv(vv, out[..., 1])
        w12 = out[..., 2]
        tmp = np.empty(vh.shape)
        _bv(vh, w12)
        _bh(vv, tmp)
        w12 += tmp
        w12 *= 0.5
        w12 *= root2
        return out.reshape(v.shape[:-1] + (3 * d,))

    def adjoint(w):
        w = np.asarray(w, dtype=float)
        g = w.reshape(w.shape[:-1] + (height, width, 3))
        w11, w22, w12s = g[..., 0], g[..., 1], g[..., 2]
        out = np.empty(w.shape[:-1] + (height, width, 2))
        vh, vv = out[..., 0], out[..., 1]
        tmp = np.empty(w11.shape)
        scale = 0.5 * root2
        _bh_t(w11, vh)
        _bv_t(w12s, tmp)
        tmp *= scale
        vh += tmp
        _bv_t(w22, vv)
        _bh_t(w12s, tmp)
        tmp *= scale
        vv += tmp
        return out.reshape(w.shape[:-1] + (2 * d,))

    return LinearMap(
        apply=apply, adjoint=adjoint, dim_in=2 * d, dim_out=3 * d,
        bound=_grad_norm(width, height), label=f"sym_grad2d({width}x{height})",
    )


def tgv_block(width: int, height: int, sym_grad: LinearMap) -> LinearMap:
    """Block operator ``(u, v) -> (grad u - v, E v)`` used by the TGV prior.

    Its norm bound is the spectral norm of ``[[||grad||, 1], [0, ||E||]]``,
    with ``||E||`` the bound ``sym_grad`` carries.
    """
    d = width * height
    if sym_grad.dim_in != 2 * d:
        raise ValueError(
            f"sym_grad input dim {sym_grad.dim_in} inconsistent with {width}x{height} image"
        )
    n_in = d + 2 * d
    n_out = 2 * d + sym_grad.dim_out
    # top singular value of [[a, 1], [0, e]]: largest root of s^4 - (a^2 + 1 + e^2) s^2 + a^2 e^2
    a2, e2 = _grad_norm(width, height) ** 2, sym_grad.norm() ** 2
    bound = math.sqrt((a2 + 1.0 + e2 + math.sqrt((a2 - e2) ** 2 + 2.0 * (a2 + e2) + 1.0)) / 2.0)

    def image(a, channels=None):
        # view of a block of the last axis as an image; splitting one
        # contiguous axis never copies, so writes reach ``a``
        return a.reshape(a.shape[:-1] + (height, width) + ((channels,) if channels else ()))

    def apply(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., :d], x[..., d:]
        out = np.empty(x.shape[:-1] + (n_out,))
        top = out[..., : 2 * d]
        _forward_diffs_into(image(u), image(top, 2))
        top -= v
        out[..., 2 * d :] = sym_grad.apply(v)
        return out

    def adjoint(y):
        y = np.asarray(y, dtype=float)
        p, q = y[..., : 2 * d], y[..., 2 * d :]
        out = np.empty(y.shape[:-1] + (n_in,))
        _neg_divergence_into(image(p, 2), image(out[..., :d]))
        # s - p is (-p) + s exactly
        np.subtract(sym_grad.adjoint(q), p, out=out[..., d:])
        return out

    return LinearMap(
        apply=apply, adjoint=adjoint, dim_in=n_in, dim_out=n_out,
        bound=bound * _ULPS_UP, label=f"tgv_block({width}x{height})",
    )
