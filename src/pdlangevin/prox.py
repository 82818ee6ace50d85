"""Proximal operators and projections shared by all samplers.

Every operator is wrapped in a :class:`ProxOperator` carrying the
strong-convexity modulus of the underlying function (0 if merely convex).
Projections accept and ignore the step size so that all proxes share a
single call signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ProxOperator:
    """Resolvent of a convex function, ``(id + gamma * subdiff)^{-1}``.

    Attributes
    ----------
    eval : callable
        Maps ``(point, gamma)`` to the prox at step size ``gamma``.
    modulus : float
        Strong-convexity constant of the underlying function; 0 if unknown
        or merely convex.
    label : str
        Human-readable name, used in validation reports.
    """

    eval: Callable[[np.ndarray, float], np.ndarray]
    modulus: float = 0.0
    label: str = "prox"

    def __call__(self, v: np.ndarray, gamma: float) -> np.ndarray:
        return self.eval(v, gamma)


def _check_finite(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite input to proximal operator")
    return v


def prox_scaled_square(v, gamma: float, c: float) -> np.ndarray:
    """Prox of ``x -> ||x||^2 / (2c)``: shrinkage ``v / (1 + gamma/c)``."""
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    v = _check_finite(v)
    return v / (1.0 + gamma / c)


def prox_quadratic_data(v, gamma: float, target, var: float) -> np.ndarray:
    """Prox of the Gaussian data term ``x -> ||x - target||^2 / (2 var)``."""
    if var <= 0:
        raise ValueError(f"var must be positive, got {var}")
    v = _check_finite(v)
    target = np.asarray(target, dtype=float)
    # batched v is allowed as long as trailing axes match the target
    if target.ndim > 0 and v.shape[v.ndim - target.ndim :] != target.shape:
        raise ValueError(f"shape mismatch: v {v.shape} vs target {target.shape}")
    r = gamma / var
    return (v + r * target) / (1.0 + r)


def project_interval(v, alpha: float, gamma: float = 0.0) -> np.ndarray:
    """Componentwise clamp to ``[-alpha, alpha]``; the step size is ignored."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    v = _check_finite(v)
    return np.clip(v, -alpha, alpha)


def project_l2_ball_groups(v, alpha: float, group_size: int = 2, gamma: float = 0.0) -> np.ndarray:
    """Groupwise projection onto l2-balls of radius ``alpha``.

    The last axis of ``v`` is partitioned into contiguous groups of
    ``group_size`` entries (the canonical layout interleaves the per-pixel
    components, e.g. (horizontal, vertical) pairs). Zero-norm groups are
    left untouched.
    """
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    v = np.asarray(v, dtype=float)
    if v.shape[-1] % group_size != 0:
        raise ValueError(
            f"last axis of size {v.shape[-1]} not divisible by group size {group_size}"
        )
    g = v.reshape(v.shape[:-1] + (-1, group_size))
    # squared norms summed component by component, in the order
    # np.linalg.norm uses, so the result matches it bit for bit
    norms = g[..., 0] * g[..., 0]
    sq = np.empty_like(norms)
    for k in range(1, group_size):
        np.multiply(g[..., k], g[..., k], out=sq)
        norms += sq
    # a finite sum means every entry is finite; otherwise tell a non-finite
    # entry from an overflowing square
    if not np.isfinite(norms.sum()):
        _check_finite(v)
    np.sqrt(norms, out=norms)
    # scale alpha / max(norm, alpha) is exactly 1 for groups inside the ball
    np.maximum(norms, alpha, out=norms)
    scale = np.divide(alpha, norms, out=norms)
    out = np.empty(g.shape)
    for k in range(group_size):
        np.multiply(g[..., k], scale, out=out[..., k])
    return out.reshape(v.shape)


def prox_via_moreau(fstar_prox: ProxOperator, v, gamma: float) -> np.ndarray:
    """Prox of f obtained from the prox of its conjugate via Moreau's identity.

    ``prox_{gamma f}(v) = v - gamma * prox_{f*/gamma}(v / gamma)``.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    v = _check_finite(v)
    return v - gamma * fstar_prox.eval(v / gamma, 1.0 / gamma)


# --- ProxOperator factories ---

def scaled_square_prox(c: float) -> ProxOperator:
    """Prox operator of ``||x||^2 / (2c)`` with modulus 1/c."""
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    return ProxOperator(
        eval=lambda v, gamma: prox_scaled_square(v, gamma, c),
        modulus=1.0 / c,
        label=f"scaled_square(c={c})",
    )


def quadratic_data_prox(target, var: float) -> ProxOperator:
    """Prox operator of the Gaussian data term with modulus 1/var."""
    target = np.asarray(target, dtype=float)
    if var <= 0:
        raise ValueError(f"var must be positive, got {var}")
    return ProxOperator(
        eval=lambda v, gamma: prox_quadratic_data(v, gamma, target, var),
        modulus=1.0 / var,
        label=f"quadratic_data(var={var})",
    )


def interval_projection(alpha: float) -> ProxOperator:
    """Projection onto ``[-alpha, alpha]``, the prox of the conjugate of alpha*|.|."""
    return ProxOperator(
        eval=lambda v, gamma: project_interval(v, alpha, gamma),
        modulus=0.0,
        label=f"interval_projection(alpha={alpha})",
    )


def group_ball_projection(alpha: float, group_size: int = 2) -> ProxOperator:
    """Groupwise l2-ball projection, the prox of the conjugate of alpha*||.||_{2,1}."""
    return ProxOperator(
        eval=lambda v, gamma: project_l2_ball_groups(v, alpha, group_size, gamma),
        modulus=0.0,
        label=f"group_ball_projection(alpha={alpha}, group={group_size})",
    )


def zero_prox() -> ProxOperator:
    """Prox of the zero function (identity map)."""
    return ProxOperator(eval=lambda v, gamma: _check_finite(v), modulus=0.0, label="zero")
