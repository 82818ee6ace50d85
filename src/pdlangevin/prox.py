"""Proximal operators and projections shared by all samplers.

Each operator has one form, a factory: it checks once what its arguments
fix and returns a :class:`ProxOperator`, whose ``at(gamma)`` settles once
what a step size fixes, for a map ``v -> prox`` that does only the
arithmetic (projections ignore the step size). Every formula is
elementwise, so ``gamma`` may be a batched run's array of step sizes. No
operator checks its input for non-finite entries: the driver does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np


@dataclass(frozen=True)
class ProxOperator:
    """Resolvent of a convex function, ``(id + gamma * subdiff)^{-1}``.

    Attributes
    ----------
    at : callable
        Binds a step size: ``at(gamma)`` maps a point to its prox at ``gamma``.
    modulus : float
        Strong-convexity constant of the underlying function; 0 if unknown
        or merely convex.
    label : str
        Human-readable name, used in validation reports.
    """

    at: Callable[[Union[float, np.ndarray]], Callable[[np.ndarray], np.ndarray]]
    modulus: float = 0.0
    label: str = "prox"


def scaled_square_prox(c: float) -> ProxOperator:
    """Prox of ``x -> ||x||^2 / (2c)``, the shrinkage ``v / (1 + gamma/c)``,
    with modulus 1/c; ``at`` rejects a negative ``gamma``."""
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")

    def at(gamma):
        if np.any(np.less(gamma, 0.0)):
            raise ValueError(f"gamma must be nonnegative, got {gamma}")
        denominator = 1.0 + gamma / c
        return lambda v: v / denominator

    return ProxOperator(at=at, modulus=1.0 / c, label=f"scaled_square(c={c})")


def quadratic_data_prox(target, var: float) -> ProxOperator:
    """Prox of the Gaussian data term ``x -> ||x - target||^2 / (2 var)``
    with modulus 1/var; ``v`` may carry batch axes before the target's."""
    target = np.asarray(target, dtype=float)
    if var <= 0:
        raise ValueError(f"var must be positive, got {var}")

    def at(gamma):
        r = gamma / var
        pull, denominator = r * target, 1.0 + r

        def prox(v):
            if target.ndim > 0 and v.shape[v.ndim - target.ndim :] != target.shape:
                raise ValueError(f"shape mismatch: v {v.shape} vs target {target.shape}")
            out = v + pull
            out /= denominator
            return out

        return prox

    return ProxOperator(at=at, modulus=1.0 / var, label=f"quadratic_data(var={var})")


def interval_projection(alpha: float) -> ProxOperator:
    """Componentwise clamp to ``[-alpha, alpha]``, the prox of the conjugate
    of alpha*|.|; the step size is ignored."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return ProxOperator(
        at=lambda gamma: lambda v: np.clip(v, -alpha, alpha),
        modulus=0.0,
        label=f"interval_projection(alpha={alpha})",
    )


def group_ball_projection(alpha: float, group_size: int = 2) -> ProxOperator:
    """Groupwise projection onto l2-balls of radius ``alpha``, the prox of
    the conjugate of alpha*||.||_{2,1}; the step size is ignored.

    The last axis of the input is partitioned into contiguous groups of
    ``group_size`` entries (the canonical layout interleaves the per-pixel
    components, e.g. (horizontal, vertical) pairs). Zero-norm groups are
    left untouched.
    """
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")

    def project(v):
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
        np.sqrt(norms, out=norms)
        # scale alpha / max(norm, alpha) is exactly 1 for groups inside the ball
        np.maximum(norms, alpha, out=norms)
        scale = np.divide(alpha, norms, out=norms)
        out = np.empty(g.shape)
        for k in range(group_size):
            np.multiply(g[..., k], scale, out=out[..., k])
        return out.reshape(v.shape)

    return ProxOperator(
        at=lambda gamma: project,
        modulus=0.0,
        label=f"group_ball_projection(alpha={alpha}, group={group_size})",
    )
