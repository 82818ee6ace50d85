"""Test references for ``LinearMap``: a dense map with its exact norm bound,
and the power-iteration norm estimate the certified bounds are checked
against."""

import numpy as np

from pdlangevin.linop import LinearMap


def dense_map(A) -> LinearMap:
    """The LinearMap of a dense matrix, each row through ``np.matvec`` on its
    own (a BLAS ``x @ A.T`` may change bits with the number of rows). Its
    bound is the spectral norm, rounded up by a few ulps."""
    A = np.asarray(A, dtype=float)
    bound = float(np.linalg.norm(A, 2)) * (1.0 + 4.0 * np.finfo(float).eps)
    return LinearMap(apply=lambda x: np.matvec(A, x), adjoint=lambda y: np.matvec(A.T, y),
                     dim_in=A.shape[1], dim_out=A.shape[0], bound=bound)


def power_iteration_norm(K: LinearMap, iters: int = 200, seed: int = 0) -> float:
    """Estimate ``||K||`` by power iteration on ``K^T K`` from a seeded start.

    Deterministic given the seed; the estimate ``||K v||`` with ``||v|| = 1``
    is the square root of a Rayleigh quotient, so it never exceeds ``||K||``,
    and it is nondecreasing in the iteration count.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(K.dim_in)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = K.apply(v)
        est = float(np.linalg.norm(w))
        if est == 0.0:
            return 0.0
        v = K.adjoint(w)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return est
        v = v / nv
    return est
