"""Distances and statistics for empirical sample clouds.

Provides exact 2-Wasserstein distances between equally weighted empirical
measures (sorted coupling in 1D, optimal assignment in general), moments,
per-pixel variance maps (from a kept cloud, or streamed through
``RunningMoments``), a half-split stationarity statistic and flag, and
PSNR. scipy is imported by the one function that needs it, ``w2_exact``,
so importing this module (and the CLI) does not load it; nor does it load
``concurrent.futures``, which only ``w2_pool`` imports.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class EmpiricalMeasure:
    """A uniformly weighted cloud of points, stored as an (n, dim) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must form a nonempty (n, dim) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


# doubles of temporaries that the chunked cost build holds at a time
_CHUNK = 1 << 16


def _sq_dist_matrix(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, built in place a few rows at
    a time. They are the bits of the broadcast formula
    ``np.sum((P[:, None] - Q[None]) ** 2, axis=-1)`` without its (n, m, d)
    temporary: the cost is the only (n, m) array. The squares are summed
    in coordinate order into the cost's rows, through a reused chunk of at
    most ``_CHUNK`` doubles that holds one coordinate's squares.
    """
    d = P.shape[1]
    n, m = P.shape[0], Q.shape[0]
    cost = np.empty((n, m))
    rows = max(1, _CHUNK // m)
    scratch = np.empty((min(rows, n), m)) if d > 1 else None
    for start in range(0, n, rows):
        part = cost[start : start + rows]
        np.subtract.outer(P[start : start + rows, 0], Q[:, 0], out=part)
        part *= part
        for k in range(1, d):
            sq = scratch[: len(part)]
            np.subtract.outer(P[start : start + rows, k], Q[:, k], out=sq)
            sq *= sq
            part += sq
    return cost


def w2_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact 1D 2-Wasserstein distance: the L2 distance of the two step
    quantile functions over (0, 1].

    Equal counts match sorted samples. Unequal counts n and m merge the
    breakpoints i/n and j/m, held as the integers i*m and j*n over n*m,
    and sum each merged interval's width times the squared gap of the
    quantiles it spans, in O((n + m) log(n + m)).
    """
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("w2_1d requires 1-dimensional measures")
    a = np.sort(mu.points[:, 0])
    b = np.sort(nu.points[:, 0])
    n, m = a.size, b.size
    if n == m:
        return float(np.sqrt(np.mean((a - b) ** 2)))
    ends = np.union1d(np.arange(1, n + 1, dtype=np.int64) * m,
                      np.arange(1, m + 1, dtype=np.int64) * n)
    gaps = a[(ends - 1) // m] - b[(ends - 1) // n]
    widths = np.diff(ends, prepend=0).astype(float)
    return float(np.sqrt(np.sum(widths * gaps * gaps) / (n * m)))


def w2_exact(mu: EmpiricalMeasure, nu: EmpiricalMeasure, cap: int = 2000) -> float:
    """Exact 2-Wasserstein distance between equal-count empirical measures.

    Solves the optimal assignment problem under the squared Euclidean cost
    and returns the root mean matched cost.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.n != nu.n:
        raise ValueError(f"equal sample counts required, got {mu.n} and {nu.n}")
    if mu.n > cap:
        raise ValueError(
            f"{mu.n} points exceeds the assignment cap {cap}; "
            "subsample the clouds (or average over disjoint batches) first"
        )
    # scipy costs about 0.6 s and 45 MB to import, so only this call loads it
    from scipy.optimize import linear_sum_assignment

    cost = _sq_dist_matrix(mu.points, nu.points)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


@contextmanager
def w2_pool(n_solves: int):
    """A thread pool for up to ``n_solves`` ``w2_exact`` calls that overlap
    the caller's work and each other: ``pool.submit(w2_exact, mu, nu)``
    returns a future, and its ``result()`` gives the bits of the same call
    made inline, or re-raises its exception unchanged.

    scipy's assignment releases the GIL for the whole solve, so the solves
    run beside the caller. There are min(2, CPUs available, ``n_solves``)
    workers: two solves in flight hold two (n, n) costs, as much memory as
    one solve held when the cost build kept a second (n, n) temporary. On
    every way out of the block, pending solves are cancelled and the
    workers have exited.
    """
    # imported here: it costs the runs that solve no assignment 0.6 MB of RSS
    from concurrent.futures import ThreadPoolExecutor

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool = ThreadPoolExecutor(max_workers=max(1, min(2, cpus or 1, n_solves)))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def moments(mu: EmpiricalMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased sample covariance of the cloud."""
    if mu.n < 2:
        raise ValueError("need at least 2 points for a covariance estimate")
    mean = mu.points.mean(axis=0)
    cov = np.cov(mu.points, rowvar=False, ddof=1).reshape(mu.dim, mu.dim)
    return mean, cov


def pixelwise_variance(samples) -> np.ndarray:
    """Unbiased per-coordinate variance over a sample cloud.

    Accepts an (n, d) array or any object exposing ``x_samples`` with that
    shape (e.g. an ensemble sample store); returns a length-d vector.

    The result is ``pts.var(axis=0, ddof=1)`` bit for bit, without its
    (n, d) temporary of deviations: numpy sums the squared deviations of a
    cloud with contiguous rows and d > 1 row after row, in sample order, so
    they are formed a few rows at a time and added to a running total that
    leads each chunk. Any other layout goes to numpy, which may sum it down
    the sample axis pairwise.
    """
    pts = getattr(samples, "x_samples", samples)
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need an (n >= 2, d) sample array")
    n, d = pts.shape
    if d == 1 or not pts[0].flags.c_contiguous:
        return pts.var(axis=0, ddof=1)
    mean = pts.sum(axis=0)
    mean /= n
    rows = max(1, _CHUNK // d)
    chunk = np.empty((min(rows, n) + 1, d))
    chunk[0] = 0.0
    for start in range(0, n, rows):
        part = pts[start : start + rows]
        sq = chunk[1 : len(part) + 1]
        np.subtract(part, mean, out=sq)
        np.square(sq, out=sq)
        chunk[0] = chunk[: len(part) + 1].sum(axis=0)
    total = chunk[0]
    total /= n - 1
    return total


class RunningMoments:
    """Per-coordinate mean and unbiased variance of a sample cloud fed in
    blocks of rows, in memory that does not grow with the sample count.

    ``add(rows)`` takes one (n_rows, dim) block, in sample order. As a
    reducer of ``samplers.Run.drive``, a call ``(i, state)`` adds the block
    ``select(state)``: by default the primal rows ``state.x``. The mean
    is a running sum that starts from zeros and adds one row at a time.
    numpy's ``cloud.mean(axis=0)`` sums a cloud with contiguous rows and
    dim > 1 in that order, from its identity 0.0, so :meth:`mean` has its
    bits, signs of zero included (a column of -0.0 sums to +0.0). The
    variance merges each block's mean and sum of squared deviations (M2)
    into the running ones as in Chan, Golub & LeVeque (1979). A block's
    deviations are taken from its first row, so a coordinate that never
    changes has a variance of exactly 0.0. The variance agrees with the
    two-pass ``cloud.var(axis=0, ddof=1)`` to rounding, not bit for bit.
    """

    def __init__(self, select=lambda state: state.x):
        self.select = select
        self.n = 0
        self._sum = self._mean = self._m2 = None

    def __call__(self, i: int, state) -> None:
        self.add(self.select(state))

    def add(self, rows) -> None:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or (self.n and rows.shape[1] != self._sum.size):
            raise ValueError(f"expected (n_rows, dim) blocks of one dim, got {rows.shape}")
        k = rows.shape[0]
        if k == 0:
            return
        if self.n == 0:
            self._sum, self._mean, self._m2 = (np.zeros(rows.shape[1]) for _ in range(3))
        for row in rows:
            self._sum += row
        # the block's mean and M2, from deviations to its first row
        dev = rows - rows[0]
        mean = dev.sum(axis=0)
        mean /= k
        dev -= mean
        dev *= dev
        mean += rows[0]
        delta = mean - self._mean
        total = self.n + k
        self._m2 += dev.sum(axis=0)
        self._m2 += delta * delta * (self.n * k / total)
        self._mean += delta * (k / total)
        self.n = total

    def mean(self) -> np.ndarray:
        if self.n == 0:
            raise ValueError("no samples added")
        return self._sum / self.n

    def variance(self) -> np.ndarray:
        """Unbiased (ddof = 1) per-coordinate variance."""
        if self.n < 2:
            raise ValueError(f"need at least 2 samples for a variance, got {self.n}")
        return self._m2 / (self.n - 1)


def stationary_statistic(primal: np.ndarray) -> float:
    """The half-split drift of the first primal coordinate of kept samples
    ``primal`` (shape (n_kept, n_chains, dim)): the 1D W2 between the pooled
    clouds of the first and second halves of the kept steps, relative to the
    spread of all of them; inf with fewer than two kept steps."""
    series = primal[..., 0].reshape(primal.shape[0], -1)
    half = series.shape[0] // 2
    if half < 1:
        return math.inf
    first = EmpiricalMeasure(series[:half].ravel())
    second = EmpiricalMeasure(series[half:].ravel())
    scale = float(np.std(series)) or 1.0
    return w2_1d(first, second) / scale


# the statistic below which stationary_flag calls kept samples stationary
STATIONARY_THRESHOLD = 1e-2


def stationary_flag(primal: np.ndarray, threshold: float = STATIONARY_THRESHOLD) -> bool:
    """Whether kept samples ``primal`` look stationary: their
    :func:`stationary_statistic` is below ``threshold``."""
    return stationary_statistic(primal) < threshold


def psnr(reference: np.ndarray, estimate: np.ndarray, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical inputs."""
    reference = np.asarray(reference, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if reference.shape != estimate.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {estimate.shape}")
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((reference - estimate) ** 2))
    if mse == 0.0:
        return math.inf
    return -10.0 * math.log10(mse / peak**2)
