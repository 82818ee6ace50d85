"""Experiment runner: config parsing, image IO, and artifact emission.

Scenarios reproduce the benchmark experiments at desk scale: the 1D
Gaussian model, the 2-pixel total-variation posterior with distance-vs-time
curves, TV / TGV image denoising with mean and variance maps, and
step-size / step-ratio sweeps. Outputs are CSV files, 16-bit PGM images,
and a JSON manifest that makes every run reproducible.

Config files are flat ``key = value`` text (UTF-8, ``#`` comments); every
key can be overridden on the command line as trailing ``key=value``
arguments. Exit codes: 0 success, 2 config error, 3 step-size regime
violation, diverged chain or overflowed moments, 4 IO error (missing or
malformed file). ``run``, ``sweep`` and ``validate`` share one problem
builder, so they reject the same configs with the same code, and ``run``
writes nothing on exit 2 or 4 or on an exit 3 found before sampling. The
sweep runs the configured sampler, at a configured tau if one is set.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path
from typing import Optional

import numpy as np

from .analytic import GaussModel1D, stationary_cov_pd, target_variance
from .coupling import sweep
from .linop import LinearMap
from .metrics import (STATIONARY_THRESHOLD, EmpiricalMeasure, RunningMoments, moments, psnr,
                      stationary_statistic, w2_exact, w2_pool)
from .models import gauss1d_target, tgv_image_target, tv2pixel_target, tv_image_target
from .samplers import (
    KeepSamples,
    SamplerParams,
    TargetSpec,
    ValidationReport,
    kept_steps,
    make_step,
    prepare_run,
    run_ensemble,
    validate_params,
)


class ConfigError(Exception):
    """Malformed or inconsistent configuration."""


# --- image grid and PGM IO ---

@dataclass
class ImageGrid:
    """A grayscale image with intensities in [0, 1], stored row-major."""

    width: int
    height: int
    intensities: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.intensities, dtype=float).reshape(self.width * self.height)
        if not np.all(np.isfinite(a)):
            raise ValueError("intensities must be finite")
        self.intensities = a


def load_image_pgm(path) -> ImageGrid:
    """Read a PGM image file; see :func:`parse_pgm`."""
    return parse_pgm(Path(path).read_bytes())


def parse_pgm(raw: bytes) -> ImageGrid:
    """Parse the bytes of a PGM image (P2 ASCII or P5 binary, maxval <=
    65535) and scale intensities to [0, 1] by exact division by maxval."""
    magic = raw[:2]
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"not a PGM file: magic bytes {magic!r}")

    # tokenize the header, honoring '#' comments
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3 and pos < len(raw):
        ch = raw[pos : pos + 1]
        if ch == b"#":
            nl = raw.find(b"\n", pos)
            pos = len(raw) if nl < 0 else nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end : end + 1].isspace():
                end += 1
            tokens.append(raw[pos:end])
            pos = end
    if len(tokens) < 3:
        raise ValueError("truncated PGM header")
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as e:
        raise ValueError(f"malformed PGM header fields {tokens}") from e
    if width < 1 or height < 1 or not (0 < maxval <= 65535):
        raise ValueError(f"invalid PGM dimensions/maxval {width}x{height}/{maxval}")

    n = width * height
    if magic == b"P2":
        try:
            values = np.array(raw[pos:].split(), dtype=np.int64)
        except ValueError as e:
            raise ValueError("malformed ASCII PGM pixel data") from e
    else:
        pos += 1  # single whitespace after maxval
        data = raw[pos:]
        if maxval > 255:
            if len(data) < 2 * n:
                raise ValueError(f"truncated P5 data: {len(data)} bytes for {n} 16-bit pixels")
            values = np.frombuffer(data[: 2 * n], dtype=">u2").astype(np.int64)
        else:
            if len(data) < n:
                raise ValueError(f"truncated P5 data: {len(data)} bytes for {n} pixels")
            values = np.frombuffer(data[:n], dtype=np.uint8).astype(np.int64)
    if values.size != n:
        raise ValueError(f"PGM pixel count {values.size} != {n}")
    if values.min() < 0 or values.max() > maxval:
        raise ValueError("PGM pixel values out of range")
    return ImageGrid(width=width, height=height, intensities=values / maxval)


def save_image_pgm(path, img: ImageGrid, maxval: int = 65535) -> None:
    """Write a binary (P5) PGM; intensities are clipped to [0, 1] and
    quantized to ``maxval`` levels (16-bit big-endian above 255)."""
    if not (0 < maxval <= 65535):
        raise ValueError("maxval must be in (0, 65535]")
    q = np.clip(np.round(np.clip(img.intensities, 0.0, 1.0) * maxval), 0, maxval)
    header = f"P5\n{img.width} {img.height}\n{maxval}\n".encode("ascii")
    body = q.astype(">u2" if maxval > 255 else np.uint8).tobytes()
    Path(path).write_bytes(header + body)


def add_gaussian_noise(img: ImageGrid, sigma_eps: float, seed: int = 0) -> ImageGrid:
    """Add iid centered Gaussian noise per pixel (no clipping)."""
    if sigma_eps < 0:
        raise ValueError("sigma_eps must be nonnegative")
    rng = np.random.default_rng(seed)
    noisy = img.intensities + sigma_eps * rng.standard_normal(img.intensities.shape)
    return ImageGrid(width=img.width, height=img.height, intensities=noisy)


def synthetic_phantom(width: int, height: int) -> ImageGrid:
    """Piecewise-constant test image: flat background, a bright rectangle,
    and a mid-gray disk."""
    yy, xx = np.mgrid[0:height, 0:width]
    img = np.full((height, width), 0.2)
    img[height // 6 : height // 2, width // 6 : width // 2] = 0.9
    cx, cy, r = 0.68 * width, 0.65 * height, 0.2 * min(width, height)
    img[(xx - cx) ** 2 + (yy - cy) ** 2 <= r**2] = 0.6
    return ImageGrid(width=width, height=height, intensities=img.ravel())


# --- configuration ---

@dataclass
class ScenarioConfig:
    """All knobs of one experiment run."""

    scenario: str = "gauss1d"
    sampler: str = "ulpda_outer"
    tau: float = 0.0          # 0 means "derive from the scenario rule"
    lam: float = 1.0
    theta: float = 1.0
    alpha: float = 10.0
    alpha1: float = 10.0
    alpha0: float = 20.0
    sigma_eps: float = 0.25
    n_chains: int = 100
    n_steps: int = 1000
    burn_in: int = 0
    thinning: int = 1
    seed: int = 0
    input_image: str = ""
    output_dir: str = "out"
    # gauss1d model and step-size rule
    c_f: float = 1.0
    c_g: float = 2.0
    k: float = 1.5
    c: float = 1e-4
    # image scenarios
    width: int = 32
    height: int = 32
    # tv2pixel
    x_obs1: float = 0.0
    x_obs2: float = 1.0
    n_checkpoints: int = 20
    ref_tau_factor: float = 16.0
    ref_samples: int = 2000
    # sweep scenario
    sweep_kind: str = "lambda"
    sweep_values: str = "1,10,100"

    _SCENARIOS = ("gauss1d", "tv2pixel", "tv_image", "tgv_image", "sweep")
    _SAMPLERS = ("ulpda_outer", "ulpda_inner", "ulpda_general", "ula", "prox_sub", "modified_sde")

    def validate(self) -> None:
        if self.scenario not in self._SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {self._SCENARIOS}")
        if self.sampler not in self._SAMPLERS:
            raise ConfigError(f"unknown sampler {self.sampler!r}; choose from {self._SAMPLERS}")
        for name in ("lam", "sigma_eps", "alpha", "alpha1", "alpha0", "c_f", "c_g",
                     "ref_tau_factor"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.tau >= 0:
            raise ConfigError(f"tau must be >= 0 (0 derives it), got {self.tau}")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if self.k == 0:
            raise ConfigError("k must be nonzero")
        for f in dc_fields(self):
            if f.type in ("float", float) and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("n_chains", "n_steps", "thinning", "width", "height", "n_checkpoints",
                     "ref_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("burn_in", "seed"):  # SeedSequence rejects a negative seed
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        kept = len(kept_steps(self.n_steps, self.burn_in, self.thinning))
        if self.n_chains * kept < 2:
            raise ConfigError(
                f"n_chains * kept steps must be >= 2 for a variance, got "
                f"{self.n_chains} * {kept}: add chains or lower burn_in"
            )


_CONFIG_TYPES = {f.name: f.type for f in dc_fields(ScenarioConfig)}


def parse_config(path=None, overrides=()) -> ScenarioConfig:
    """Build a config from a flat key=value file plus override pairs."""
    values: dict[str, str] = {}

    def take(line: str, where: str) -> None:
        line = line.split("#", 1)[0].strip()
        if not line:
            return
        if "=" not in line:
            raise ConfigError(f"expected key=value in {where}: {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"unknown config key {key!r} in {where}")
        values[key] = val

    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
        for line in text.splitlines():
            take(line, str(path))
    for ov in overrides:
        take(ov, "command line")

    cfg = ScenarioConfig()
    for key, val in values.items():
        kind = _CONFIG_TYPES[key]
        try:
            if kind in ("float", float):
                setattr(cfg, key, float(val))
            elif kind in ("int", int):
                setattr(cfg, key, int(val))
            else:
                setattr(cfg, key, val)
        except ValueError as e:
            raise ConfigError(f"bad value for {key}: {val!r}") from e
    cfg.validate()
    return cfg


def gauss1d_stepsizes(lam: float, k: float, c: float) -> tuple[float, float]:
    """Step sizes solving sigma/tau = lam and sigma*tau*k^2 = c exactly;
    c <= 1 is required for stability of the discrete iteration."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if k == 0:
        raise ValueError("k must be nonzero")
    if not (0 < c <= 1):
        raise ValueError(f"c must lie in (0, 1], got {c}")
    tau = math.sqrt(c / lam) / abs(k)
    return tau, lam * tau


# --- scenario execution ---

@dataclass
class _Problem:
    """One scenario's target with its resolved sampler and checked step
    sizes. ``params`` and ``report`` are those of the run; for the sweep
    they are lists, one entry per value of ``grid``, in grid order."""

    target: TargetSpec
    kind: str
    params: SamplerParams | list[SamplerParams]
    report: ValidationReport | list[ValidationReport]
    notes: list[str]  # changes made to the configured values
    grid: list[float] = field(default_factory=list)  # sweep
    reference: Optional[SamplerParams] = None  # tv2pixel: the fine-step reference ensemble
    model: Optional[GaussModel1D] = None  # gauss1d, sweep
    clean: Optional[ImageGrid] = None  # image scenarios
    noisy: Optional[ImageGrid] = None
    input_bytes: bytes = b""

    def manifest_fields(self) -> dict:
        """The step sizes and regime flags of a single run; a sweep's
        several points have no one set of flags, so they are null."""
        flags = ("stability_regime", "contraction_regime", "bias_regime")
        if self.grid:
            return dict.fromkeys(("L", *flags))
        return {"tau": self.params.tau, "sigma": self.params.sigma, "L": self.report.L,
                **{flag: bool(getattr(self.report, flag)) for flag in flags}}


def _sweep_values(cfg: ScenarioConfig) -> list[float]:
    """The sweep grid, in the order the sweep needs: step ratios strictly
    increasing, step sizes strictly decreasing."""
    try:
        values = [float(s) for s in cfg.sweep_values.split(",") if s.strip()]
    except ValueError as e:
        raise ConfigError(f"bad sweep_values {cfg.sweep_values!r}") from e
    if not values:
        raise ConfigError("sweep_values is empty")
    if not all(0 < v < math.inf for v in values):
        raise ConfigError(f"sweep_values must be finite and positive, got {cfg.sweep_values!r}")
    pairs = list(zip(values, values[1:]))
    if cfg.sweep_kind == "lambda":
        if any(b <= a for a, b in pairs):
            raise ConfigError("lambda sweep_values must be strictly increasing")
    elif cfg.sweep_kind == "tau":
        if any(b >= a for a, b in pairs):
            raise ConfigError("tau sweep_values must be strictly decreasing")
    else:
        raise ConfigError(f"unknown sweep_kind {cfg.sweep_kind!r}")
    return values


def _build_problem(cfg: ScenarioConfig) -> _Problem:
    """Build and check the target and every ``SamplerParams`` a scenario
    runs, the sweep's points and tv2pixel's reference ensemble included.
    ``run``, ``sweep`` and ``validate`` all start here, so they agree, and
    ``run`` makes its output directory only after this returns."""
    extra, notes, grid = {}, [], []
    if cfg.scenario in ("gauss1d", "sweep"):
        extra["model"] = model = GaussModel1D(cfg.c_f, cfg.c_g, cfg.k, lam=cfg.lam)
        target = gauss1d_target(model)
        grid = _sweep_values(cfg) if cfg.scenario == "sweep" else []
        if grid and cfg.sweep_kind == "tau":  # each step size at the configured ratio
            steps = [(tau, cfg.lam) for tau in grid]
        else:  # at each step ratio, the configured tau or else the gauss1d step rule
            steps = [(cfg.tau if cfg.tau > 0 else gauss1d_stepsizes(lam, cfg.k, cfg.c)[0], lam)
                     for lam in grid or [cfg.lam]]
    elif cfg.scenario == "tv2pixel":
        target = tv2pixel_target(np.array([cfg.x_obs1, cfg.x_obs2]), cfg.sigma_eps, cfg.alpha)
        steps = [(cfg.tau if cfg.tau > 0 else 1e-2, cfg.lam)]
    else:  # tv_image, tgv_image
        if cfg.input_image:
            # one read: the manifest hashes the bytes that were parsed
            raw = Path(cfg.input_image).read_bytes()
            try:
                clean = parse_pgm(raw)
            except ValueError as e:  # a malformed input file, like a missing one
                raise OSError(f"cannot read {cfg.input_image}: {e}") from e
            extra["input_bytes"] = raw
        else:
            clean = synthetic_phantom(cfg.width, cfg.height)
        noisy = add_gaussian_noise(clean, cfg.sigma_eps, seed=cfg.seed + 10_000)
        extra.update(clean=clean, noisy=noisy)
        if cfg.scenario == "tv_image":
            target = tv_image_target(
                noisy.intensities, cfg.sigma_eps, cfg.alpha, noisy.width, noisy.height
            )
        else:
            target = tgv_image_target(
                noisy.intensities, cfg.sigma_eps, cfg.alpha1, cfg.alpha0, noisy.width, noisy.height
            )
        tau = cfg.tau if cfg.tau > 0 else 0.02
        L = target.K.norm()
        # keep theta * tau * sigma * L^2 <= 1
        if cfg.theta * tau * cfg.lam * tau * L * L > 1.0:
            clamped = math.sqrt(1.0 / (cfg.theta * cfg.lam)) / L
            notes.append(
                f"tau lowered from {tau:.6g} to {clamped:.6g} so that theta*tau*sigma*L^2 <= 1"
            )
            tau = clamped
        steps = [(tau, cfg.lam)]
    ulpda = cfg.sampler.startswith("ulpda_")
    kind = "ulpda" if ulpda else cfg.sampler
    variant = cfg.sampler.removeprefix("ulpda_") if ulpda else "outer"
    blocks = {}
    if variant == "general":  # (sqrt(2) I, 0) and 0: the outer variant on a joint draw
        d, m = target.dim_primal, target.dim_dual
        r2, zeros = math.sqrt(2.0), lambda a, k: np.zeros(a.shape[:-1] + (k,))
        blocks = dict(
            B_X=LinearMap(lambda xi: r2 * xi[..., :d],
                          lambda v: np.concatenate([r2 * v, zeros(v, m)], axis=-1), d + m, d,
                          bound=r2),
            B_Y=LinearMap(lambda xi: zeros(xi, m), lambda v: zeros(v, d + m), d + m, m, 0.0),
        )
    misfit = f"sampler {cfg.sampler!r} does not fit scenario {cfg.scenario!r}"
    try:  # fails on a malformed noise block
        points = [SamplerParams(tau=tau, lam=lam, theta=cfg.theta, noise_variant=variant,
                                seed=cfg.seed, **blocks) for tau, lam in steps]
    except ValueError as e:
        raise ConfigError(f"{misfit}: {e}") from e
    reports = [validate_params(target, p) for p in points]
    params, report = (points, reports) if grid else (points[0], reports[0])
    try:
        make_step(kind, target, params)  # fails when the target lacks an oracle
    except ValueError as e:
        raise ConfigError(f"{misfit}: {e}") from e
    if cfg.scenario == "tv2pixel":  # lam = infinity proxy at a much finer step
        extra["reference"] = SamplerParams(tau=params.tau / cfg.ref_tau_factor, lam=cfg.lam,
                                           seed=cfg.seed + 1)
        validate_params(target, extra["reference"])
    return _Problem(target, kind, params, report, notes, grid, **extra)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)


def _content_hash(cfg: ScenarioConfig, extra_bytes: bytes = b"") -> str:
    payload = json.dumps(
        {f.name: getattr(cfg, f.name) for f in dc_fields(cfg)}, sort_keys=True
    ).encode("utf-8")
    return hashlib.sha256(payload + extra_bytes).hexdigest()


def _write_manifest(outdir: Path, cfg: ScenarioConfig, extra: dict, input_bytes: bytes = b"") -> Path:
    """Write ``manifest.json``: the config, the content hash and the run's
    ``extra`` fields, as strict JSON (a non-finite float, such as the slope
    of a one-point sweep, is written as null)."""
    manifest = {f.name: getattr(cfg, f.name) for f in dc_fields(cfg)}
    manifest["content_hash"] = _content_hash(cfg, input_bytes)
    manifest.update(extra)
    manifest = {
        k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in manifest.items()
    }
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False),
                    encoding="utf-8")
    return path


def _finite_moments(block: str, *moments: np.ndarray) -> None:
    """Raise ``ValueError`` (exit 3) if a block's moments overflowed, though
    its chains stayed finite."""
    if not all(np.isfinite(m).all() for m in moments):
        raise ValueError(f"the moments of block {block!r} are not finite")


def _write_moments(outdir: Path, **blocks: np.ndarray) -> dict:
    """Write ``summary.csv``: the mean and variance of every coordinate of
    each named (n, dim) sample block, in order; return each block's
    variances."""
    rows, variances = [], {}
    for name, samples in blocks.items():
        mean, cov = moments(EmpiricalMeasure(samples))
        _finite_moments(name, mean, cov.diagonal())
        rows += [[name, i, mean[i], cov[i, i]] for i in range(mean.size)]
        variances[name] = cov.diagonal()
    _write_csv(outdir / "summary.csv", ["block", "coordinate", "mean", "variance"], rows)
    return variances


def _run_gauss1d(cfg: ScenarioConfig, prob: _Problem, outdir: Path) -> dict:
    store = run_ensemble(
        prob.target, prob.params, n_chains=cfg.n_chains, n_steps=cfg.n_steps,
        burn_in=cfg.burn_in, thinning=cfg.thinning, kind=prob.kind,
    )
    variances = _write_moments(outdir, x=store.x_samples, y=store.y_samples)
    counts, edges = np.histogram(store.x_samples[:, 0], bins=50)
    _write_csv(
        outdir / "histogram.csv",
        ["bin_left", "bin_right", "count"],
        [[edges[i], edges[i + 1], int(counts[i])] for i in range(counts.size)],
    )
    return {
        "target_variance": target_variance(prob.model),
        "stationary_variance": stationary_cov_pd(prob.model)[0, 0],
        "empirical_variance": float(variances["x"][0]),
    }


def _run_tv2pixel(cfg: ScenarioConfig, prob: _Problem, outdir: Path) -> dict:
    """Two-pixel TV run: the sampler's exact W2 to a fine-step reference
    cloud at each checkpoint, then the moments of the kept samples.

    Each checkpoint copies its first n = min(n_chains, ref_samples) chains
    (a view would keep the whole ensemble state alive until its solve)
    and hands the assignment to ``metrics.w2_pool``, so the solves run on
    worker threads while the chains keep stepping; the curve is read in
    checkpoint order once the run is done.
    """
    target, params = prob.target, prob.params
    ref_store = run_ensemble(
        target, prob.reference, n_chains=cfg.ref_samples,
        n_steps=cfg.n_steps, burn_in=max(cfg.n_steps - 1, 0), kind="prox_sub",
    )
    reference = EmpiricalMeasure(ref_store.final_x)

    # a checkpoint counts steps taken, so step 0 is none
    checkpoints = np.unique(
        np.linspace(cfg.n_steps / cfg.n_checkpoints, cfg.n_steps, cfg.n_checkpoints).astype(int)
    )
    checkpoints = checkpoints[checkpoints > 0].tolist()
    n = min(cfg.n_chains, reference.n)
    nu = EmpiricalMeasure(reference.points[:n])
    run = prepare_run(target, params, cfg.n_chains, cfg.n_steps, cfg.burn_in, cfg.thinning,
                      prob.kind)
    samples = KeepSamples(run, dual=False)
    solves = []

    with w2_pool(len(checkpoints)) as pool:

        def solve(i, s):
            mu = EmpiricalMeasure(s.x[:n].copy())
            solves.append((checkpoints[i], pool.submit(w2_exact, mu, nu, cap=max(2000, n))))

        run.drive(samples, (checkpoints, solve))
        curve = [(step, future.result()) for step, future in solves]
    _write_csv(outdir / "w2_vs_time.csv", ["step", "w2"], curve)
    _write_moments(outdir, x=samples.xs.reshape(-1, samples.xs.shape[-1]))
    drift = stationary_statistic(samples.xs)
    return {"final_w2": curve[-1][1] if curve else None,
            "stationary": bool(drift < STATIONARY_THRESHOLD), "stationary_statistic": drift}


def _run_image(cfg: ScenarioConfig, prob: _Problem, outdir: Path) -> dict:
    """TV or TGV denoising run: the posterior mean (MMSE) image, the primal
    variance map over the image pixels and the mean dual variance.

    No sample is kept. The run's reducers are two
    :class:`~pdlangevin.metrics.RunningMoments`, which take the image pixels
    of every chain and the dual state on each kept step (see
    ``samplers.kept_steps``), so memory does not grow with the number of
    kept steps. The mean has the bits of the kept cloud's ``mean(axis=0)``;
    the variances agree with the two-pass ``var(axis=0, ddof=1)`` of that
    cloud to rounding.
    """
    target, clean, noisy = prob.target, prob.clean, prob.noisy
    width, height = noisy.width, noisy.height
    d = width * height
    x0 = np.zeros(target.dim_primal)  # TGV: the image pixels, then w = 0
    x0[:d] = noisy.intensities
    run = prepare_run(
        target, prob.params, cfg.n_chains, cfg.n_steps, cfg.burn_in, cfg.thinning, prob.kind,
        (np.tile(x0, (cfg.n_chains, 1)), np.zeros((cfg.n_chains, target.dim_dual))),
    )
    primal, dual = RunningMoments(lambda s: s.x[:, :d]), RunningMoments(lambda s: s.y)
    run.drive(primal, dual)
    mmse, var, dual_var = primal.mean(), primal.variance(), dual.variance()
    _finite_moments("x", mmse, var)
    _finite_moments("y", dual.mean(), dual_var)

    save_image_pgm(outdir / "mmse.pgm", ImageGrid(width, height, mmse))
    log_var = np.log10(np.maximum(var, 1e-12))
    lo, hi = log_var.min(), log_var.max()
    norm = (log_var - lo) / (hi - lo) if hi > lo else np.zeros_like(log_var)
    save_image_pgm(outdir / "variance_log10.pgm", ImageGrid(width, height, norm))
    save_image_pgm(outdir / "noisy.pgm", ImageGrid(width, height, np.clip(noisy.intensities, 0, 1)))

    psnr_noisy = psnr(clean.intensities, noisy.intensities)
    psnr_mmse = psnr(clean.intensities, mmse)
    _write_csv(
        outdir / "summary.csv",
        ["metric", "value"],
        [
            ["psnr_noisy_db", psnr_noisy],
            ["psnr_mmse_db", psnr_mmse],
            ["mean_pixel_variance", float(var.mean())],
            ["mean_dual_variance", float(dual_var.mean())],
            ["log10_var_min", float(lo)],
            ["log10_var_max", float(hi)],
        ],
    )
    return {
        "psnr_noisy_db": psnr_noisy,
        "psnr_mmse_db": psnr_mmse,
        "mean_pixel_variance": float(var.mean()),
        "mean_dual_variance": float(dual_var.mean()),
    }


def _run_sweep(cfg: ScenarioConfig, prob: _Problem, outdir: Path) -> dict:
    """The stationary W2 gap at each grid point to the law the sampler tends
    to: the continuous-time primal-dual one for an ``ulpda`` step size sweep,
    else the target; one batched run of the builder's points."""
    model, pd_limit = prob.model, cfg.sweep_kind == "tau" and prob.kind == "ulpda"
    reference = (0.0, stationary_cov_pd(model)[0, 0] if pd_limit else target_variance(model))
    result = sweep(prob.target, prob.grid, dict(zip(prob.grid, prob.params)).__getitem__,
                   reference, n_chains=cfg.n_chains, n_steps=cfg.n_steps, burn_in=cfg.burn_in,
                   thinning=cfg.thinning, kind=prob.kind)
    slope = result.loglog_slope()
    _write_csv(outdir / "sweep.csv", [cfg.sweep_kind, "w2", "stationary", "loglog_slope"],
               [[v, w, bool(s), slope]
                for v, w, s in zip(result.values, result.w2, result.stationary)])
    return {"loglog_slope": slope}


_RUNNERS = {
    "gauss1d": _run_gauss1d,
    "tv2pixel": _run_tv2pixel,
    "tv_image": _run_image,
    "tgv_image": _run_image,
    "sweep": _run_sweep,
}


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Execute one configured experiment and write its artifacts. The
    problem is built and checked before the output directory is made, so
    a config error or a step-size violation leaves no directory. Each
    runner writes its own files and returns its own manifest fields; the
    manifest, with the build's step sizes and regime flags, is written
    here. Returns the fields the run added to the config in the manifest."""
    cfg.validate()
    prob = _build_problem(cfg)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    extra = {"tau_requested": cfg.tau, "notes": prob.notes, **prob.manifest_fields()}
    extra.update(_RUNNERS[cfg.scenario](cfg, prob, outdir))
    _write_manifest(outdir, cfg, extra, prob.input_bytes)
    return extra


# --- command-line entry point ---

def _config_and_overrides(args) -> tuple:
    """Allow omitting the config file: a first positional containing '='
    is an override, not a path."""
    config, overrides = args.config, list(args.overrides)
    if config is not None and "=" in str(config):
        overrides.insert(0, config)
        config = None
    return config, overrides


def _cmd_run(args) -> int:
    """``run``, or ``sweep``: a run of the sweep scenario."""
    cfg = parse_config(*_config_and_overrides(args))
    if args.command == "sweep":
        cfg.scenario = "sweep"
    run_scenario(cfg)
    return 0


def _cmd_validate(args) -> int:
    cfg = parse_config(*_config_and_overrides(args))
    prob = _build_problem(cfg)
    if prob.grid:  # one line per sweep point
        for value, params, report in zip(prob.grid, prob.params, prob.report):
            print(f"{cfg.sweep_kind} = {value:.6g}: tau = {params.tau:.6g}, "
                  f"sigma = {params.sigma:.6g}, tau sigma L^2 = {report.tau_sigma_L2:.6g}")
        return 0
    report = prob.report
    print(f"tau = {prob.params.tau:.6g}")
    print(f"L = {report.L:.6g}")
    print(f"tau sigma L^2 = {report.tau_sigma_L2:.6g}")
    print(f"stability_regime = {report.stability_regime}")
    print(f"contraction_regime = {report.contraction_regime} (theta >= {report.theta_min_contraction:.6g})")
    print(f"bias_regime = {report.bias_regime} (theta >= {report.theta_min_bias:.6g})")
    for note in prob.notes + report.notes:
        print(f"note: {note}")
    return 0


def _cmd_oracle(args) -> int:
    if args.model != "gauss1d":
        raise ConfigError(f"unknown oracle model {args.model!r}")
    m = GaussModel1D(args.cf, args.cg, args.k, lam=getattr(args, "lambda"))
    cov = stationary_cov_pd(m)
    print(f"target_variance = {target_variance(m):.12g}")
    print(f"stationary_cov = [[{cov[0,0]:.12g}, {cov[0,1]:.12g}], [{cov[1,0]:.12g}, {cov[1,1]:.12g}]]")
    print(f"primal_bias_variance = {cov[0,0] - target_variance(m):.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdlangevin",
        description="Primal-dual Langevin sampling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("run", _cmd_run), ("sweep", _cmd_run), ("validate", _cmd_validate)):
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", default=None, help="flat key=value config file")
        p.add_argument("overrides", nargs="*", default=[], help="key=value overrides")
        p.set_defaults(func=fn)

    p = sub.add_parser("oracle")
    p.add_argument("model", help="oracle model name (gauss1d)")
    p.add_argument("--cf", type=float, required=True)
    p.add_argument("--cg", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--lambda", type=float, required=True)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        # parameter / regime problems surfaced by validation
        print(f"regime violation: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
