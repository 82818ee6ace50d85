"""The four benchmark workloads and the checks on their CLI artifacts.

Each workload is one documented CLI invocation (``run`` or ``sweep`` with
``key=value`` overrides); the benchmark appends ``seed=`` and
``output_dir=``. The checks read only the documented artifacts
(``manifest.json``, ``summary.csv``, ``sweep.csv``) and the ``oracle``
subcommand's output, so they hold across refactors of the library API.
Why each workload was chosen is in bench/README.md.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand: "run" or "sweep"
    overrides: tuple[str, ...]
    # check(outdir, oracle) -> (passed, detail); oracle(c_f, c_g, k, lam)
    # returns the closed-form values printed by the ``oracle`` subcommand
    check: Callable[[Path, Callable[..., dict]], tuple[bool, str]]

    def cli_args(self, seed: int, output_dir: Path) -> list[str]:
        return [self.command, *self.overrides, f"seed={seed}", f"output_dir={output_dir}"]

    def validate_args(self) -> list[str]:
        return ["validate", *self.overrides]


def _manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# --- output checks; each returns (passed, one-line detail) ---

PSNR_GAIN_DB = 5.0


def check_image(outdir: Path, oracle) -> tuple[bool, str]:
    """Posterior mean beats the noisy input by PSNR_GAIN_DB (the image
    acceptance test's criterion)."""
    summary = {r["metric"]: float(r["value"]) for r in _rows(outdir / "summary.csv")}
    gain = summary["psnr_mmse_db"] - summary["psnr_noisy_db"]
    return gain >= PSNR_GAIN_DB, f"psnr gain {gain:.2f} dB (need >= {PSNR_GAIN_DB})"


# Two independent n-point samples of a 2D law with total variance s^2 sit
# at an exact-W2 distance of order s * sqrt(ln n / n) (Ajtai-Komlos-Tusnady);
# the factor absorbs the constant, the lam=100 stationary bias and the
# finite-step reference cloud. A sampler that loses its noise or drifts off
# the posterior lands at W2 of order s, well above the bound.
TV2PIXEL_W2_FACTOR = 6.0


def check_tv2pixel(outdir: Path, oracle) -> tuple[bool, str]:
    """Final W2 to the reference cloud is finite and under the Monte Carlo
    bound, and the run reports itself stationary."""
    man = _manifest(outdir)
    rows = _rows(outdir / "summary.csv")
    total_var = sum(float(r["variance"]) for r in rows if r["block"] == "x")
    n = min(int(man["n_chains"]), int(man["ref_samples"]))
    bound = TV2PIXEL_W2_FACTOR * math.sqrt(total_var) * math.sqrt(math.log(n) / n)
    w2 = man.get("final_w2")
    ok = w2 is not None and math.isfinite(w2) and w2 <= bound and man.get("stationary") is True
    return ok, f"final_w2 {w2} (bound {bound:.4f}), stationary {man.get('stationary')}"


# Standard errors allowed between the lam=1 sweep point and the closed form.
GAUSS_SE_FACTOR = 4.0


def _slowest_rate(c_f: float, c_g: float, k: float, lam: float) -> float:
    """Smallest real part of the eigenvalues of the primal-dual drift
    matrix [[1/c_g, k], [-lam k, lam c_f]]."""
    tr = 1.0 / c_g + lam * c_f
    det = lam * c_f / c_g + lam * k * k
    disc = tr * tr - 4.0 * det
    return tr / 2.0 if disc < 0 else (tr - math.sqrt(disc)) / 2.0


def check_gauss1d_sweep(outdir: Path, oracle) -> tuple[bool, str]:
    """The W2 gap falls with the step ratio (negative log-log slope), and
    the lam=1 point matches the closed-form gap of the continuous-time
    stationary law within Monte Carlo error plus an O(tau) step bias.

    The gap is |sqrt(v) - sqrt(v_target)|, so its error is that of the
    empirical standard deviation: sqrt(v) * sqrt(2 / N_eff) / 2, with N_eff
    the pooled kept samples divided by the integrated autocorrelation time
    of x^2, at most 1 / (a tau) steps for slowest drift rate a.
    """
    man = _manifest(outdir)
    rows = _rows(outdir / "sweep.csv")
    slope = float(rows[0]["loglog_slope"])
    point = next(r for r in rows if float(r["lambda"]) == 1.0)
    w2 = float(point["w2"])

    c_f, c_g, k = float(man["c_f"]), float(man["c_g"]), float(man["k"])
    closed = oracle(c_f, c_g, k, 1.0)
    v, v_target = closed["stationary_var"], closed["target_variance"]
    gap = abs(math.sqrt(v) - math.sqrt(v_target))
    tau = math.sqrt(float(man["c"])) / abs(k)  # CLI step rule at lam = 1
    kept = (int(man["n_steps"]) - int(man["burn_in"])) // int(man["thinning"])
    tau_int = max(1.0, 1.0 / (_slowest_rate(c_f, c_g, k, 1.0) * tau * int(man["thinning"])))
    n_eff = int(man["n_chains"]) * kept / tau_int
    se = math.sqrt(v) * math.sqrt(2.0 / n_eff) / 2.0
    step_bias = tau * (1.0 / c_g + k * k / c_f) * math.sqrt(v)
    tol = GAUSS_SE_FACTOR * se + step_bias
    ok = slope < 0 and abs(w2 - gap) <= tol
    return ok, f"slope {slope:.3f}; lam=1 w2 {w2:.4f} vs closed form {gap:.4f} (tol {tol:.4f})"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tv2pixel_10k", "run",
            ("scenario=tv2pixel", "x_obs1=0", "x_obs2=1", "sigma_eps=0.5", "alpha=3",
             "tau=0.015", "lam=100", "n_chains=10000", "n_steps=1600", "burn_in=600",
             "thinning=10", "ref_samples=1000", "n_checkpoints=20"),
            check_tv2pixel,
        ),
        Workload(
            "tv_image_128", "run",
            ("scenario=tv_image", "width=128", "height=128", "n_chains=24", "alpha=3",
             "tau=0.003", "lam=10", "n_steps=180", "burn_in=100", "thinning=4"),
            check_image,
        ),
        Workload(
            "tgv_image_32", "run",
            ("scenario=tgv_image", "width=32", "height=32", "n_chains=24", "tau=0.003",
             "lam=10", "n_steps=600", "burn_in=200", "thinning=10"),
            check_image,
        ),
        Workload(
            "gauss1d_sweep", "sweep",
            ("sweep_kind=lambda", "sweep_values=1,10,100,1000", "n_chains=64",
             "n_steps=20000", "burn_in=10000"),
            check_gauss1d_sweep,
        ),
    )
}


def oracle_args(c_f: float, c_g: float, k: float, lam: float) -> list[str]:
    return ["oracle", "gauss1d", "--cf", repr(c_f), "--cg", repr(c_g), "--k", repr(k),
            "--lambda", repr(lam)]


def parse_oracle(stdout: str) -> dict:
    """Read target_variance and the primal stationary variance from the
    ``oracle`` subcommand's output."""
    values = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(" = ")
        if key == "target_variance":
            values["target_variance"] = float(rest)
        elif key == "stationary_cov":
            values["stationary_var"] = float(rest.strip("[] ").split(",")[0])
    return values
