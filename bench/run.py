"""pdlangevin benchmark: CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload tv_image_128 --seed 1 --seconds 25 --trace 0

For ``--seconds`` the benchmark repeats the workload's CLI invocation, one
at a time (a closed loop with one client), each in a fresh interpreter so
its CPU time and peak memory are its own, and checks every invocation's
artifacts. Untraced runs scale their times to a reference host speed
measured by bench/hostspeed.py, which runs beside the invocations.
Invocation seeds are drawn from ``--seed``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The lines before it give the same
numbers for reading, the environment and the resolved configuration.
bench/README.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, oracle_args, parse_oracle

ROOT = Path.cwd()
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"
HARD_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_PROBES = 4
HOSTSPEED = Path(__file__).resolve().parent / "hostspeed.py"
# CPU time of one hostspeed.py kernel at the reference speed: its median
# on the 2-core Xeon guest described in bench/README.md. The three times
# are scaled to that speed, by the probe's mean over each timed interval,
# because this host's speed drifts by up to 2x over seconds to minutes
# (bench/README.md, "Host speed").
REF_PROBE_S = 0.85e-3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.io.s": "s",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "linop.norm.s": "s",
    "linop.apply.s": "s",
    "linop.apply.calls": "count",
    "linop.apply.ns_per_entry": "ns",
    "linop.adjoint.s": "s",
    "linop.adjoint.calls": "count",
    "linop.adjoint.ns_per_entry": "ns",
    "linop.bytes_computed": "B",
    "linop.entries_per_step": "count",
    "linop.bytes_per_step": "B",
    "prox.fstar.s": "s",
    "prox.fstar.calls": "count",
    "prox.fstar.ns_per_entry": "ns",
    "prox.g.s": "s",
    "prox.g.calls": "count",
    "prox.g.ns_per_entry": "ns",
    "prox.bytes_computed": "B",
    "prox.entries_per_step": "count",
    "prox.bytes_per_step": "B",
    "samplers.self_s": "s",
    "samplers.ns_per_chain_step": "ns",
    "samplers.chain_steps": "count",
    "samplers.first_step_s": "s",
    "samplers.kept_bytes": "B",
    "metrics.w2_exact.s": "s",
    "metrics.w2_exact.calls": "count",
    "metrics.w2_exact.n": "count",
    "metrics.other.s": "s",
    "models.f_subgrad.s": "s",
    "coupling.sweep.self_s": "s",
    "analytic.s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.accounted_frac": "frac",
}


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, seconds: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.config: dict | None = None
        self.runtime: dict | None = None
        self._oracle_cache: dict = {}
        self._count = 0

    def _timeout(self) -> float:
        return max(1.0, self.started + HARD_LIMIT_S - time.monotonic())

    def _cli(self, args: list[str], **kw) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "pdlangevin.cli", *args],
            cwd=ROOT, env=self.env, timeout=self._timeout(), **kw,
        )

    def oracle(self, c_f: float, c_g: float, k: float, lam: float) -> dict:
        key = (c_f, c_g, k, lam)
        if key not in self._oracle_cache:
            proc = self._cli(oracle_args(*key), capture_output=True, text=True, check=True)
            self._oracle_cache[key] = parse_oracle(proc.stdout)
        return self._oracle_cache[key]

    def setup_probe(self) -> dict:
        """Wall time of ``validate`` with the workload's overrides in a
        fresh interpreter."""
        t0 = time.monotonic()
        try:
            ok = self._cli(self.workload.validate_args(), stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL).returncode == 0
        except subprocess.TimeoutExpired:
            ok = False
        t1 = time.monotonic()
        self.attempted += 1
        self.failed += not ok
        if not ok:
            print("setup probe failed: validate exited nonzero", file=sys.stderr)
        return {"setup_s": t1 - t0, "t_start": t0, "t_end": t1}

    def invoke(self, seed: int, trace: bool) -> dict:
        """One CLI invocation in its own process, checked."""
        self._count += 1
        outdir = WORK / f"out-{self._count}"
        result = WORK / f"result-{self._count}.json"
        log = WORK / f"log-{self._count}.txt"
        argv = [sys.executable, str(CHILD), str(result), "1" if trace else "0",
                *self.workload.cli_args(seed, outdir)]
        t0 = time.perf_counter()
        try:
            with open(log, "wb") as fh:
                rc = subprocess.run(argv, cwd=ROOT, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT, timeout=self._timeout()).returncode
        except subprocess.TimeoutExpired:
            rc = None
        rec = json.loads(result.read_text(encoding="utf-8")) if result.is_file() else {}
        rec["elapsed_s"] = time.perf_counter() - t0
        if rc == 0 and rec.get("rc") == 0:
            try:
                ok, detail = self.workload.check(outdir, self.oracle)
            except (OSError, KeyError, ValueError, StopIteration, subprocess.SubprocessError) as e:
                ok, detail = False, f"artifact check failed: {e!r}"
            if self.config is None and (outdir / "manifest.json").is_file():
                self.config = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
                self.config.pop("output_dir", None)
        else:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:] if log.is_file() else ""
            ok, detail = False, f"exit {rc}, cli rc {rec.get('rc')}: {tail.strip()}"
        if self.runtime is None and "numpy" in rec:
            self.runtime = {k: rec[k] for k in
                            ("python", "numpy", "scipy", "blas", "blas_threads", "threads")}
        self.attempted += 1
        self.failed += not ok
        print(f"# {'traced' if trace else 'untraced'} seed={seed} "
              f"wall_s={rec.get('wall_s', float('nan')):.4f} ok={ok} {detail}")
        shutil.rmtree(outdir, ignore_errors=True)
        rec["ok"] = ok
        return rec

    def _more(self, last_elapsed: float) -> bool:
        """Start another invocation only if it should end in the window."""
        return time.monotonic() + last_elapsed <= self.deadline

    def measure(self) -> dict[str, float]:
        """Set-up probes are spread over the first invocations, so that
        they meet the host in the same states as the invocations do."""
        setup, runs = [], []
        samples_path = WORK / "hostspeed.txt"
        with host_speed_probe(samples_path):
            while True:
                probe = len(setup) < SETUP_PROBES
                if runs:
                    next_s = runs[-1]["elapsed_s"] + (setup[-1]["setup_s"] if probe else 0.0)
                    if not self._more(next_s):
                        break
                if probe:
                    setup.append(self.setup_probe())
                runs.append(self.invoke(self.rng.randrange(2**31), trace=False))
            setup += [self.setup_probe() for _ in range(SETUP_PROBES - len(setup))]
        samples = read_samples(samples_path)
        timed = [r for r in runs if "wall_s" in r]
        run_speed = [speed(samples, r) for r in timed]
        setup_speed = [speed(samples, r) for r in setup]
        raw = {
            "wall_s": [r["wall_s"] for r in timed],
            "setup_s": [r["setup_s"] for r in setup],
            "cpu_s": [r["cpu_s"] for r in timed],
        }
        values = {
            "wall_s": _scaled(raw["wall_s"], run_speed),
            "setup_s": _scaled(raw["setup_s"], setup_speed),
            "cpu_s": _scaled(raw["cpu_s"], run_speed),
            "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        }
        for name, vals in values.items():
            print(describe(name, vals, END_TO_END[name]))
        for name, vals in raw.items():
            print(describe(f"{name} raw", vals, "s"))
        print(describe("host speed", run_speed + setup_speed, "x reference"))
        print(f"fail_frac      {self.failed / self.attempted:.4f} "
              f"({self.failed} of {self.attempted} CLI invocations failed)")
        metrics = {name: _median(vals) for name, vals in values.items()}
        metrics["ok_frac"] = 1.0 - self.failed / self.attempted
        return metrics

    def measure_traced(self) -> dict[str, float]:
        """Alternate untraced and traced invocations on the same seed; the
        per-layer metrics are medians over the traced ones."""
        plain, traced = [], []
        while not traced or self._more(plain[-1]["elapsed_s"] + traced[-1]["elapsed_s"]):
            seed = self.rng.randrange(2**31)
            plain.append(self.invoke(seed, trace=False))
            traced.append(self.invoke(seed, trace=True))
        layers = [r["layers"] for r in traced if "layers" in r]
        metrics = {name: _median([lay[name] for lay in layers]) for name in layers[0]} if layers else {}
        metrics["trace.untraced_wall_s"] = _median([r["wall_s"] for r in plain if "wall_s" in r])
        metrics["trace.overhead_s"] = metrics.get("trace.wall_s", 0.0) - metrics["trace.untraced_wall_s"]
        for name, unit in PER_LAYER.items():
            metrics.setdefault(name, 0.0)
            print(f"{name:28s} {metrics[name]:.6g} {unit}")
        return metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


@contextlib.contextmanager
def host_speed_probe(path: Path):
    """Run bench/hostspeed.py beside the body, writing to ``path``; it is
    stopped, and waited for, on every way out."""
    proc = subprocess.Popen([sys.executable, str(HOSTSPEED), str(path)], cwd=ROOT)
    try:
        deadline = time.monotonic() + 30.0
        while not (path.is_file() and path.stat().st_size):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the host speed probe did not start")
            time.sleep(0.05)
        yield
    finally:
        proc.terminate()
        proc.wait()


def read_samples(path: Path) -> list[tuple[float, float]]:
    with open(path, encoding="ascii") as fh:
        return [tuple(map(float, line.split())) for line in fh if line.endswith("\n")]


def speed(samples: list[tuple[float, float]], rec: dict) -> float:
    """Host speed over one timed interval, relative to the reference: the
    reference probe time over the mean probe time inside the interval, or
    over the nearest probe time when the interval is shorter than the
    probe's period (a call that fails at once)."""
    inside = [d for t, d in samples if rec["t_start"] <= t <= rec["t_end"]]
    if not inside:
        mid = (rec["t_start"] + rec["t_end"]) / 2.0
        inside = [min(samples, key=lambda s: abs(s[0] - mid))[1]]
    return REF_PROBE_S / statistics.fmean(inside)


def _scaled(values: list[float], speeds: list[float]) -> list[float]:
    return [v * f for v, f in zip(values, speeds)]


def describe(name: str, values: list[float], unit: str) -> str:
    """Median with the run count, and the highest percentile that has at
    least ten runs beyond it."""
    if not values:
        return f"{name:14s} no successful runs"
    line = f"{name:14s} median {statistics.median(values):.4f} {unit} (n={len(values)})"
    for p in (99.9, 99, 95, 90, 75):
        if len(values) * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return line + f"; p{p:g} {cut:.4f} {unit}"
    if len(values) < 20:
        line += "; fewer than 20 runs, so no percentile, the median included, has ten beyond it"
    return line


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _source_identity() -> dict[str, str]:
    sha = ""
    if (ROOT / ".git").exists():  # never let git search directories above the checkout
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha or "unknown (not a git checkout)", "src_sha256": digest.hexdigest()}


def environment(bench: Bench) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache": _cache_sizes(),
        **(bench.runtime or {}),
        **_source_identity(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pdlangevin" / "cli.py").is_file():
        print(f"no pdlangevin sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        metrics = bench.measure_traced() if args.trace else bench.measure()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print("env " + json.dumps(environment(bench), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} config " + json.dumps(bench.config, sort_keys=True))
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
