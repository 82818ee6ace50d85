"""Config parsing, image IO, step-size rule, scenario runs, exit codes."""

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdlangevin import cli, models
from pdlangevin.cli import (
    ConfigError,
    ImageGrid,
    ScenarioConfig,
    _content_hash,
    add_gaussian_noise,
    gauss1d_stepsizes,
    load_image_pgm,
    main,
    parse_config,
    parse_pgm,
    run_scenario,
    save_image_pgm,
    synthetic_phantom,
)
from pdlangevin.analytic import target_variance, tv2pixel_posterior
from pdlangevin.coupling import sweep
from pdlangevin.linop import LinearMap, grad2d
from pdlangevin.metrics import EmpiricalMeasure, psnr, w2_exact
from pdlangevin.samplers import SamplerParams, prepare_run, run_ensemble


class TestStepsizes:
    def test_benchmark_values(self):
        tau, sigma = gauss1d_stepsizes(1.0, 1.5, 1e-4)
        assert tau == pytest.approx(1e-2 / 1.5, rel=1e-14)
        assert sigma == pytest.approx(1e-2 / 1.5, rel=1e-14)

    @pytest.mark.parametrize("lam,k,c", [(1.0, 1.5, 1e-4), (100.0, -2.0, 0.5), (7.0, 0.3, 1.0)])
    def test_constraints_exact(self, lam, k, c):
        tau, sigma = gauss1d_stepsizes(lam, k, c)
        assert sigma / tau == pytest.approx(lam, rel=1e-12)
        assert sigma * tau * k**2 == pytest.approx(c, rel=1e-12)

    def test_rejects_large_c(self):
        with pytest.raises(ValueError):
            gauss1d_stepsizes(1.0, 1.5, 1.5)
        with pytest.raises(ValueError):
            gauss1d_stepsizes(1.0, 0.0, 0.5)


class TestConfig:
    def test_file_with_comments_and_overrides(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("# comment\nscenario = gauss1d\nlam = 10  # inline\n\nn_steps = 50\n")
        cfg = parse_config(p, overrides=["lam=100", "seed=4"])
        assert cfg.scenario == "gauss1d"
        assert cfg.lam == 100.0
        assert cfg.seed == 4
        assert cfg.n_steps == 50

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(p)

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config(None, overrides=["lam=abc"])

    def test_bad_scenario(self):
        with pytest.raises(ConfigError):
            parse_config(None, overrides=["scenario=nope"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.txt")


class TestPgm:
    def test_p2_parse(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_text("P2\n# comment\n2 2\n255\n255 255\n255 255\n")
        img = load_image_pgm(p)
        assert (img.width, img.height) == (2, 2)
        np.testing.assert_array_equal(img.intensities, np.ones(4))

    def test_p5_roundtrip_16bit(self, tmp_path):
        rng = np.random.default_rng(0)
        img = ImageGrid(5, 4, rng.uniform(0, 1, 20))
        path = tmp_path / "b.pgm"
        save_image_pgm(path, img)
        back = load_image_pgm(path)
        np.testing.assert_allclose(back.intensities, img.intensities, atol=1.0 / 131070)

    def test_p5_roundtrip_8bit(self, tmp_path):
        img = ImageGrid(3, 3, np.linspace(0, 1, 9))
        path = tmp_path / "c.pgm"
        save_image_pgm(path, img, maxval=255)
        back = load_image_pgm(path)
        np.testing.assert_allclose(back.intensities, img.intensities, atol=1.0 / 510)

    def test_wrong_magic_names_bytes(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="P6"):
            load_image_pgm(p)

    def test_truncated_data(self, tmp_path):
        p = tmp_path / "e.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            load_image_pgm(p)


class TestNoise:
    def test_zero_sigma_identity(self):
        img = synthetic_phantom(8, 8)
        out = add_gaussian_noise(img, 0.0, seed=1)
        np.testing.assert_array_equal(out.intensities, img.intensities)

    def test_deterministic_per_seed(self):
        img = synthetic_phantom(8, 8)
        a = add_gaussian_noise(img, 0.3, seed=2)
        b = add_gaussian_noise(img, 0.3, seed=2)
        np.testing.assert_array_equal(a.intensities, b.intensities)

    def test_empirical_std(self):
        img = ImageGrid(64, 64, np.zeros(64 * 64))
        out = add_gaussian_noise(img, 0.25, seed=3)
        assert out.intensities.std() == pytest.approx(0.25, abs=3.0 / 64)

    def test_psnr_of_quarter_noise(self):
        img = synthetic_phantom(64, 64)
        out = add_gaussian_noise(img, 0.25, seed=4)
        assert psnr(img.intensities, out.intensities) == pytest.approx(
            -20.0 * math.log10(0.25), abs=0.2
        )


class TestScenarios:
    def test_gauss1d_artifacts(self, tmp_path):
        cfg = parse_config(None, overrides=[
            "scenario=gauss1d", "lam=100", "n_chains=300", "n_steps=2000",
            "burn_in=1000", f"output_dir={tmp_path}/out",
        ])
        extra = run_scenario(cfg)
        out = tmp_path / "out"
        assert (out / "summary.csv").exists()
        assert (out / "histogram.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stability_regime"] is True
        assert extra["empirical_variance"] == pytest.approx(manifest["stationary_variance"], rel=0.2)

    def test_gauss1d_reproducible(self, tmp_path):
        ov = ["scenario=gauss1d", "n_chains=50", "n_steps=300", "burn_in=100"]
        run_scenario(parse_config(None, overrides=ov + [f"output_dir={tmp_path}/a"]))
        run_scenario(parse_config(None, overrides=ov + [f"output_dir={tmp_path}/b"]))
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()

    def test_csv_is_crlf_with_header(self, tmp_path):
        cfg = parse_config(None, overrides=[
            "scenario=gauss1d", "n_chains=20", "n_steps=100", f"output_dir={tmp_path}/out",
        ])
        run_scenario(cfg)
        raw = (tmp_path / "out" / "summary.csv").read_bytes()
        assert b"\r\n" in raw
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["block", "coordinate", "mean", "variance"]

    def test_tv2pixel_checkpoints(self, tmp_path):
        cfg = parse_config(None, overrides=[
            "scenario=tv2pixel", "lam=100", "tau=0.01", "n_chains=200", "n_steps=400",
            "burn_in=399", "n_checkpoints=10", "ref_samples=200",
            f"output_dir={tmp_path}/out",
        ])
        run_scenario(cfg)
        with open(tmp_path / "out" / "w2_vs_time.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "w2"]
        assert len(rows) == 11
        assert float(rows[-1][1]) > 0

    def test_tv2pixel_measures_against_the_exact_posterior(self, tmp_path):
        cfg = parse_config(None, overrides=[
            "scenario=tv2pixel", "lam=100", "tau=0.01", "n_chains=150", "n_steps=60",
            "n_checkpoints=2", "ref_samples=100", "seed=4", f"output_dir={tmp_path}/out",
        ])
        extra = run_scenario(cfg)
        post = tv2pixel_posterior([0.0, 1.0], cfg.sigma_eps, cfg.alpha)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "ref_tau_factor" not in manifest
        assert manifest["target_mean"] == post.mean.tolist()
        assert manifest["target_variance"] == post.cov.diagonal().tolist()
        # the last checkpoint's W2 is to the first 100 exact draws at seed + 1
        store = run_ensemble(cli._build_problem(cfg).target, SamplerParams(0.01, 100.0, seed=4),
                             n_chains=150, n_steps=60, burn_in=59)
        mu = EmpiricalMeasure(store.final_x[:100])
        assert extra["final_w2"] == w2_exact(mu, EmpiricalMeasure(post.sample(100, 5)))

    def test_tv2pixel_runs_where_the_posterior_branches_are_far_tails(self, tmp_path):
        # sigma_eps = 3: both branch means lie 42 sigmas past t = 0, where the
        # reference draws used to be all infinite and run exited 3
        assert main(["run", "scenario=tv2pixel", "sigma_eps=3", "n_chains=50", "n_steps=20",
                     "n_checkpoints=2", "ref_samples=50", f"output_dir={tmp_path}/out"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert math.isfinite(manifest["final_w2"])

    @pytest.mark.parametrize("override", ["alpha=1e200", "x_obs2=1e80", "sigma_eps=1e-80"])
    def test_tv2pixel_posterior_overflow_is_rejected_by_validate(self, override, tmp_path,
                                                                  capsys):
        assert main(["validate", "scenario=tv2pixel", override]) == 3
        assert main(["run", "scenario=tv2pixel", override, "n_chains=4", "n_steps=4",
                     f"output_dir={tmp_path}/out"]) == 3
        assert capsys.readouterr().err.count("the exact two-pixel posterior overflows") == 2
        assert not (tmp_path / "out").exists()

    def test_tv2pixel_manifest_states_its_stationarity_statistic(self, tmp_path):
        cfg = parse_config(None, overrides=[
            "scenario=tv2pixel", "lam=100", "tau=0.01", "n_chains=200", "n_steps=300",
            "burn_in=100", "thinning=10", "n_checkpoints=2", "ref_samples=200",
            f"output_dir={tmp_path}/out",
        ])
        extra = run_scenario(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        statistic = manifest["stationary_statistic"]
        assert statistic == extra["stationary_statistic"]
        assert math.isfinite(statistic) and statistic >= 0.0
        assert manifest["stationary"] is (statistic < 1e-2)

    @pytest.mark.parametrize("n_chains, ref_samples", [(300, 200), (200, 300)])
    def test_tv2pixel_artifacts_do_not_depend_on_the_solve_threads(
        self, tmp_path, monkeypatch, n_chains, ref_samples
    ):
        # the checkpoint assignments solved on worker threads give the bytes
        # of the same solves made inline, in checkpoint order
        from concurrent.futures import Future

        cfg = parse_config(None, overrides=[
            "scenario=tv2pixel", "lam=100", "tau=0.01", f"n_chains={n_chains}",
            "n_steps=300", "burn_in=200", "n_checkpoints=12", f"ref_samples={ref_samples}",
            f"output_dir={tmp_path}/out",
        ])

        def artifacts() -> dict:
            extra = run_scenario(cfg)
            return {"final_w2": extra["final_w2"],
                    **{p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())}}

        threaded = artifacts()

        class Inline:
            def submit(self, fn, *args, **kwargs):
                solve = Future()
                solve.set_result(fn(*args, **kwargs))
                return solve

        @contextlib.contextmanager
        def inline_pool(n_solves):
            yield Inline()

        monkeypatch.setattr(cli, "w2_pool", inline_pool)
        inline = artifacts()
        assert set(threaded) == {"final_w2", "manifest.json", "summary.csv", "w2_vs_time.csv"}
        assert threaded == inline
        assert threaded["w2_vs_time.csv"].count(b"\r\n") == 13

    def test_tv_image_artifacts(self, tmp_path):
        cfg = parse_config(None, overrides=[
            "scenario=tv_image", "width=8", "height=8", "alpha=3", "tau=0.003",
            "lam=10", "n_chains=4", "n_steps=400", "burn_in=200", "thinning=5",
            f"output_dir={tmp_path}/out",
        ])
        extra = run_scenario(cfg)
        out = tmp_path / "out"
        for name in ("mmse.pgm", "variance_log10.pgm", "noisy.pgm", "summary.csv", "manifest.json"):
            assert (out / name).exists()
        mmse = load_image_pgm(out / "mmse.pgm")
        assert (mmse.width, mmse.height) == (8, 8)
        assert np.isfinite(extra["psnr_mmse_db"])

    @pytest.mark.parametrize("overrides", [
        ("scenario=tv_image", "width=8", "height=8", "alpha=3"),
        ("scenario=tgv_image", "width=6", "height=6", "alpha1=2", "alpha0=4"),
    ])
    def test_image_maps_are_those_of_the_kept_cloud(self, overrides, tmp_path):
        # burn_in=0, so the initial state is one of the kept samples
        cfg = parse_config(None, overrides=[
            *overrides, "tau=0.003", "lam=10", "n_chains=3", "n_steps=120", "burn_in=0",
            "thinning=3", f"output_dir={tmp_path}/out",
        ])
        run_scenario(cfg)
        prob = cli._build_problem(cfg)
        w, h, d = cfg.width, cfg.height, cfg.width * cfg.height
        X0 = np.zeros((cfg.n_chains, prob.target.dim_primal))
        X0[:, :d] = prob.noisy.intensities
        store = run_ensemble(
            prob.target, prob.params, n_chains=cfg.n_chains, n_steps=cfg.n_steps, burn_in=0,
            thinning=cfg.thinning, kind=prob.kind,
            init=(X0, np.zeros((cfg.n_chains, prob.target.dim_dual))),
        )
        cloud = store.x_samples[:, :d]
        mmse, var = cloud.mean(axis=0), cloud.var(axis=0, ddof=1)
        log_var = np.log10(np.maximum(var, 1e-12))
        lo, hi = log_var.min(), log_var.max()
        assert hi > lo
        ref = tmp_path / "ref"
        ref.mkdir()
        save_image_pgm(ref / "mmse.pgm", ImageGrid(w, h, mmse))
        save_image_pgm(ref / "variance_log10.pgm", ImageGrid(w, h, (log_var - lo) / (hi - lo)))
        save_image_pgm(ref / "noisy.pgm", ImageGrid(w, h, np.clip(prob.noisy.intensities, 0, 1)))
        for name in ("mmse.pgm", "variance_log10.pgm", "noisy.pgm"):
            assert (tmp_path / "out" / name).read_bytes() == (ref / name).read_bytes(), name
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            summary = {row[0]: float(row[1]) for row in list(csv.reader(fh))[1:]}
        assert summary["psnr_mmse_db"] == psnr(prob.clean.intensities, mmse)
        for key, want in (
            ("mean_pixel_variance", var.mean()),
            ("mean_dual_variance", store.y_samples.var(axis=0, ddof=1).mean()),
            ("log10_var_min", lo),
            ("log10_var_max", hi),
        ):
            assert summary[key] == pytest.approx(want, rel=1e-12, abs=0), key

    def test_image_memory_does_not_grow_with_kept_steps(self, tmp_path):
        # the same 600 steps keep 10 or 200 states; kept samples would add
        # 200 x 4 chains x 3,072 doubles (19.7 MB) to the second run's peak
        def config(burn_in):
            return parse_config(None, overrides=[
                "scenario=tv_image", "width=32", "height=32", "alpha=3", "tau=0.003",
                "lam=10", "n_chains=4", "n_steps=600", f"burn_in={burn_in}",
                f"output_dir={tmp_path}/out{burn_in}",
            ])

        run_scenario(config(590))  # untraced: a first run may import modules
        peaks = []
        for burn_in in (590, 400):
            tracemalloc.start()
            try:
                run_scenario(config(burn_in))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 1 << 20, peaks

    def test_tgv_image_runs(self, tmp_path):
        cfg = parse_config(None, overrides=[
            "scenario=tgv_image", "width=6", "height=6", "alpha1=2", "alpha0=4",
            "tau=0.003", "lam=10", "n_chains=3", "n_steps=200", "burn_in=100",
            f"output_dir={tmp_path}/out",
        ])
        extra = run_scenario(cfg)
        assert (tmp_path / "out" / "mmse.pgm").exists()
        assert extra["mean_pixel_variance"] > 0

    def test_sweep_lambda(self, tmp_path):
        cfg = parse_config(None, overrides=[
            "scenario=sweep", "sweep_kind=lambda", "sweep_values=1,100",
            "n_chains=400", "n_steps=1500", "burn_in=700",
            f"output_dir={tmp_path}/out",
        ])
        run_scenario(cfg)
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "lambda"
        w2s = [float(r[1]) for r in rows[1:]]
        assert w2s[1] < w2s[0]

    def test_input_image_used(self, tmp_path):
        img = synthetic_phantom(8, 8)
        save_image_pgm(tmp_path / "in.pgm", img)
        cfg = parse_config(None, overrides=[
            "scenario=tv_image", f"input_image={tmp_path}/in.pgm", "alpha=3",
            "tau=0.003", "n_chains=2", "n_steps=100", f"output_dir={tmp_path}/out",
        ])
        run_scenario(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["input_image"].endswith("in.pgm")


class TestMainExitCodes:
    def test_success(self, tmp_path):
        code = main(
            ["run", f"output_dir={tmp_path}/out", "scenario=gauss1d", "n_chains=10", "n_steps=50"]
        )
        assert code == 0

    def test_config_error(self, capsys):
        assert main(["run", "bogus_key=1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_regime_violation(self, capsys):
        code = main(["run", "scenario=gauss1d", "tau=1.0", "lam=1.0", "n_chains=2", "n_steps=5"])
        assert code == 3
        assert "regime" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, override", [
        ("gauss1d", "theta=1.5"),
        ("gauss1d", "theta=-0.5"),
        ("tv_image", "alpha=0"),
        ("tgv_image", "alpha1=0"),
        ("tgv_image", "alpha0=0"),
        ("tv_image", "sigma_eps=0"),
        ("gauss1d", "tau=-1"),
        ("gauss1d", "tau=nan"),
        ("tv2pixel", "x_obs1=nan"),
        ("tv2pixel", "x_obs2=inf"),
        ("tv2pixel", "alpha=inf"),
        ("tv2pixel", "sigma_eps=inf"),
        ("gauss1d", "lam=inf"),
        ("gauss1d", "k=inf"),
        ("gauss1d", "c_f=inf"),
    ])
    def test_value_out_of_range_is_a_config_error(self, scenario, override, tmp_path, capsys):
        code = main(["run", f"scenario={scenario}", override, "width=8", "height=8",
                     "n_chains=2", "n_steps=2", f"output_dir={tmp_path}/out"])
        assert code == 2
        assert f"config error: {override.split('=')[0]} must" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["x_obs1=nan", "alpha=inf"])
    def test_non_finite_value_gets_the_same_exit_code_from_validate_and_run(
            self, override, tmp_path, capsys):
        args = ["scenario=tv2pixel", override, "n_chains=2", "n_steps=10"]
        codes = {command: main([command, *args, f"output_dir={tmp_path}/{command}"])
                 for command in ("validate", "run")}
        assert codes == {"validate": 2, "run": 2}
        assert capsys.readouterr().err.count(f"{override.split('=')[0]} must be finite") == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("args", [
        ["validate", "scenario=sweep", "sweep_values=1,nan"],
        ["sweep", "sweep_values=1,nan"],
        ["validate", "scenario=sweep", "sweep_values=1,10,inf"],
    ], ids=["validate-nan", "sweep-nan", "validate-inf"])
    def test_non_finite_sweep_value_is_a_config_error(self, args, tmp_path, capsys):
        # a NaN fails no ordering test: validate used to print "lambda = nan"
        # and exit 0, sweep to exit 3 on a diverged chain; lambda = inf
        # gave tau = 0 and exit 3
        code = main([*args, "n_chains=2", "n_steps=10", f"output_dir={tmp_path}/out"])
        assert code == 2
        assert "config error: sweep_values must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, field", [
        (["run", "scenario=tv2pixel", "n_checkpoints=0"], "n_checkpoints"),
        (["validate", "scenario=gauss1d", "c_f=0"], "c_f"),
        (["run", "scenario=gauss1d", "k=0"], "k"),
        (["run", "scenario=tv2pixel", "ref_samples=0"], "ref_samples"),
    ], ids=["n_checkpoints", "c_f", "k", "ref_samples"])
    def test_model_and_reference_fields_are_config_errors(self, args, field, tmp_path, capsys):
        # each used to fail while running: a ZeroDivisionError traceback
        # (exit 1) or a model check reported as a regime violation (exit 3)
        code = main([*args, "n_chains=2", "n_steps=10", f"output_dir={tmp_path}/out"])
        assert code == 2
        assert f"config error: {field} must" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["scenario=gauss1d", "n_chains=1", "n_steps=10", "burn_in=10"],
        ["scenario=tv2pixel", "n_chains=1", "n_steps=10", "burn_in=10", "ref_samples=1"],
        ["scenario=tv_image", "width=4", "height=4", "n_chains=1", "n_steps=3", "burn_in=3"],
    ], ids=["gauss1d", "tv2pixel", "tv_image"])
    def test_fewer_than_two_kept_samples_is_a_config_error(self, args, tmp_path, capsys):
        # one chain that keeps only its final state leaves no variance to
        # estimate; the run used to fail after sampling, as a regime violation
        for command in ("run", "validate"):
            assert main([command, *args, f"output_dir={tmp_path}/out"]) == 2
            assert "config error: n_chains * kept steps must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_diverging_chain(self, tmp_path, capsys):
        # ula at tau = 3 multiplies the primal by -7.25 per step
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "scenario=gauss1d", "sampler=ula", "tau=3", "lam=0.01",
                         "n_steps=3000", f"output_dir={tmp_path}/out"])
        assert code == 3
        step = re.search(r"diverged: non-finite state at step (\d+)", capsys.readouterr().err)
        assert step is not None and int(step.group(1)) < 3000
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_overflowing_moments_are_a_regime_violation(self, tmp_path, capsys):
        # ula at tau = 3 takes the primal to about 1e172 in 200 steps: every
        # state is finite, but the squares overflow. This run used to exit 0
        # with a variance of inf in summary.csv and null in the manifest.
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "scenario=gauss1d", "sampler=ula", "tau=3", "lam=0.01",
                         "n_steps=200", f"output_dir={tmp_path}/out"])
        assert code == 3
        assert "the moments of block 'x' are not finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("block", ["x", "y"])
    def test_overflowing_image_moments_are_a_regime_violation(
            self, block, tmp_path, capsys, monkeypatch):
        made = []

        class Overflowing(cli.RunningMoments):
            """The pixels' variance (the first one made, block x) or the
            dual's (the second, block y) overflows."""

            def __init__(self, select):
                super().__init__(select)
                made.append(self)

            def variance(self):
                wanted = self is made["xy".index(block)]
                return super().variance() * (np.inf if wanted else 1.0)

        monkeypatch.setattr(cli, "RunningMoments", Overflowing)
        with np.errstate(invalid="ignore"):  # a variance of 0.0 times inf
            code = main(["run", "scenario=tv_image", "width=8", "height=8", "n_chains=2",
                         "n_steps=4", f"output_dir={tmp_path}/out"])
        assert code == 3
        assert f"the moments of block '{block}' are not finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_io_error(self, tmp_path, capsys):
        code = main([
            "run", "scenario=tv_image", f"input_image={tmp_path}/missing.pgm",
            f"output_dir={tmp_path}/out",
        ])
        assert code == 4

    def test_malformed_pgm_is_an_io_error(self, tmp_path, capsys):
        (tmp_path / "bad.pgm").write_bytes(b"P2\n2 1\n255\n7 x\n")
        code = main([
            "run", "scenario=tv_image", f"input_image={tmp_path}/bad.pgm",
            f"output_dir={tmp_path}/out",
        ])
        assert code == 4
        assert "io error" in capsys.readouterr().err

    def test_validate_command(self, capsys):
        assert main(["validate", "scenario=gauss1d", "lam=10"]) == 0
        out = capsys.readouterr().out
        assert "stability_regime = True" in out

    def test_oracle_command(self, capsys):
        assert main(["oracle", "gauss1d", "--cf", "1", "--cg", "2", "--k", "1.5",
                     "--lambda", "100"]) == 0
        out = capsys.readouterr().out
        assert "0.371777" in out

    def test_sweep_command(self, tmp_path):
        code = main([
            "sweep", "sweep_kind=lambda", "sweep_values=1,10", "n_chains=30",
            "n_steps=200", "burn_in=100", f"output_dir={tmp_path}/out",
        ])
        assert code == 0
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_one_point_sweep_has_no_slope(self, tmp_path):
        # a line through one point used to end in an SVD failure, exit 3
        code = main(["sweep", "sweep_values=1", "n_chains=2", "n_steps=10", "burn_in=5",
                     f"output_dir={tmp_path}/out"])
        assert code == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and math.isnan(float(rows[0]["loglog_slope"]))

    @pytest.mark.parametrize("args, field", [
        (["sweep", "sweep_values=1", "n_chains=2", "n_steps=10", "burn_in=5"], "loglog_slope"),
    ], ids=["one_point_sweep"])
    def test_manifest_is_strict_json(self, args, field, tmp_path):
        # a non-finite field is written as null, not as NaN or Infinity,
        # which strict JSON parsers reject
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        with np.errstate(over="ignore", invalid="ignore"):
            assert main([*args, f"output_dir={tmp_path}/out"]) == 0
        text = (tmp_path / "out" / "manifest.json").read_text()
        assert json.loads(text, parse_constant=reject)[field] is None


@pytest.mark.parametrize("args", [
    ["run", "scenario=gauss1d"],
    ["run", "scenario=tv2pixel", "ref_samples=20"],
    ["run", "scenario=tv_image", "width=4", "height=4"],
    ["run", "scenario=tgv_image", "width=4", "height=4"],
    ["sweep", "sweep_values=1,10"],
], ids=["gauss1d", "tv2pixel", "tv_image", "tgv_image", "sweep"])
def test_manifest_names_the_noise_streams(args, tmp_path):
    # the content hash covers the config, not the generator that the
    # config's seed keys, so the manifest states the generator
    assert main([*args, "n_chains=4", "n_steps=6", "burn_in=2",
                 f"output_dir={tmp_path}/out"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["noise_streams"] == "SFC64(SeedSequence([seed, chain]))"


class TestSweepOrdering:
    # the sweep grid is checked where sweep_values comes in: a config error
    def test_requires_decreasing_taus(self, tmp_path, capsys):
        code = main([
            "sweep", "sweep_kind=tau", "sweep_values=1e-3,2e-3", "n_chains=2", "n_steps=4",
            "burn_in=0", f"output_dir={tmp_path}/out",
        ])
        assert code == 2
        assert "decreasing" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_requires_increasing(self, tmp_path, capsys):
        code = main([
            "sweep", "sweep_kind=lambda", "sweep_values=10,1", "n_chains=2",
            "n_steps=4", f"output_dir={tmp_path}/out",
        ])
        assert code == 2
        assert "increasing" in capsys.readouterr().err

    def test_validate_gives_the_same_verdict(self, capsys):
        assert main(["validate", "scenario=sweep", "sweep_kind=lambda", "sweep_values=10,1"]) == 2
        assert "increasing" in capsys.readouterr().err


class TestValidateMatchesRun:
    def test_reads_the_input_image(self, tmp_path, capsys):
        # L is that of the input image's grid, not of width x height
        save_image_pgm(tmp_path / "in.pgm", synthetic_phantom(9, 5))
        assert main(["validate", "scenario=tv_image", f"input_image={tmp_path}/in.pgm"]) == 0
        out = capsys.readouterr().out
        assert f"L = {grad2d(9, 5).norm():.6g}\n" in out
        assert f"L = {grad2d(32, 32).norm():.6g}\n" not in out

    def test_reports_the_clamped_tau(self, tmp_path, capsys):
        ov = ["scenario=tv_image", "width=8", "height=6", "lam=10000"]
        assert main(["validate", *ov]) == 0
        out = capsys.readouterr().out
        assert "note: tau lowered from 0.02" in out
        assert main(["run", *ov, "n_chains=2", "n_steps=5", f"output_dir={tmp_path}/out"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert f"tau = {manifest['tau']:.6g}\n" in out
        # the configured tau (0: derive it) and the reason it was changed
        assert manifest["tau_requested"] == 0.0
        assert [f"note: {note}" for note in manifest["notes"]] == re.findall("note: .*", out)
        assert manifest["notes"][0].startswith("tau lowered from 0.02")

    @pytest.mark.parametrize("ov, tau", [(["scenario=tv_image", "tau=0.003"], 0.003),
                                         (["scenario=sweep"], 0.0)], ids=["image", "sweep"])
    def test_manifest_keeps_an_unchanged_tau(self, ov, tau, tmp_path):
        assert main(["run", *ov, "width=8", "height=6", "n_chains=2", "n_steps=5",
                     f"output_dir={tmp_path}/out"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["notes"] == []
        assert manifest["tau_requested"] == manifest["tau"] == tau

    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("scenario", ["tv_image", "tgv_image"])
    def test_clamped_tau_keeps_the_contract_under_the_certified_bound(self, scenario, n):
        # a power-iteration L, low by 3.5e-3 at 128^2, let theta tau sigma L^2
        # reach 1.0025 against the true norm
        cfg = parse_config(None, [f"scenario={scenario}", f"width={n}", f"height={n}",
                                  "lam=10000", "theta=0.9"])
        prob = cli._build_problem(cfg)
        p = prob.params
        assert prob.notes and p.tau < 0.02
        assert prob.report.L == prob.target.K.norm()
        assert p.theta * p.tau * p.sigma * prob.target.K.norm() ** 2 <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "overrides", [["c=2"], ["sweep_kind=tau", "sweep_values=5,1", "lam=10"]], ids=["c", "tau"]
    )
    def test_sweep_points_are_validated(self, overrides, tmp_path, capsys):
        assert main(["validate", "scenario=sweep", *overrides]) == 3
        assert main(["sweep", *overrides, "n_chains=2", "n_steps=4",
                     f"output_dir={tmp_path}/out"]) == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["sweep", "scenario=sweep", "sampler=modified_sde", "sweep_kind=tau",
         "sweep_values=0.05,0.01,0.002"],
        ["run", "scenario=gauss1d", "sampler=modified_sde", "tau=0.05"],
    ], ids=["sweep", "gauss1d"])
    def test_unstable_modified_sde_is_rejected(self, args, tmp_path, capsys):
        # at lam = 1 the Euler map's transverse eigenvalue is 1 + 1.25 tau:
        # these chains used to overflow at step 12,280 after validate passed
        sizes = ["n_chains=64", "n_steps=20000", "burn_in=10000", "seed=5"]
        command, *ov = args
        assert main(["validate", *ov, *sizes]) == 3
        assert main([command, *ov, *sizes, f"output_dir={tmp_path}/out"]) == 3
        err = capsys.readouterr().err
        assert err.count("regime violation: modified_sde's Euler map I - tau*A has spectral "
                         "radius 1.0625 >= 1 at tau = 0.05, lam = 1") == 2
        assert not (tmp_path / "out").exists()

    def test_stable_modified_sde_passes(self, capsys):
        # lam = 10: eigenvalues 1 - tau (1/c_g + k^2/c_f) and 1 - tau (lam c_f - k^2/c_f)
        assert main(["validate", "scenario=gauss1d", "sampler=modified_sde", "lam=10"]) == 0
        assert main(["validate", "scenario=sweep", "sampler=modified_sde",
                     "sweep_values=10,100,1000"]) == 0

    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    def test_negative_seed_is_a_config_error(self, command, tmp_path, capsys):
        # SeedSequence rejects it: run used to exit 3 after making output_dir
        assert main([command, "seed=-1", "n_chains=2", "n_steps=4",
                     f"output_dir={tmp_path}/out"]) == 2
        assert "config error: seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validate_prints_each_sweep_point(self, capsys):
        assert main(["validate", "scenario=sweep", "sweep_values=1,10,100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["lambda = 1", "lambda = 10",
                                                          "lambda = 100"]
        assert all(line.endswith("tau sigma L^2 = 0.0001") for line in lines)

    @pytest.mark.parametrize("sampler, kind, variant", [
        ("ula", "ula", "outer"), ("prox_sub", "prox_sub", "outer"),
        ("modified_sde", "modified_sde", "outer"), ("ulpda_general", "ulpda", "general"),
    ])
    def test_sweep_runs_the_configured_sampler(self, sampler, kind, variant, tmp_path):
        # the sweep used to run ulpda_outer whatever the sampler; modified_sde
        # is unstable at lam = 1 (see test_unstable_modified_sde_is_rejected)
        grid = [10.0, 100.0] if sampler == "modified_sde" else [1.0, 10.0]
        values = "sweep_values=" + ",".join(f"{v:g}" for v in grid)

        def sweep_csv(*overrides):
            out = tmp_path / "_".join(overrides)
            assert main(["sweep", *overrides, values, "seed=3", "n_chains=8",
                         "n_steps=200", "burn_in=100", f"output_dir={out}"]) == 0
            with open(out / "sweep.csv", newline="") as fh:
                return list(csv.DictReader(fh))

        cfg = parse_config(None, [f"sampler={sampler}", "scenario=sweep", values, "seed=3"])
        prob = cli._build_problem(cfg)
        assert prob.kind == kind
        assert [p.noise_variant for p in prob.params] == [variant] * 2
        want = sweep(prob.target, grid, dict(zip(prob.grid, prob.params)).__getitem__,
                     (0.0, target_variance(prob.model)), n_chains=8, n_steps=200, burn_in=100,
                     kind=kind)
        rows = sweep_csv(f"sampler={sampler}")
        assert [float(r["w2"]) for r in rows] == want.w2.tolist()
        assert rows != sweep_csv("sampler=ulpda_outer")

    def test_tau_sweep_of_ula_measures_the_gap_to_the_target(self, tmp_path):
        # ula tends to the target as tau -> 0; measured against the primal-dual
        # law at lam = 1 it read the dualization gap, 0.350, at every tau
        assert main(["sweep", "sampler=ula", "sweep_kind=tau", "sweep_values=0.05,0.01",
                     "seed=4", "n_chains=64", "n_steps=4000", "burn_in=1000",
                     f"output_dir={tmp_path}/out"]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            w2 = [float(r["w2"]) for r in csv.DictReader(fh)]
        assert w2[-1] < 0.05

    def test_sweep_uses_a_configured_tau(self, tmp_path, capsys):
        # tau > 0 is used as given at every step ratio, as in every scenario
        assert main(["validate", "scenario=sweep", "sweep_values=1,10", "tau=0.001"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[1].split(",")[0] for line in lines] == ["tau = 0.001"] * 2
        runs = {}
        for tau in ("0", "0.001"):
            out = tmp_path / tau
            assert main(["sweep", f"tau={tau}", "sweep_values=1,10", "n_chains=4", "n_steps=50",
                         f"output_dir={out}"]) == 0
            runs[tau] = (out / "sweep.csv").read_bytes()
        assert runs["0"] != runs["0.001"]

    def test_sampler_without_oracle_is_a_config_error(self, tmp_path, capsys):
        # tv2pixel has no full-potential gradient, so ula cannot run on it
        ov = ["scenario=tv2pixel", "sampler=ula"]
        assert main(["validate", *ov]) == 2
        assert main(["run", *ov, "n_chains=2", "n_steps=5", f"output_dir={tmp_path}/out"]) == 2
        assert "f_grad" in capsys.readouterr().err


class TestSetUpAppliesNoOperator:
    """The step-size contract reads the bound each map carries, so no norm
    is computed by applying K while a run or a validate is set up."""

    def test_validate_and_prepare_run_apply_no_operator(self, monkeypatch):
        calls = []

        def counted(name, f):
            def call(a):
                calls.append(name)
                return f(a)
            return call

        def counting_grad2d(width, height):
            K = grad2d(width, height)
            K.apply, K.adjoint = counted("apply", K.apply), counted("adjoint", K.adjoint)
            return K

        monkeypatch.setattr(models, "grad2d", counting_grad2d)
        assert main(["validate", "scenario=tv_image", "width=128", "height=128"]) == 0
        target = models.tv_image_target(np.zeros(128 * 128), 0.25, 3.0, 128, 128)
        run = prepare_run(target, SamplerParams(tau=0.003, lam=10.0), n_chains=2, n_steps=1)
        assert calls == []
        run.drive()  # the first step: the counting map is the one that runs
        assert {"apply", "adjoint"} <= set(calls)


# Largest "moderate" value of each integer field in the generated configs.
_INT_CAPS = {"n_chains": 3, "n_steps": 5, "burn_in": 5, "thinning": 3, "seed": 1000,
             "width": 4, "height": 4, "n_checkpoints": 5, "ref_samples": 3}
_FLOAT_FIELDS = [f.name for f in fields(ScenarioConfig) if f.type in ("float", float)]
# run can fail after sampling, where validate cannot see: these messages
_AFTER_SAMPLING = re.compile(r"regime violation: (chain \d+ (of point \d+ )?diverged"
                             r"|the moments of block '[xy]' are not finite)")


def _value(name):
    """A moderate finite value of a numeric config field, 0, a negative
    value, NaN or an infinity, as its command-line text."""
    if name in _INT_CAPS:
        moderate, negative = st.integers(1, _INT_CAPS[name]), st.integers(-3, -1)
    else:
        moderate, negative = st.floats(1e-3, 1e2), st.floats(-1e2, -1e-3)
    return st.one_of(moderate.map(str), st.just("0"), negative.map(str),
                     st.sampled_from(["nan", "inf", "-inf"]))


@st.composite
def _configs(draw):
    """Overrides over every scenario and sampler at tiny sizes, with up to
    three numeric fields (sizes and seed among them) set
    to a drawn value."""
    args = {"scenario": draw(st.sampled_from(ScenarioConfig._SCENARIOS)),
            "sampler": draw(st.sampled_from(ScenarioConfig._SAMPLERS)),
            "sweep_kind": draw(st.sampled_from(["lambda", "tau"])),
            "sweep_values": ",".join(draw(st.lists(_value("lam"), min_size=1, max_size=3)))}
    for name in ("width", "height", "n_steps", "n_chains", "ref_samples"):
        args[name] = str(draw(st.integers(1, _INT_CAPS[name])))
    for name in draw(st.lists(st.sampled_from([*_INT_CAPS, *_FLOAT_FIELDS]), max_size=3,
                              unique=True)):
        args[name] = draw(_value(name))
    return [f"{k}={v}" for k, v in args.items()]


class TestValidateAgreesWithRun:
    @settings(max_examples=150, deadline=None)
    @given(_configs())
    @example(["scenario=gauss1d", "seed=-1", "n_chains=2", "n_steps=4"])
    def test_one_exit_code_and_no_directory_after_an_error(self, args):
        command = "sweep" if "scenario=sweep" in args else "run"
        codes, errs = {}, {}
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            for name in ("validate", command):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                        np.errstate(all="ignore"):
                    codes[name] = main([name, *args, f"output_dir={out}"])
                errs[name] = err.getvalue()
            if codes["validate"] != codes[command]:
                # a chain that diverges, or moments that overflow, inside the
                # step-size contract: only sampling shows it
                assert codes == {"validate": 0, command: 3}, (args, errs)
                assert _AFTER_SAMPLING.search(errs[command]), (args, errs)
                assert not (out / "manifest.json").exists()
            elif codes[command] != 0:
                assert not out.exists(), (args, errs)


class TestGeneralNoise:
    """ulpda_general places the outer variant's noise, (sqrt(2) I, 0) and 0,
    through blocks that are LinearMaps on a joint draw of d + m values."""

    def test_run_writes_its_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "scenario=tv_image", "sampler=ulpda_general", "width=16",
                     "height=16", "n_chains=4", "n_steps=40", "burn_in=20",
                     f"output_dir={out}"]) == 0
        for name in ("mmse.pgm", "variance_log10.pgm", "noisy.pgm", "summary.csv", "manifest.json"):
            assert (out / name).exists()
        assert json.loads((out / "manifest.json").read_text())["sampler"] == "ulpda_general"

    def test_validate_memory_is_that_of_the_outer_variant(self, capsys):
        # dense (d, d + m) and (m, d + m) blocks would take 72 MB at 32x32
        def peak(sampler):
            tracemalloc.start()
            try:
                assert main(["validate", "scenario=tv_image", "width=32", "height=32",
                             f"sampler={sampler}"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(["validate", "scenario=tv_image", "width=32", "height=32"])  # untraced warm-up
        outer, general = peak("ulpda_outer"), peak("ulpda_general")
        assert abs(general - outer) <= 1 << 20, (outer, general)

    @pytest.mark.parametrize("block, message", [
        (lambda apply, adjoint, dim_in, dim_out, bound: LinearMap(apply, adjoint, dim_in, 1, bound),
         "must map one noise dimension"),
        (lambda apply, adjoint, dim_in, dim_out, bound: np.zeros((dim_out, dim_in)),
         "must be LinearMaps"),
    ], ids=["one_row", "dense"])
    def test_malformed_blocks_are_config_errors(self, block, message, monkeypatch, tmp_path,
                                                capsys):
        monkeypatch.setattr(cli, "LinearMap", block)
        ov = ["scenario=tv_image", "sampler=ulpda_general", "width=4", "height=4"]
        assert main(["validate", *ov]) == 2
        assert main(["run", *ov, "n_chains=2", "n_steps=5", f"output_dir={tmp_path}/out"]) == 2
        err = capsys.readouterr().err
        assert err.count(message) == 2, err


class TestInputImageIsReadOnce:
    def test_manifest_hashes_the_parsed_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "in.pgm"
        save_image_pgm(path, synthetic_phantom(6, 5))
        raw = path.read_bytes()
        reads = []
        read_bytes = Path.read_bytes

        def counting_read(self):
            reads.append(self)
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", counting_read)
        cfg = parse_config(None, overrides=[
            "scenario=tv_image", f"input_image={path}", "n_chains=2", "n_steps=3",
            f"output_dir={tmp_path}/out",
        ])
        run_scenario(cfg)
        assert reads == [path]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["content_hash"] == _content_hash(cfg, raw)
        np.testing.assert_array_equal(parse_pgm(raw).intensities, load_image_pgm(path).intensities)


def test_cli_import_does_not_load_scipy():
    # scipy costs every CLI process about 0.6 s and 45 MB; only w2_exact needs it
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, pdlangevin.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_tv2pixel_validate_does_not_load_scipy():
    # only a run draws from the exact posterior; validate's setup_s stays light
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, contextlib, io, pdlangevin.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['validate', 'scenario=tv2pixel', 'n_chains=10000'])\n"
            "print(code, 'scipy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "0 False"


def test_cli_import_does_not_load_concurrent_futures():
    # only the runs that solve an exact assignment (or draw noise on a
    # worker) pay for the thread-pool module, about 0.6 MB of RSS
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, pdlangevin.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


class TestBenchContract:
    def test_every_workload_validates(self, monkeypatch):
        # a stricter config check must not quietly fail a benchmark workload
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        assert len(module.WORKLOADS) == 4
        failed = [name for name, w in module.WORKLOADS.items() if main(w.validate_args()) != 0]
        assert failed == []
