import argparse
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasirbf
import quasirbf.cli
import quasirbf.pipeline
from quasirbf.bkm import KernelMode, trefftz_terms
from quasirbf.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, load_config,
                          parse_config, run_cli)
from quasirbf.errors import ConfigurationError, ResonantBoxError, SingularMatrixError
from quasirbf.geometry import Circle, Star, StarDomain
from quasirbf.operators import (ConvectionDiffusion, Helmholtz, ModifiedHelmholtz,
                                Poisson, kernel_gradient, kernel_value)
from quasirbf.particular import SpectralField
from quasirbf.pipeline import (CSV_HEADER, ConvergenceRow, InlineProblem,
                               RunConfig, boundary_residual,
                               convergence_study, error_metrics,
                               evaluation_points, residual_check,
                               rows_to_csv, run_pipeline)
from quasirbf.presets import (all_presets, check_self_consistency, get_preset,
                              preset_names)


class TestPresets:
    def test_registry_contents(self):
        names = preset_names()
        assert len(names) >= 6
        for required in ("helmholtz_disc", "helmholtz_star", "modhelm_source",
                         "poisson_disc", "convdiff_disc"):
            assert required in names

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            get_preset("no_such_problem")

    def test_all_presets_self_consistent(self):
        for preset in all_presets():
            mismatch = check_self_consistency(preset)
            assert math.isnan(mismatch) or mismatch <= 1e-4, preset.name


class TestRunConfig:
    def test_requires_exactly_one_problem_source(self):
        with pytest.raises(ConfigurationError):
            RunConfig()
        with pytest.raises(ConfigurationError):
            RunConfig(preset="helmholtz_disc",
                      problem=InlineProblem(operator=Helmholtz(1.0),
                                            domain=StarDomain(Circle(1.0))))

    def test_bad_values(self):
        with pytest.raises(ConfigurationError):
            RunConfig(preset="helmholtz_disc", knots=0)
        with pytest.raises(ConfigurationError):
            RunConfig(preset="helmholtz_disc", strategy="qr")
        with pytest.raises(ConfigurationError):
            RunConfig(preset="helmholtz_disc", box_margin=-1.0)
        # checked at construction even though this problem has no source
        with pytest.raises(ConfigurationError, match="grid"):
            RunConfig(preset="helmholtz_disc", grid=100)
        with pytest.raises(ConfigurationError, match="taper"):
            RunConfig(preset="helmholtz_disc", taper=0.7)
        with pytest.raises(ConfigurationError, match="trefftz_order"):
            RunConfig(preset="helmholtz_disc", trefftz_order=-3)


# Neumann data on the kernel presets, TSVD at N = 32: each bound is 10x the
# max_err measured when the test was written. Poisson is left out: the
# constant column of its Neumann Trefftz matrix is zero, so the additive
# constant of u needs a stated rule first (ROADMAP item 5).
NEUMANN_MAX_ERR = {"helmholtz_disc": 4.08e-8, "helmholtz_star": 4.84e-6,
                   "modhelm_source": 5.65e-6, "convdiff_disc": 1.23e-5}


class TestRunPipeline:
    def test_homogeneous_problem_skips_particular(self):
        result = run_pipeline(RunConfig(preset="helmholtz_disc", knots=16))
        assert result.field.particular is None
        assert result.timings.particular_ms == 0.0

    def test_source_problem_builds_particular(self):
        result = run_pipeline(RunConfig(preset="modhelm_source", knots=16, grid=64))
        assert result.field.particular is not None

    def test_margin_too_small_for_taper(self):
        with pytest.raises(ConfigurationError, match="particular stage"):
            run_pipeline(RunConfig(preset="modhelm_source", knots=16, grid=64,
                                   box_margin=0.0))

    def test_resonant_box_detected(self):
        with pytest.raises(ResonantBoxError):
            run_pipeline(RunConfig(preset="helmholtz_resonant", knots=16,
                                   grid=64, box_margin=0.5))

    def test_run_pipeline_accuracy(self):
        result = run_pipeline(RunConfig(preset="helmholtz_disc", knots=32))
        assert abs(result.field.evaluate(0.3, 0.4) - math.sin(0.6)) <= 1e-6
        assert result.diagnostics.condition_estimate > 1.0

    @pytest.mark.parametrize("name", ["modhelm_source", "convdiff_disc", "poisson_disc"])
    def test_full_coefficients_never_built(self, monkeypatch, name):
        # the pipeline works from the half spectrum alone
        def refuse(sf):
            raise AssertionError("SpectralField.coeffs was materialised")
        monkeypatch.setattr(SpectralField, "coeffs", property(refuse))
        cfg = RunConfig(preset=name, knots=32, grid=128)
        result = run_pipeline(cfg)
        result.field.gradient(0.1, 0.2)
        error_metrics(result.field.evaluate, result.problem.exact, evaluation_points(cfg))
        boundary_residual(result)
        with pytest.raises(AssertionError, match="materialised"):
            result.field.particular.coeffs

    def test_solve_forms_no_n2_array(self, tmp_path, monkeypatch, capsys):
        # at grid 512 one n x n float array is 2 MiB; the dense solve peaked at 7.72 MiB
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"preset": "modhelm_source", "knots": 48, "grid": 512}))
        grids, results = [], []
        extend, run = quasirbf.pipeline.extend_source, quasirbf.cli.run_pipeline
        monkeypatch.setattr(quasirbf.pipeline, "extend_source",
                            lambda *args: grids.append(extend(*args)) or grids[-1])
        monkeypatch.setattr(quasirbf.cli, "run_pipeline",
                            lambda config: results.append(run(config)) or results[-1])
        argv = ["solve", "--config", str(config)]
        assert run_cli(argv) == EXIT_OK  # first use: imports and lazy module state
        tracemalloc.start()
        try:
            assert run_cli(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 3 * 2 ** 20
        field = results[-1].field.particular
        assert not {"half", "coeffs", "real_matrix"} & field.__dict__.keys()
        assert field._factor is not None
        assert "samples" not in grids[-1].__dict__

    def test_poisson_uses_trefftz(self):
        result = run_pipeline(RunConfig(preset="poisson_disc", knots=48, grid=128))
        assert result.field.homogeneous.mode.__class__.__name__ == "TrefftzMode"

    @pytest.mark.parametrize("kind", ["Dirichlet", "robin"])
    def test_unknown_bc_kind_rejected(self, kind):
        # any kind other than "dirichlet" used to solve a zero-flux Neumann
        # problem and return u = 0
        problem = InlineProblem(Helmholtz(2.0), StarDomain(Circle(1.0)), bc_kind=kind)
        with pytest.raises(ConfigurationError, match="assembly stage: bc_kind"):
            run_pipeline(RunConfig(problem=problem))

    @pytest.mark.parametrize("name", sorted(NEUMANN_MAX_ERR))
    def test_neumann_end_to_end(self, monkeypatch, name):
        preset = dataclasses.replace(get_preset(name), bc_kind="neumann")
        monkeypatch.setattr(quasirbf.pipeline, "get_preset", lambda _: preset)
        cfg = RunConfig(preset=name, knots=32, strategy="tsvd")
        result = run_pipeline(cfg)
        assert result.problem.bc_kind == "neumann"
        max_err, _ = error_metrics(result.field.evaluate, result.problem.exact,
                                   evaluation_points(cfg))
        assert max_err <= NEUMANN_MAX_ERR[name]


class TestMetrics:
    def test_error_metrics_exact_match(self):
        pts = [(0.1, 0.2), (0.3, -0.4)]
        f = lambda x, y: x + y
        assert error_metrics(f, f, pts) == (0.0, 0.0)

    def test_error_metrics_relative_scaling(self):
        pts = [(1.0, 0.0)]
        max_err, rms_err = error_metrics(lambda x, y: 11.0, lambda x, y: 10.0, pts)
        assert abs(max_err - 0.1) <= 1e-15
        assert abs(rms_err - 0.1) <= 1e-15

    def test_error_metrics_zero_exact_rejected(self):
        with pytest.raises(ConfigurationError):
            error_metrics(lambda x, y: 1.0, lambda x, y: 0.0, [(0.1, 0.2)])

    def test_error_metrics_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            error_metrics(lambda x, y: 1.0, lambda x, y: 1.0, [])

    def test_residual_check_known_field(self):
        result = run_pipeline(RunConfig(preset="helmholtz_disc", knots=32))
        pts = evaluation_points(result.config)[:10]
        r = residual_check(result.field, result.problem.operator, None, pts, 1e-3)
        assert r <= 1e-4

    def test_boundary_residual_small_when_converged(self):
        result = run_pipeline(RunConfig(preset="helmholtz_disc", knots=32))
        assert boundary_residual(result) <= 1e-6


class TestConvergenceStudy:
    def test_requires_increasing_counts(self):
        cfg = RunConfig(preset="helmholtz_disc")
        with pytest.raises(ConfigurationError):
            convergence_study(cfg, [16, 8])
        with pytest.raises(ConfigurationError):
            convergence_study(cfg, [8, 8])

    def test_rows_and_condition_growth(self):
        cfg = RunConfig(preset="helmholtz_disc")
        rows = convergence_study(cfg, [8, 16, 32])
        assert [r.knots for r in rows] == [8, 16, 32]
        conds = [r.condition_estimate for r in rows]
        assert conds[0] <= conds[1] <= conds[2]
        errs = [r.max_err for r in rows]
        assert errs[2] < errs[0]
        assert all(r.error is None for r in rows)

    def test_failed_run_yields_sentinel_row(self):
        cfg = RunConfig(preset="helmholtz_resonant", grid=64, box_margin=0.5)
        rows = convergence_study(cfg, [8, 16])
        for row in rows:
            assert row.error is not None
            assert math.isnan(row.max_err)

    def test_configuration_error_raises(self):
        with pytest.raises(ConfigurationError, match="Trefftz basis needs"):
            convergence_study(RunConfig(preset="poisson_disc"), [8, 32])

    def test_kernel_overflow_yields_sentinel_row(self):
        # I0(400 r) overflows double precision on a unit disc
        problem = InlineProblem(ModifiedHelmholtz(400.0), StarDomain(Circle(1.0)))
        rows = convergence_study(RunConfig(problem=problem), [8, 16])
        for row in rows:
            assert "overflows" in row.error
            assert math.isnan(row.max_err)

    def test_csv_shape_and_determinism(self):
        cfg = RunConfig(preset="helmholtz_disc")
        rows = convergence_study(cfg, [8, 16])
        csv1 = rows_to_csv(rows)
        csv2 = rows_to_csv(convergence_study(cfg, [8, 16]))
        lines = csv1.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert all(len(line.split(",")) == 8 for line in lines)
        assert csv1 == csv2

    def test_csv_nan_cells(self):
        row = ConvergenceRow(knots=8, max_err=float("nan"), rms_err=float("nan"),
                             boundary_residual=float("nan"),
                             condition_estimate=float("nan"),
                             assemble_ms=float("nan"), solve_ms=float("nan"),
                             particular_ms=float("nan"), error="boom")
        line = rows_to_csv([row]).strip().split("\n")[1]
        assert line == "8,nan,nan,nan,nan,nan,nan,nan"


class TestConfigParsing:
    def test_minimal_preset_config(self):
        cfg = parse_config({"preset": "helmholtz_disc", "knots": 16})
        assert cfg.preset == "helmholtz_disc"
        assert cfg.knots == 16

    def test_inline_problem_config(self):
        cfg = parse_config({
            "problem": {
                "operator": {"type": "modified_helmholtz", "k": 1.5},
                "domain": {"type": "circle", "radius": 1.0},
                "bc_kind": "dirichlet",
            },
            "knots": 12,
        })
        assert isinstance(cfg.problem.operator, ModifiedHelmholtz)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigurationError, match="grdi"):
            parse_config({"preset": "helmholtz_disc", "grdi": 64})

    def test_unknown_operator_type(self):
        with pytest.raises(ConfigurationError):
            parse_config({"problem": {
                "operator": {"type": "biharmonic"},
                "domain": {"type": "circle", "radius": 1.0}}})

    def test_unknown_domain_key(self):
        with pytest.raises(ConfigurationError, match="radius2"):
            parse_config({"problem": {
                "operator": {"type": "helmholtz", "k": 2.0},
                "domain": {"type": "circle", "radius": 1.0, "radius2": 2.0}}})

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_config("/no/such/config.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="valid JSON"):
            load_config(str(path))


class TestCli:
    def test_presets_listing(self, capsys):
        assert run_cli(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "helmholtz_disc" in out
        assert "poisson_disc" in out

    def test_solve_reports_metrics(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"preset": "helmholtz_disc", "knots": 24}))
        assert run_cli(["solve", "--config", str(config)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["knots"] == 24
        assert report["max_err"] <= 1e-4
        assert report["boundary_residual"] <= 1e-4

    def test_solve_missing_config_exits_2(self, capsys):
        assert run_cli(["solve", "--config", "/no/such.json"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_solve_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"preset": "helmholtz_disc", "knotz": 8}))
        assert run_cli(["solve", "--config", str(config)]) == EXIT_CONFIG
        assert "knotz" in capsys.readouterr().err

    def test_resonant_config_exits_3(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"preset": "helmholtz_resonant",
                                      "box_margin": 0.5, "grid": 64}))
        assert run_cli(["solve", "--config", str(config)]) == EXIT_NUMERICAL
        assert "resonant" in capsys.readouterr().err

    @pytest.mark.parametrize("operator", [
        {"type": "modified_helmholtz", "k": 400},
        {"type": "convection_diffusion", "diffusivity": 0.001, "velocity": [1, 0]},
    ], ids=["modhelm-k400", "convdiff-D0.001"])
    def test_kernel_overflow_exits_3(self, tmp_path, capsys, operator):
        # the kernel's I0(mu r) overflows double precision at mu r > 700;
        # this used to escape as a bare OverflowError and exit 1
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"problem": {"operator": operator, "domain": {
            "type": "circle", "radius": 1}}, "knots": 16}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # exp(-v.d / 2D) overflows first
            assert run_cli(["solve", "--config", str(config)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure" in err and "bessel_i0 overflows" in err

    @pytest.mark.parametrize("config, named", [
        ({"preset": "helmholtz_disc", "knots": "abc"}, "knots"),
        ({"preset": "helmholtz_disc", "svd_cutoff": 1.5}, "svd_cutoff"),
        ({"preset": "helmholtz_disc", "svd_cutoff": math.nan}, "svd_cutoff"),
        ({"preset": "poisson_disc", "trefftz_order": -1}, "order"),
        ({"problem": {"operator": {"type": "helmholtz"},
                      "domain": {"type": "circle", "radius": 1.0}}}, "'k'"),
        ({"problem": {"operator": {"type": "helmholtz", "k": 2.0},
                      "domain": {"type": "circle"}}}, "'radius'"),
        ({"preset": "helmholtz_disc", "grid": 100}, "grid"),
        ({"preset": "helmholtz_disc", "taper": 0.7}, "taper"),
        ({"preset": "helmholtz_disc", "knots": 2.5}, "knots"),
        ({"preset": "helmholtz_disc", "knots": True}, "knots"),
        ({"preset": "helmholtz_disc", "trefftz_order": -3}, "trefftz_order"),
        ({"preset": "helmholtz_disc", "rings": 1.7}, "rings"),
        ({"preset": "helmholtz_disc", "box_margin": math.nan}, "box_margin"),
        ({"preset": "helmholtz_disc", "box_margin": math.inf}, "box_margin"),
    ], ids=["knots-abc", "cutoff-1.5", "cutoff-nan", "trefftz-order-neg",
            "helmholtz-no-k", "circle-no-radius", "grid-100-no-source",
            "taper-0.7-no-source", "knots-2.5", "knots-true",
            "trefftz-order-neg-no-poisson", "rings-1.7", "box-margin-nan",
            "box-margin-inf"])
    def test_malformed_config_value_exits_2(self, tmp_path, capsys, config, named):
        # each of these used to exit 1 with a traceback, or 0: the cutoffs with
        # u_h == 0, the last six with the value truncated or never checked
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli(["solve", "--config", str(path)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    _DISC = {"type": "circle", "radius": 1.0}
    _HELMHOLTZ = {"type": "helmholtz", "k": 2.0}

    @pytest.mark.parametrize("config, named", [
        ({"preset": "helmholtz_disc", "rings": 0}, "rings"),
        ({"preset": "helmholtz_disc", "per_ring": 0}, "per_ring"),
        ({"problem": {"operator": _HELMHOLTZ, "domain": _DISC, "bc_kind": "robin"}}, "'robin'"),
        ({"problem": {"operator": {"type": "modified_helmholtz", "k": -1}, "domain": _DISC}},
         "got -1.0"),
        ({"problem": {"operator": {"type": "convection_diffusion", "diffusivity": 1.0,
                                   "velocity": [1, 2, 3]}, "domain": _DISC}}, "velocity"),
        ({"problem": {"operator": {"type": "convection_diffusion", "diffusivity": 1.0,
                                   "velocity": [1, 0], "reaction": -1}, "domain": _DISC}},
         "reaction"),
        ({"problem": {"operator": _HELMHOLTZ, "domain": {
            "type": "star", "base": 1.0, "amplitude": 0.2, "lobes": 0}}}, "lobe count"),
        ({"problem": {"operator": _HELMHOLTZ, "domain": {
            "type": "star", "base": 0, "amplitude": 0.2, "lobes": 5}}}, "base radius"),
        ({"problem": {"operator": _HELMHOLTZ, "domain": {"type": "ellipse", "a": 0, "b": 1}}},
         "a=0.0"),
        ({"problem": {"operator": _HELMHOLTZ, "domain": {
            "type": "circle", "radius": 1, "center": [0, 0, 0]}}}, "shape (3,)"),
        ({"problem": {"operator": _HELMHOLTZ, "domain": {
            "type": "circle", "radius": 1, "center": [0, math.nan]}}}, "center"),
        ([1, 2], "config root"),
        ({"problem": [1]}, "'problem'"),
        ({"problem": {"operator": {"k": 2.0}, "domain": _DISC}}, "'type'"),
    ], ids=["rings-0", "per-ring-0", "bc-kind-robin", "modhelm-k-neg", "velocity-3d",
            "reaction-neg", "star-lobes-0", "star-base-0", "ellipse-a-0", "center-3d",
            "center-nan", "root-list", "problem-list", "operator-no-type"])
    def test_rejected_config_structure_exits_2(self, tmp_path, capsys, config, named):
        # checks of the config's values and shape, each exiting 2 with the
        # offending key or value in the message
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli(["solve", "--config", str(path)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    def test_converge_writes_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = run_cli(["converge", "--preset", "helmholtz_disc",
                        "--knots", "8,16,32", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_box_margin_overflowing_the_box_exits_2(self, tmp_path, capsys):
        # the side of the box is inf: it used to print numpy RuntimeWarnings
        # and then blame the source samples
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "modhelm_source", "box_margin": 1e308}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["solve", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "box side non-finite" in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_converge_configuration_error_exits_2(self, capsys):
        # a Trefftz order past (N - 1)/2 is a configuration error, not a NaN row
        assert run_cli(["converge", "--preset", "poisson_disc", "--knots", "8,32"]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "Trefftz basis needs" in err

    def test_converge_bad_knot_list_exits_2(self, capsys):
        assert run_cli(["converge", "--preset", "helmholtz_disc",
                        "--knots", "8,x"]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["solve", "converge"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        # each used to escape as a FileNotFoundError traceback and exit 1
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"preset": "helmholtz_disc", "knots": 16}))
        output = tmp_path / "no" / "such" / "out.txt"
        argv = (["solve", "--config", str(config)] if command == "solve"
                else ["converge", "--preset", "helmholtz_disc", "--knots", "8,16"])
        assert run_cli(argv + ["--output", str(output)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and f"cannot write output file {str(output)!r}" in err
        assert not output.parent.exists()

    @pytest.mark.parametrize("command", ["solve", "converge"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_output_fails_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                     command, target):
        # the output path is checked before the solve or sweep, which raise
        # here if called, with the message opening the file would give
        def never(*args):
            raise AssertionError("the work ran before the output was checked")
        monkeypatch.setattr(quasirbf.cli, "run_pipeline", never)
        monkeypatch.setattr(quasirbf.cli, "convergence_study", never)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"preset": "helmholtz_disc", "knots": 16}))
        output = tmp_path / "no" / "out.txt" if target == "missing-dir" else tmp_path
        argv = (["solve", "--config", str(config)] if command == "solve"
                else ["converge", "--preset", "helmholtz_disc", "--knots", "8,16"])
        with pytest.raises(OSError) as opening:
            open(output, "w")
        assert run_cli(argv + ["--output", str(output)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err == (f"configuration error: cannot write output file "
                                     f"{str(output)!r}: {opening.value}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_numerical_failure_leaves_the_output_untouched(self, tmp_path, monkeypatch):
        # the early check neither creates nor truncates the output file
        def fail(config):
            raise SingularMatrixError("collocation matrix is exactly singular")
        monkeypatch.setattr(quasirbf.cli, "run_pipeline", fail)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"preset": "helmholtz_disc", "knots": 16}))
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_text("earlier report\n")
        for output in (fresh, kept):
            assert run_cli(["solve", "--config", str(config),
                            "--output", str(output)]) == EXIT_NUMERICAL
        assert not fresh.exists() and kept.read_text() == "earlier report\n"

    def test_validate_passes(self, capsys):
        assert run_cli(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_kernel_product_overflow_exits_3(self, tmp_path):
        # exp(-v.d / 2D) and I0(mu r) are each finite here (mu r <= 667), but
        # their product is not; the SVD of the infinite matrix used to fail
        # with a LinAlgError traceback after a bare RuntimeWarning
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"problem": {"operator": {
            "type": "convection_diffusion", "diffusivity": 0.0015, "velocity": [1, 0]},
            "domain": {"type": "circle", "radius": 1}}, "knots": 16}))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(quasirbf.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "quasirbf.cli", "solve", "--config",
                               str(config)], env=env, capture_output=True, text=True)
        assert done.returncode == EXIT_NUMERICAL
        assert "numerical failure" in done.stderr and "overflows double precision" in done.stderr
        assert "RuntimeWarning" not in done.stderr and "Traceback" not in done.stderr

    def test_parser_built_once(self, monkeypatch, capsys):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        assert run_cli(["presets"]) == EXIT_OK
        assert run_cli(["presets"]) == EXIT_OK
        capsys.readouterr()
        assert len(parsers) == 2 and parsers[0] is parsers[1]


# Reordered float64 sums over N <= 64 terms differ by at most ~N eps of the
# sum of the terms' magnitudes; 1e-12 (about 4500 eps) bounds that with room.
BATCH_TOL = 1e-12


def _reference_value_and_gradient(field, x1, x2):
    """Per-point loop: u and grad u at one point as sums of per-term
    scalar calls, with the sum of the terms' magnitudes as the scale."""
    sol = field.homogeneous
    if isinstance(sol.mode, KernelMode):
        terms = [(alpha * kernel_value(sol.mode.op, (x1 - c[0], x2 - c[1])),
                  alpha * kernel_gradient(sol.mode.op, (x1 - c[0], x2 - c[1])))
                 for alpha, c in zip(sol.coefficients, sol.centers)]
    else:
        values, grads = (trefftz_terms(sol.mode.order, sol.mode.center, sol.mode.scale,
                                       x1, x2, gradient) for gradient in (False, True))
        terms = [(a * v, a * g) for a, v, g in zip(sol.coefficients, values, grads)]
    value = sum(t[0] for t in terms)
    grad = sum(t[1] for t in terms)
    scale_v = sum(abs(t[0]) for t in terms)
    scale_g = sum(np.abs(t[1]).max() for t in terms)
    sf = field.particular
    if sf is not None:
        side = float(sf.box.side[0])
        w = 2.0 * np.pi * (np.fft.fftfreq(sf.n) * sf.n) / side
        ex = np.exp(1j * w * (x1 - sf.box.min_corner[0]))
        ey = np.exp(1j * w * (x2 - sf.box.min_corner[1]))
        v = float(np.real(ex @ sf.coeffs @ ey))
        g = np.array([np.real((1j * w * ex) @ sf.coeffs @ ey),
                      np.real(ex @ sf.coeffs @ (1j * w * ey))])
        if sf.compensator is not None:
            v += sf.compensator.value(x1, x2)
            g = g + sf.compensator.gradient(x1, x2)
        value += v
        grad = grad + g
        scale_v += float(np.abs(sf.coeffs).sum())
        scale_g += float((np.abs(sf.coeffs) * np.abs(w)[:, None]).sum()
                         + (np.abs(sf.coeffs) * np.abs(w)[None, :]).sum())
    return value, grad, scale_v, scale_g


class TestBatchedEvaluation:
    """SolutionField.evaluate/gradient on arrays against the per-point loop."""

    @pytest.fixture(scope="class", params=["helmholtz_disc", "convdiff_disc",
                                           "modhelm_source", "poisson_disc"])
    def field(self, request):
        return run_pipeline(RunConfig(preset=request.param, knots=32, grid=64)).field

    def _check(self, field, pts):
        pts = np.asarray(pts, dtype=float)
        values = field.evaluate(pts[:, 0], pts[:, 1])
        grads = field.gradient(pts[:, 0], pts[:, 1])
        assert values.shape == (len(pts),) and grads.shape == (len(pts), 2)
        for (x1, x2), v, g in zip(pts, values, grads):
            want_v, want_g, scale_v, scale_g = _reference_value_and_gradient(field, x1, x2)
            assert abs(v - want_v) <= BATCH_TOL * scale_v
            assert np.abs(g - want_g).max() <= BATCH_TOL * scale_g
            assert abs(field.evaluate(x1, x2) - v) <= BATCH_TOL * scale_v
            assert np.abs(field.gradient(x1, x2) - g).max() <= BATCH_TOL * scale_g

    def test_interior_points(self, field):
        rng = np.random.default_rng(77)
        self._check(field, rng.uniform(-0.7, 0.7, size=(30, 2)))

    def test_many_blocks(self, field):
        # 1200 points span several blocks of BLOCK_PAIRS point-basis pairs
        # (32 centres or 64 modes per point); check both ends of every block
        pts = np.random.default_rng(78).uniform(-0.7, 0.7, size=(1200, 2))
        values = field.evaluate(pts[:, 0], pts[:, 1])
        grads = field.gradient(pts[:, 0], pts[:, 1])
        for i in [i for i in range(1200) if i % 64 in (0, 63)]:
            want_v, want_g, scale_v, scale_g = _reference_value_and_gradient(field, *pts[i])
            assert abs(values[i] - want_v) <= BATCH_TOL * scale_v
            assert np.abs(grads[i] - want_g).max() <= BATCH_TOL * scale_g

    def test_grid_shape_preserved(self, field):
        x1, x2 = np.meshgrid(np.linspace(-0.5, 0.5, 3), np.linspace(-0.4, 0.4, 4))
        values = field.evaluate(x1, x2)
        grads = field.gradient(x1, x2)
        assert values.shape == (4, 3) and grads.shape == (4, 3, 2)
        flat = field.evaluate(x1.ravel(), x2.ravel())
        assert np.array_equal(values.ravel(), flat)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
                min_size=1, max_size=12))
def test_batch_matches_point_loop_property(points):
    field = _property_field()
    TestBatchedEvaluation()._check(field, points)


@functools.lru_cache(maxsize=1)
def _property_field():
    return run_pipeline(RunConfig(preset="convdiff_disc", knots=16, grid=32)).field


PROPERTY_OPS = [Helmholtz(2.0), ModifiedHelmholtz(1.0),
                ConvectionDiffusion(1.0, (2.0, 0.0), 0.0), Poisson()]


@functools.lru_cache(maxsize=None)
def _star_field(which: int, center):
    """u on the interior evaluation points of the five-lobed star about
    center, for L u = 0 (L = PROPERTY_OPS[which]) with u = 1 on the boundary,
    48 knots."""
    domain = StarDomain(Star(1.0, 0.2, 5), center)
    config = RunConfig(problem=InlineProblem(PROPERTY_OPS[which], domain), knots=48)
    return run_pipeline(config).field.evaluate(*evaluation_points(config).T)


@pytest.mark.parametrize("which", range(len(PROPERTY_OPS)),
                         ids=[type(op).__name__ for op in PROPERTY_OPS])
@settings(max_examples=8, deadline=None)
@given(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
def test_translation_leaves_the_field_unchanged(which, center):
    # every basis depends on x - centre, so the moved field is the same field
    # up to the rounding of the moved knots and points. The kernel matrices
    # have effective rank 15-19 of 48 and TSVD keeps singular values down to
    # 1e-12 of the largest, so that rounding reaches the field amplified: up
    # to 1e-8 / 4e-8 / 1e-9 / 2e-15 relative were measured for Helmholtz /
    # modified Helmholtz / conv-diff / Poisson, hence the bound 1e-6
    want = _star_field(which, (0.0, 0.0))
    got = _star_field(which, center)
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
