"""The benchmark's tracer patches quasirbf names from outside the package
(perfbench/tracing.py). A rename or an unused name would break
`perfbench/run.py --trace 1`; these tests catch that in the test suite."""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from quasirbf import bkm, cli, pipeline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_instrument_then_restore(tracing):
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        patched = list(tracer._undo)
        assert len(patched) > 20
        for owner, attr, orig in patched:
            assert _current(owner, attr) is not orig, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, orig in patched:
        assert _current(owner, attr) is orig, (owner, attr)


def test_patched_names_are_the_ones_called(tmp_path, tracing):
    """One traced `quasirbf solve` reaches every hot layer the tracer names. Only
    assembly calls bessel_i0 and kernel_value, so the factor cache starts cold, and
    only a miss of u_p's cache calls extend_source and solve_particular."""
    bkm._cached_factor.cache_clear()
    pipeline._cached_particular.cache_clear()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"preset": "convdiff_disc", "knots": 16, "grid": 32}))
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.root("test.solve", lambda: cli.run_cli(
                ["solve", "--config", str(config)]))
    finally:
        tracer.restore()
    assert code == cli.EXIT_OK
    calls = {name: stat[0] for name, stat in tracer.stats.items()}
    for name in ("specfun.bessel_i0", "operators.kernel_value",
                 "operators.apply_operator_fd",
                 "particular.extend_source", "particular.solve_particular",
                 "particular.eval_particular", "bkm.assemble", "bkm.solve_dense",
                 "bkm.eval_homogeneous", "pipeline.run_pipeline",
                 "pipeline.boundary_residual", "pipeline.error_metrics",
                 "pipeline.residual_check", "pipeline.SolutionField.evaluate",
                 "presets.source", "presets.exact"):
        assert calls.get(name, 0) > 0, name


@pytest.mark.parametrize("operator, names", [
    ({"type": "helmholtz", "k": 2.0}, ("specfun.bessel_j0", "specfun.bessel_j1")),
    ({"type": "modified_helmholtz", "k": 1.0}, ("specfun.bessel_i0", "specfun.bessel_i1")),
    ({"type": "convection_diffusion", "diffusivity": 1.0, "velocity": [2.0, 0.0], "reaction": 1.0},
     ("specfun.bessel_i0", "specfun.bessel_i1")),
], ids=["helmholtz", "modified_helmholtz", "convection_diffusion"])
def test_patched_bessel_names_are_the_ones_called(tmp_path, tracing, operator, names):
    """Assembly reaches the kernel's Z0 through kernel_value in a Dirichlet solve
    and its gradient's Z1 through kernel_gradient in a Neumann solve, each through
    the name the tracer patches in the operators module (u_h's evaluation runs on
    specfun.bessel_orders instead). The factor cache starts cold, so both solves
    assemble whatever ran before."""
    bkm._cached_factor.cache_clear()
    for bc_kind, z_name, kernel_name in (("dirichlet", names[0], "operators.kernel_value"),
                                         ("neumann", names[1], "operators.kernel_gradient")):
        config = tmp_path / f"{bc_kind}.json"
        config.write_text(json.dumps({"problem": {
            "operator": operator, "domain": {"type": "circle", "radius": 1.0},
            "bc_kind": bc_kind}, "knots": 16}))
        tracer = tracing.Tracer()
        try:
            tracing.instrument(tracer)
            with contextlib.redirect_stdout(io.StringIO()):
                code = tracer.root("test.solve", lambda: cli.run_cli(
                    ["solve", "--config", str(config)]))
        finally:
            tracer.restore()
        assert code == cli.EXIT_OK, bc_kind
        calls = {name: stat[0] for name, stat in tracer.stats.items()}
        for name in (z_name, kernel_name):
            assert calls.get(name, 0) > 0, (bc_kind, name)
