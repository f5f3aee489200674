"""Command-line entry points.

Subcommands:

    solve    --config FILE [--output FILE]   run one problem, report metrics
    converge --preset NAME --knots LIST [--output FILE]   knot sweep, CSV
    presets                                  list the built-in problems
    validate                                 preset self-consistency checks

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure (resonant embedding box, singular collocation matrix, kernel
overflow).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .errors import ConfigurationError, NumericalError
from .geometry import Circle, Ellipse, Star, StarDomain
from .operators import ConvectionDiffusion, Helmholtz, ModifiedHelmholtz, Poisson
from .pipeline import (InlineProblem, RunConfig, boundary_residual,
                       convergence_study, error_metrics, evaluation_points,
                       residual_check, rows_to_csv, run_pipeline)
from .presets import all_presets, check_self_consistency, get_preset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_CONFIG_KEYS = {"preset", "problem", "knots", "grid", "box_margin", "taper",
                "trefftz_order", "svd_cutoff", "strategy", "rings", "per_ring"}
_PROBLEM_KEYS = {"operator", "domain", "bc_kind"}


def _reject_unknown(obj: dict, allowed: set, what: str):
    for key in obj:
        if key not in allowed:
            raise ConfigurationError(f"unknown {what} key {key!r}")


def _read(obj: dict, key: str, conv, what: str, default=None):
    """conv(obj[key]), or conv(default) for an absent key; errors name the key."""
    if key not in obj and default is None:
        raise ConfigurationError(f"{what} needs key {key!r}")
    try:
        return conv(obj.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what} key {key!r}: bad value {obj[key]!r}") from exc


def _integer(value) -> int:
    """value as an int; booleans and non-integral numbers, which int() would
    take as 1, 0 or truncated, are rejected."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _floats(values) -> list:
    return [float(v) for v in values]


# config "type" -> (class, {key: (conversion, default; None if required)})
_OPERATORS = {
    "poisson": (Poisson, {}),
    "helmholtz": (Helmholtz, {"k": (float, None)}),
    "modified_helmholtz": (ModifiedHelmholtz, {"k": (float, None)}),
    "convection_diffusion": (ConvectionDiffusion, {
        "diffusivity": (float, None), "velocity": (_floats, None), "reaction": (float, 0.0)}),
}
_SHAPES = {
    "circle": (Circle, {"radius": (float, None)}),
    "ellipse": (Ellipse, {"a": (float, None), "b": (float, None)}),
    "star": (Star, {"base": (float, None), "amplitude": (float, None),
                    "lobes": (_integer, None)}),
}


def _parse_typed(obj, table: dict, what: str, extra: tuple = ()):
    """table[obj["type"]]'s class built from obj's keys; `extra` keys are
    allowed and left to the caller."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigurationError(f"{what} must be an object with a 'type' key")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigurationError(f"unknown {what} type {kind!r}")
    cls, keys = table[kind]
    _reject_unknown(obj, {"type", *keys, *extra}, what)
    return cls(**{key: _read(obj, key, conv, f"{kind} {what}", default)
                  for key, (conv, default) in keys.items()})


def _parse_domain(obj) -> StarDomain:
    shape = _parse_typed(obj, _SHAPES, "domain", extra=("center",))
    return StarDomain(shape, center=_read(obj, "center", _floats, f"{obj['type']} domain",
                                          (0.0, 0.0)))


def parse_config(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigurationError("config root must be a JSON object")
    _reject_unknown(obj, _CONFIG_KEYS, "config")
    kwargs = {}
    if "preset" in obj:
        kwargs["preset"] = str(obj["preset"])
    if "problem" in obj:
        prob = obj["problem"]
        if not isinstance(prob, dict):
            raise ConfigurationError("'problem' must be a JSON object")
        _reject_unknown(prob, _PROBLEM_KEYS, "problem")
        bc_kind = prob.get("bc_kind", "dirichlet")
        if bc_kind not in ("dirichlet", "neumann"):
            raise ConfigurationError(f"bc_kind must be 'dirichlet' or 'neumann', got {bc_kind!r}")
        kwargs["problem"] = InlineProblem(
            operator=_parse_typed(prob.get("operator", {}), _OPERATORS, "operator"),
            domain=_parse_domain(prob.get("domain", {})),
            bc_kind=bc_kind)
    for key, conv in [("knots", _integer), ("grid", _integer), ("box_margin", float),
                      ("taper", float), ("trefftz_order", _integer),
                      ("svd_cutoff", float), ("strategy", str),
                      ("rings", _integer), ("per_ring", _integer)]:
        if key in obj:
            kwargs[key] = _read(obj, key, conv, "config")
    return RunConfig(**kwargs)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return parse_config(obj)


def _emit(text: str, path: Optional[str]):
    """text to the file at path, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write output file {path!r}: {exc}") from exc


def _cmd_solve(args) -> int:
    config = load_config(args.config)
    result = run_pipeline(config)
    points = evaluation_points(config)
    report = {
        "preset": config.preset,
        "knots": config.knots,
        "strategy": result.diagnostics.strategy_used,
        "condition_estimate": result.diagnostics.condition_estimate,
        "effective_rank": result.diagnostics.effective_rank,
        "solver_residual_norm": result.diagnostics.residual_norm,
        "boundary_residual": boundary_residual(result),
    }
    problem = result.problem
    if problem.exact is not None:
        max_err, rms_err = error_metrics(result.field.evaluate, problem.exact, points)
        report["max_err"] = max_err
        report["rms_err"] = rms_err
    report["interior_residual"] = residual_check(
        result.field, problem.operator, problem.source, points[:50], h=1e-3)
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_converge(args) -> int:
    try:
        knot_counts = [int(part) for part in args.knots.split(",") if part]
    except ValueError as exc:
        raise ConfigurationError(f"bad --knots list {args.knots!r}") from exc
    config = RunConfig(preset=args.preset)
    rows = convergence_study(config, knot_counts)
    _emit(rows_to_csv(rows), args.output)
    if any(row.error for row in rows):
        for row in rows:
            if row.error:
                print(f"N={row.knots}: {row.error}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_presets(_args) -> int:
    for preset in all_presets():
        print(f"{preset.name:24s} {preset.description}")
    return EXIT_OK


def _cmd_validate(_args) -> int:
    failures = 0
    for preset in all_presets():
        mismatch = check_self_consistency(preset)
        ok = math.isnan(mismatch) or mismatch <= 1e-4
        status = "PASS" if ok else "FAIL"
        failures += not ok
        print(f"{status} preset {preset.name}: |L u* - f| = {mismatch:.3g}")
    return EXIT_OK if failures == 0 else EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasirbf",
        description="Meshfree elliptic solver: FFT particular solution on an "
                    "embedding box plus boundary-knot collocation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one configured problem")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--output")
    p_solve.set_defaults(func=_cmd_solve)

    p_conv = sub.add_parser("converge", help="knot-count convergence study")
    p_conv.add_argument("--preset", required=True)
    p_conv.add_argument("--knots", required=True,
                        help="comma-separated increasing knot counts")
    p_conv.add_argument("--output")
    p_conv.set_defaults(func=_cmd_converge)

    p_presets = sub.add_parser("presets", help="list built-in problems")
    p_presets.set_defaults(func=_cmd_presets)

    p_val = sub.add_parser("validate", help="run self-consistency checks")
    p_val.set_defaults(func=_cmd_validate)
    return parser


_PARSER = build_parser()  # parse_args leaves it unchanged, so one serves every call


def run_cli(argv: Optional[list] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
