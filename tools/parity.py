"""Check that the working tree's solver prints what revision REV's prints.

    python tools/parity.py REV [--rtol R --atol A]

Extracts REV's src/ into a temporary directory (git archive REV src | tar -x;
the repository's .git is only read), then runs every case below twice in a
subprocess, once with PYTHONPATH at the working tree's src/ and once at REV's,
and compares exit codes and stdout bytes. A third subprocess runs the case
twice in one process through cli.run_cli, so the working tree's caches are
warm, and its second exit code and stdout are compared with REV's too. In CSV
output the *_ms timing columns are masked. Prints one SAME/DIFF line per case,
cold and warm, and exits 1 on any DIFF.

With --rtol or --atol, the numeric fields of JSON reports and CSV rows
compare as |new - old| <= A + R |old|, plus for the errors and the boundary
and solver residuals a noise floor (NOISE_FLOORS); exit codes, keys, headers and every
other byte stay exact. A case whose output differs only within that bound
prints CLOSE.
CLOSE and DIFF lines list the largest relative difference |new - old| / |old|
of each field that moved, over the case's rows.

Cases: `quasirbf solve` on every preset at the defaults and at knots 48 /
grid 512, on the source presets at grid 32 (whose sources are sampled, not
factored, so u_p uses its real matrix), on a resonant config, on a
kernel-overflow config and on poisson_disc at knots 400 / trefftz_order 180,
and `quasirbf converge` at 8,16,32,48 on helmholtz_disc and helmholtz_star and
on the source presets modhelm_source and convdiff_disc, whose N share one
cached u_p.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RESONANT = {"preset": "helmholtz_resonant", "box_margin": 0.5, "grid": 64}
SAMPLED = ("modhelm_source", "convdiff_disc", "poisson_disc", "helmholtz_resonant")
# Trefftz orders past 170, where a factorial-based harmonic basis would overflow
HIGH_ORDER = {"preset": "poisson_disc", "knots": 400, "trefftz_order": 180}
OVERFLOW = {"problem": {"operator": {"type": "modified_helmholtz", "k": 400},
                        "domain": {"type": "circle", "radius": 1}}, "knots": 16}
# Rounding noise of the error and residual fields, by the knots N: 16 eps times the field's
# scale for u of order one (|u| <= 2.72 on every preset). max_err and rms_err are relative to
# max |u*|, and the boundary residual is in u's units (its largest rounding move seen is
# 8 eps); the solver residual is the 2-norm of N rows in those units. A value that small is
# noise: --rtol cannot judge it. The interior residual gets
# no floor: its stencil weighs u by 8 / h^2 = 8e6 at `quasirbf solve`'s h = 1e-3, so a move
# of u by 2 eps moves it by 3.6e-9, already 2 % of the smallest case's (1.7e-7).
NOISE_FLOORS = {"max_err": lambda n: 16 * sys.float_info.epsilon,
                "rms_err": lambda n: 16 * sys.float_info.epsilon,
                "boundary_residual": lambda n: 16 * sys.float_info.epsilon,
                "solver_residual_norm": lambda n: 16 * sys.float_info.epsilon * math.sqrt(n)}


def extract_src(rev: str, dest: Path) -> bool:
    """Write REV's src/ into dest (git archive REV src | tar -x); False, with
    a message on stderr, if either fails (say, REV names no commit)."""
    archive = subprocess.Popen(["git", "archive", rev, "src"], cwd=ROOT, stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or tar.returncode != 0:
        print(f"git archive {rev} src failed", file=sys.stderr)
        return False
    return True


def preset_names(src: Path) -> list:
    out = run(src, ["presets"], Path.cwd()).stdout.decode()
    return [line.split()[0] for line in out.splitlines() if line.strip()]


def cases(src: Path, workdir: Path):
    """(name, CLI arguments) pairs; writes each solve config into workdir."""
    configs = {}
    for name in preset_names(src):
        configs[f"solve {name}"] = {"preset": name}
        configs[f"solve {name} knots=48 grid=512"] = {"preset": name, "knots": 48, "grid": 512}
    for name in SAMPLED:
        configs[f"solve {name} grid=32"] = {"preset": name, "grid": 32}
    configs["solve resonant"] = RESONANT
    configs["solve overflow"] = OVERFLOW
    configs["solve poisson_disc knots=400 trefftz_order=180"] = HIGH_ORDER
    for i, (name, config) in enumerate(configs.items()):
        path = workdir / f"case{i}.json"
        path.write_text(json.dumps(config))
        yield name, ["solve", "--config", str(path)]
    for preset in ("helmholtz_disc", "helmholtz_star", "modhelm_source", "convdiff_disc"):
        yield f"converge {preset}", ["converge", "--preset", preset, "--knots", "8,16,32,48"]


# the case once with its output discarded, then again, exiting with its code
WARM = """import contextlib, io, sys
from quasirbf.cli import run_cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    run_cli(sys.argv[1:])
sys.exit(run_cli(sys.argv[1:]))
"""


def run(src: Path, args: list, cwd: Path, warm: bool = False) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    entry = ["-c", WARM] if warm else ["-m", "quasirbf.cli"]
    return subprocess.run([sys.executable] + entry + args, cwd=cwd,
                          env=env, capture_output=True)


def mask_timings(stdout: bytes) -> bytes:
    """stdout with the *_ms columns blanked if it is CSV, else unchanged."""
    lines = stdout.split(b"\n")
    header = lines[0].split(b",")
    timing = [i for i, col in enumerate(header) if col.endswith(b"_ms")]
    if not timing:
        return stdout
    masked = [lines[0]]
    for line in lines[1:]:
        cells = line.split(b",")
        for i in timing:
            if i < len(cells):
                cells[i] = b"*"
        masked.append(b",".join(cells))
    return b"\n".join(masked)


def _fields(stdout: bytes):
    """{field: [values]} of a JSON report or a CSV table (timing columns
    masked), or None for any other output."""
    text = stdout.decode()
    try:
        report = json.loads(text)
    except ValueError:
        lines = mask_timings(stdout).decode().splitlines()
        if len(lines) < 2 or "," not in lines[0]:
            return None
        header = lines[0].split(",")
        return {"header": [lines[0]], **{col: [line.split(",")[i] for line in lines[1:]]
                                         for i, col in enumerate(header)}}
    return {key: [value] for key, value in report.items()} if isinstance(report, dict) else None


def _number(value):
    """value as a float, or None for a boolean or anything float() rejects."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _relative(new: float, old: float) -> float:
    if new == old or (math.isnan(new) and math.isnan(old)):
        return 0.0
    return abs(new - old) / abs(old) if old != 0.0 and math.isfinite(old) else math.inf


def compare_numbers(new: bytes, old: bytes, rtol: float, atol: float):
    """(within, {field: largest relative difference}) for two outputs of one
    case; within is False if any field moves past atol + rtol |old| (plus its
    NOISE_FLOORS entry at the row's knots) or any non-numeric part differs."""
    a, b = _fields(new), _fields(old)
    if a is None or b is None or a.keys() != b.keys():
        return False, {}
    within, moved = True, {}
    knots = b.get("knots") or b.get("N") or []
    for field, olds in b.items():
        news = a[field]
        if len(news) != len(olds):
            return False, {}
        for x, y, n in zip(news, olds, knots or [0] * len(olds)):
            nx, ny = _number(x), _number(y)
            if nx is None or ny is None:
                within = within and x == y
                continue
            rel = _relative(nx, ny)
            if rel > 0.0:
                moved[field] = max(moved.get(field, 0.0), rel)
            both_nan = math.isnan(nx) and math.isnan(ny)
            floor = NOISE_FLOORS[field](float(n)) if field in NOISE_FLOORS else 0.0
            within = within and (both_nan or abs(nx - ny) <= atol + rtol * abs(ny) + floor)
    return within, moved


def report(name: str, new: subprocess.CompletedProcess, old: subprocess.CompletedProcess,
           tolerant: bool, rtol: float, atol: float) -> bool:
    """Print the case's SAME, CLOSE or DIFF line; False for DIFF."""
    same_code = new.returncode == old.returncode
    same_out = mask_timings(new.stdout) == mask_timings(old.stdout)
    if same_code and same_out:
        print(f"SAME {name} (exit {new.returncode})")
        return True
    within, moved = (compare_numbers(new.stdout, old.stdout, rtol, atol)
                     if tolerant and same_code else (False, {}))
    why = [] if same_code else [f"exit {old.returncode} -> {new.returncode}"]
    detail = "".join(f"\n    {field}: rel {rel:.3g}" for field, rel in moved.items())
    if within:
        print(f"CLOSE {name} (exit {new.returncode}){detail}")
        return True
    print(f"DIFF {name} ({', '.join(why + ([] if same_out else ['stdout']))}){detail}")
    return False


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--rtol", type=float)
    parser.add_argument("--atol", type=float)
    args = parser.parse_args(argv)
    tolerant = args.rtol is not None or args.atol is not None
    rtol, atol = args.rtol or 0.0, args.atol or 0.0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_root = tmp / "rev"
        old_root.mkdir()
        if not extract_src(args.rev, old_root):
            return 2
        new_src, old_src = ROOT / "src", old_root / "src"
        diffs = 0
        for name, case_args in cases(new_src, tmp):
            old = run(old_src, case_args, tmp)
            for label, warm in ((name, False), (f"{name} [warm]", True)):
                diffs += not report(label, run(new_src, case_args, tmp, warm), old,
                                    tolerant, rtol, atol)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
