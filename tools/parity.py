"""Check that the working tree's solver prints what revision REV's prints.

    python tools/parity.py REV

Extracts REV's src/ into a temporary directory (git archive REV src | tar -x;
the repository's .git is only read), then runs every case below twice in a
subprocess, once with PYTHONPATH at the working tree's src/ and once at REV's,
and compares exit codes and stdout bytes. In CSV output the *_ms timing
columns are masked. Prints one SAME/DIFF line per case and exits 1 on any DIFF.

Cases: `quasirbf solve` on every preset at the defaults and at knots 48 /
grid 512, on a resonant config and on a kernel-overflow config, and
`quasirbf converge` on helmholtz_disc and helmholtz_star at 8,16,32,48.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RESONANT = {"preset": "helmholtz_resonant", "box_margin": 0.5, "grid": 64}
OVERFLOW = {"problem": {"operator": {"type": "modified_helmholtz", "k": 400},
                        "domain": {"type": "circle", "radius": 1}}, "knots": 16}


def preset_names(src: Path) -> list:
    out = run(src, ["presets"], Path.cwd()).stdout.decode()
    return [line.split()[0] for line in out.splitlines() if line.strip()]


def cases(src: Path, workdir: Path):
    """(name, CLI arguments) pairs; writes each solve config into workdir."""
    configs = {}
    for name in preset_names(src):
        configs[f"solve {name}"] = {"preset": name}
        configs[f"solve {name} knots=48 grid=512"] = {"preset": name, "knots": 48, "grid": 512}
    configs["solve resonant"] = RESONANT
    configs["solve overflow"] = OVERFLOW
    for i, (name, config) in enumerate(configs.items()):
        path = workdir / f"case{i}.json"
        path.write_text(json.dumps(config))
        yield name, ["solve", "--config", str(path)]
    for preset in ("helmholtz_disc", "helmholtz_star"):
        yield f"converge {preset}", ["converge", "--preset", preset, "--knots", "8,16,32,48"]


def run(src: Path, args: list, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "quasirbf.cli"] + args, cwd=cwd,
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


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tools/parity.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_root = tmp / "rev"
        old_root.mkdir()
        archive = subprocess.Popen(["git", "archive", rev, "src"], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(old_root)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            print(f"git archive {rev} src failed", file=sys.stderr)
            return 2
        new_src, old_src = ROOT / "src", old_root / "src"
        diffs = 0
        for name, args in cases(new_src, tmp):
            new, old = run(new_src, args, tmp), run(old_src, args, tmp)
            same_code = new.returncode == old.returncode
            same_out = mask_timings(new.stdout) == mask_timings(old.stdout)
            if same_code and same_out:
                print(f"SAME {name} (exit {new.returncode})")
                continue
            diffs += 1
            why = [] if same_code else [f"exit {old.returncode} -> {new.returncode}"]
            print(f"DIFF {name} ({', '.join(why + ([] if same_out else ['stdout']))})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
