"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the engine from ``src/``.
Every metric is printed as ``name value unit``; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  A mismatch against the cache-off oracle exits 1.
The full record (environment fingerprint, workload parameters,
validity notes) is written to ``perfbench/out/``.

Seeds: 1 is the default seed; 9001 is held out for re-checking claims.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("dashboard", "drilldown", "served-ingest")
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"data and statement seed (default {DEFAULT_SEED}; "
        f"{HELD_OUT_SEED} is held out for re-checking claims)",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def src_digest(root: Path) -> str:
    """SHA-256 over the engine's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "src_sha256": src_digest(root),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import runs

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    outcome = runs.run(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir
    )
    wanted = runs.PER_LAYER if args.trace else runs.END_TO_END
    metrics = {name: outcome.metrics[name] for name, _ in wanted}
    record = {
        "fingerprint": fingerprint(ROOT),
        "params": outcome.params,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_frac": outcome.failed / outcome.attempted,
        "mismatches": outcome.mismatches[:20],
        "notes": outcome.notes,
        "details": outcome.details,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for key in ("nproc", "python", "numpy", "git_sha"):
        print(f"# {key} {record['fingerprint'][key]}")
    for note in outcome.notes:
        print(f"# note: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {record['fail_frac']:.6g} ratio")
    if not outcome.correct:
        print(
            f"# ORACLE MISMATCH on {len(outcome.mismatches)} statements, "
            f"first: {outcome.mismatches[0][:120]!r}"
        )
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
