"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload drone-uplink --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy.  The last line of
standard output is one JSON object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the environment and the per-operation figures of the run.  An
exception that escapes a workload, in set-up or anywhere else, is one more
failed attempt: the result line is still printed, with ``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("drone-uplink", "ground-downlink", "cli-fleet")


def _import_library():
    """Import iodcrypt from this checkout's src/, or stop without a result."""
    if not (SRC / "iodcrypt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no iodcrypt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import iodcrypt

    if Path(iodcrypt.__file__).resolve().parent != SRC / "iodcrypt":
        sys.exit(f"perfbench: imported iodcrypt from {iodcrypt.__file__}, not {SRC}")


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the library sources, naming the code when there is no commit."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "iodcrypt").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(trace: bool) -> dict:
    """Versions, usable CPUs, and the code measured: its commit, or outside git a digest."""
    import cryptography

    commit = _commit()
    code = {"commit": commit} if commit else {"src_sha256": _source_digest()}
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        **code,
        "run": "traced" if trace else "untraced",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    _import_library()
    from perfbench.workloads import RUNNERS, Result

    work_dir = ROOT / "perfbench" / ".work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    result = Result()
    try:
        RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), work_dir, result)
    except Exception as exc:  # the run could not finish: one more failed attempt
        traceback.print_exc()
        result.attempted += 1
        result.fail(f"run: {type(exc).__name__}: {exc}")

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "env": environment(bool(args.trace)), "detail": result.detail,
        "failures": result.failures,
    }))
    print(json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
