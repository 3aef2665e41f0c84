"""Alternating parent/change pairs of perfbench runs, summarised in one BENCH file.

    python3 tools/pairs.py PARENT_TREE --pairs 10 --seeds 4401 4402 --out BENCH_36.json

PARENT_TREE is a second checkout of the code to compare with, made for
example with ``git archive <commit> | tar -x -C PARENT_TREE``.  For each
workload and each pair, ``perfbench/run.py`` runs once in PARENT_TREE and
once in this checkout, unchanged and untraced, with the same seed and the
run length ``BENCHMARK.json`` sets (``run_seconds``).  The parent runs
first in even pairs and second in odd ones, so drift in host speed falls
on both sides alike.  Pair i takes seed ``seeds[i % len(seeds)]``.  At
least 10 pairs are run, as many as a gain or a regression is judged on.
Both trees must hold compiled bytecode under ``src/``, or neither, as a
fresh checkout holds none.

Each run's result line (``correct``, ``attempted``, ``failed`` and
``metrics``) is kept in the output file, with the line perfbench prints
before it (the environment and code measured, and per-operation detail)
under ``info``.  A run that exits non-zero or prints no result counts as
one failed attempt with no metrics, as perfbench counts a run that could
not finish.  For every workload and every end-to-end metric of
``BENCHMARK.json`` the file also holds both sides' medians and quartiles,
the pairs the change won, the change's relative loss against the
parent's median, and a verdict against the metric's bound.  The file is
rewritten after each workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
MIN_PAIRS = 10


def _spread(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``' exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs: pair i of ``parent`` ran next to pair i of ``change``.

    ``loss`` is how much worse the change's median is than the parent's, as
    a share of the parent's median (negative when it is better).  The
    verdict is "unresolved" when the parent's quartile gap exceeds ``bound``
    of its median, since no move within that spread can be told apart,
    unless every run of the change beats every run of the parent; otherwise
    "worse" when ``loss`` exceeds ``bound``, else "within bound".
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs, as many runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "lower" else -1
    p, c = _spread(parent), _spread(change)
    loss = sign * (c["median"] - p["median"]) / p["median"]
    gap = (p["q3"] - p["q1"]) / p["median"]
    beats_all = max(sign * x for x in change) < min(sign * x for x in parent)
    if gap > bound and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "worse" if loss > bound else "within bound"
    return {
        "better": better,
        "bound": bound,
        "parent": p,
        "change": c,
        "wins": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
        "loss": loss,
        "parent_gap": gap,
        "verdict": verdict,
    }


def summarize_workload(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Failed and attempted totals per side, and each end-to-end metric's summary.

    ``runs`` maps "parent" and "change" to perfbench result lines in pair
    order.  A run without a metric (it failed before measuring) leaves its
    pair out of that metric.  A metric with fewer than two complete pairs
    is still reported, with how many runs of each side carry it: "worse"
    when the change carries it in fewer runs than the parent, else
    "missing".
    """
    out = {side: {"attempted": sum(r["attempted"] for r in runs[side]),
                  "failed": sum(r["failed"] for r in runs[side]),
                  "incorrect_runs": sum(not r["correct"] for r in runs[side])}
           for side in SIDES}
    out["metrics"] = {}
    for spec in end_to_end:
        name = spec["name"]
        pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                 for a, b in zip(runs["parent"], runs["change"])
                 if name in a["metrics"] and name in b["metrics"]]
        if len(pairs) >= 2:
            parent, change = map(list, zip(*pairs))
            out["metrics"][name] = summarize_metric(parent, change, spec["better"], spec["bound"])
            continue
        carried = {side: sum(name in r["metrics"] for r in runs[side]) for side in SIDES}
        out["metrics"][name] = {
            "better": spec["better"], "bound": spec["bound"], "pairs": len(pairs),
            "runs_with_metric": carried,
            "verdict": "worse" if carried["change"] < carried["parent"] else "missing",
        }
    return out


def _cached(tree: Path) -> bool:
    """Whether the tree holds compiled bytecode for its library sources."""
    return any((tree / "src").rglob("*.pyc"))


def _run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in ``tree``: its result line, the line before under ``info``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=False)
    try:
        info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        if proc.returncode == 0:
            return {**result, "info": info}
    except ValueError:
        pass
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
            "crash": {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seeds", type=int, nargs="+", default=[4401])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent_tree.resolve(), "change": ROOT}
    if not (trees["parent"] / "perfbench" / "run.py").is_file():
        parser.error(f"{args.parent_tree} holds no perfbench/run.py")
    # cli-fleet's children compile the sources a tree holds no bytecode for, at
    # 17-30 ms a process, so a cache on one side only would decide that workload.
    if _cached(trees["parent"]) != _cached(trees["change"]):
        parser.error("one tree holds compiled bytecode under src/ and the other does not; "
                     "delete its __pycache__ directories or compile both")

    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "seeds": args.seeds, "pairs": args.pairs,
              "bytecode_cache": _cached(ROOT), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(_run(trees[side], workload, seed, seconds))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        report["workloads"][workload] = {**summarize_workload(runs, spec["end_to_end"]),
                                         "runs": runs}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, summary in report["workloads"].items():
        for name, m in summary["metrics"].items():
            if "loss" not in m:
                print(f"{workload} {name}: {m['pairs']} complete pairs, runs with it "
                      f"{m['runs_with_metric']}: {m['verdict']}")
                continue
            print(f"{workload} {name}: parent {m['parent']['median']:.6g} "
                  f"({m['parent']['q1']:.6g}-{m['parent']['q3']:.6g}), change "
                  f"{m['change']['median']:.6g}, change better in {m['wins']}/{m['pairs']}, "
                  f"loss {m['loss']:+.1%}: {m['verdict']}")
        print(f"{workload} failed: parent {summary['parent']['failed']}, "
              f"change {summary['change']['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
