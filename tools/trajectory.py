"""Every measurement of this checkout in one JSON file, with a markdown summary on stdout.

    python3 tools/trajectory.py [PARENT_TREE --pairs 10 --seeds 4401 4402] --out BENCH.json

Its blocks: ``env`` (the code measured: perfbench's commit and this
tree's ``src/`` digest, which tells uncommitted changes from HEAD;
versions, usable CPUs, a child interpreter's flags and preloaded
modules, bytecode under ``src/``);
``source`` (``src/iodcrypt``'s lines by kind); ``imports`` (``-X
importtime`` of ``iodcrypt.cli``, µs); ``process`` (whole ``iodcrypt``
processes, ms, and per command one untimed process's module count and
which of ``WATCHED`` it loaded); ``in_process`` (``bench.run_bench``, and
``group``'s additions, comb build and decode); ``paper`` (each op of
``bench.REFERENCE_OP_ORDER`` as a ratio to ``sign``, here and in the
paper's cycle counts).  Repeated timings alternate their order each round.

Given PARENT_TREE, a second checkout (``git archive <commit> | tar -x -C
PARENT_TREE``), ``perfbench/run.py`` first runs unchanged and untraced for
each workload of ``BENCHMARK.json`` in at least 10 pairs, once in each tree
with seed ``seeds[i % len(seeds)]`` and the run length ``run_seconds``, the
parent first in even pairs.  Both trees must hold bytecode under ``src/``,
or neither.  Each tree's ``src/`` is named by its own perfbench's source
digest, and the file says whether the two differ.  Each run's result line
is kept, with perfbench's line before it under ``info``; a run that exits
non-zero or prints no result counts as one failed attempt.  Per workload
and end-to-end metric the file holds both sides' medians and quartiles,
the pairs the change won, its loss against the parent's median and a
verdict against the metric's bound.  The file is rewritten after each
block and each workload.
"""

import argparse
import ast
import importlib.util
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SRC_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
SIDES = ("parent", "change")
MIN_PAIRS = 10
PROCESS_ROUNDS = 21
IN_PROCESS_ROUNDS = 400
COMB_BUILDS = 11
DECODE_ROUNDS = 10
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
KINDS = ("code", "docstring", "comment", "blank", "total")
BLOCKS = ("env", "source", "imports", "process", "in_process", "paper")
# cryptography's public wrappers of X25519 and the AEAD and what they import, which no
# iodcrypt process needs: the process block reports which of them each command loads.
WATCHED = ("cryptography.hazmat.backends.openssl.backend",
           "cryptography.hazmat.primitives.asymmetric.x25519",
           "cryptography.hazmat.primitives.ciphers")


def _spread(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``' exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _python(*args: str, cwd=ROOT, env=SRC_ENV, check=True) -> subprocess.CompletedProcess:
    """One child interpreter, by default on this tree's ``src/``, its output captured."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, check=check)


def _timed(f, *args) -> float:
    """µs one call of ``f(*args)`` takes."""
    start = time.perf_counter()
    f(*args)
    return 1e6 * (time.perf_counter() - start)


def _perfbench(tree: Path):
    """``tree``'s own ``perfbench/run.py`` as a module, whose paths name that tree."""
    spec = importlib.util.spec_from_file_location("perfbench_run", tree / "perfbench" / "run.py")
    perfbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench)
    return perfbench


def env() -> dict:
    perfbench = _perfbench(ROOT)
    child = _python("-c", "import sys; m = sorted(sys.modules); "
                    "print(sys.flags.dont_write_bytecode, sys.flags.no_site, *m)")
    dont_write_bytecode, no_site, *preloaded = child.stdout.split()
    return {**perfbench.environment(trace=False), "src_sha256": perfbench._source_digest(),
            "dont_write_bytecode": int(dont_write_bytecode),
            "no_site": int(no_site), "bytecode_cache": _cached(ROOT), "preloaded": preloaded}


def line_kinds(text: str) -> dict:
    """Each line counted once: docstring (ast) before code (any token but layout,
    tokenize) before comment; the rest is blank."""
    doc, code, comment = set(), set(), set()
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, DEFS) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            doc.update(range(first.lineno, first.end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    comment -= code | doc
    total = len(text.splitlines())
    return dict(zip(KINDS, (len(code), len(doc), len(comment),
                            total - len(code | doc | comment), total)))


def source() -> dict:
    modules = {p.name: line_kinds(p.read_text()) for p in sorted((SRC / "iodcrypt").glob("*.py"))}
    return {"modules": modules,
            "src": {kind: sum(m[kind] for m in modules.values()) for kind in KINDS}}


def imports() -> dict:
    lines = _python("-X", "importtime", "-c", "import iodcrypt.cli").stderr.splitlines()[1:]
    rows = {name.strip(): {"self": int(own.split(":")[1]), "cumulative": int(cumulative)}
            for own, cumulative, name in (line.split("|") for line in lines)}
    largest = sorted(rows, key=lambda name: rows[name]["cumulative"], reverse=True)[:15]
    return {"library": {name: row for name, row in rows.items() if name.startswith("iodcrypt")},
            "largest": {name: rows[name] for name in largest}}


def process() -> dict:
    entry = "import sys; from iodcrypt.cli import main; sys.exit(main())"
    # The same command in a process that then reports what it loaded: untimed.
    probe = ("import sys; from iodcrypt.cli import main; code = main(); "
             f"print(len(sys.modules), *(m for m in {WATCHED!r} if m in sys.modules)); "
             "sys.exit(code)")
    cached = _cached(ROOT)  # after the imports block, which may have left bytecode
    with tempfile.TemporaryDirectory() as home:
        message = os.path.join(home, "frame.bin")
        Path(message).write_bytes(bytes(range(256)) * 4)

        def run(*argv):
            start = time.perf_counter()
            _python("-c", entry, "--home", home, *argv)
            return 1e3 * (time.perf_counter() - start)

        for argv in (["kgc", "init"], ["kgc", "issue", "--id", "alpha"],
                     ["kgc", "issue", "--id", "bravo"], ["table", "gen"],
                     ["table", "gen", "--designated", "--recipient", "bravo"]):
            run(*argv, "--test-seed", "1", "--insecure-test")
        ops = {"sign": ["sign", "--key", "alpha", message],
               "verify": ["verify", "--sig", message + ".sig", message],
               "encrypt": ["encrypt", "--to", "bravo", message],
               "decrypt": ["decrypt", "--key", "bravo", message + ".enc"]}
        run(*ops["sign"])
        run(*ops["encrypt"])
        loads = {}
        for op, argv in ops.items():
            last = _python("-c", probe, "--home", home, *argv).stdout.splitlines()[-1]
            count, *loaded = last.split()
            loads[op] = {"modules": int(count), "loaded": loaded}
        times = {op: [] for op in ops}
        for i in range(PROCESS_ROUNDS):
            for op in (list(ops) if i % 2 == 0 else list(ops)[::-1]):
                times[op].append(run(*ops[op]))
    return {"rounds": PROCESS_ROUNDS, "bytecode_cache": cached,
            "ms": {op: _spread(values) for op, values in times.items()},
            "watched": list(WATCHED), "loads": loads,
            "encrypt_slower": sum(e > d for e, d in zip(times["encrypt"], times["decrypt"]))}


def in_process() -> dict:
    sys.path.insert(0, str(SRC))
    from iodcrypt import group
    from iodcrypt.bench import BENCH_OPS, run_bench

    seeded = random.Random(35)
    stored = group.addends([group.Scalar(seeded.randrange(1, group.N)) * group.G for _ in range(28)])
    first, rest = group._sum_cached(stored[:1]), stored[1:]
    chains = [_timed(group._madd_chain, first, rest) / len(rest) for _ in range(IN_PROCESS_ROUNDS)]
    ms = {r.op_name: 1e3 * r.median_seconds
          for r in run_bench(BENCH_OPS, IN_PROCESS_ROUNDS, random.Random(3))}
    ms.update({f"{r.op_name}, SystemRandom": 1e3 * r.median_seconds
               for r in run_bench(("sign", "reference_sign"), IN_PROCESS_ROUNDS, random.SystemRandom())})
    build = ("import time; from iodcrypt import group; start = time.perf_counter(); "
             "group._g_comb(); print(time.perf_counter() - start)")
    builds = [1e3 * float(_python("-c", build).stdout) for _ in range(COMB_BUILDS)]
    seeded = random.Random(33)
    wires = [(group.Scalar(seeded.randrange(1, group.N)) * group.G).encode() for _ in range(50)]
    zs = [seeded.randrange(group.P) for _ in range(50)]
    decodes = [_timed(group.decode_element, wire) for _ in range(DECODE_ROUNDS) for wire in wires]
    powers = {"chain": (group._pow_p58, []),
              "pow": (lambda z: pow(z, (group.P - 5) // 8, group.P), [])}
    for i in range(DECODE_ROUNDS):
        for z in zs:
            for f, times in (powers.values() if i % 2 else reversed(powers.values())):
                times.append(_timed(f, z))
    return {"rounds": IN_PROCESS_ROUNDS, "ms": ms,
            "criterion_8": {rng: ms[f"reference_sign{label}"] / ms[f"sign{label}"]
                            for rng, label in (("Random(3)", ""), ("SystemRandom", ", SystemRandom"))},
            "madd_chain_us": statistics.median(chains),
            "comb_build_ms": dict(median=statistics.median(builds), min=min(builds), max=max(builds)),
            "decode_element_us": statistics.median(decodes),
            "pow_p58_us": {name: statistics.median(times) for name, (_, times) in powers.items()}}


def paper(ms: dict) -> dict:
    from iodcrypt.bench import REFERENCE_OP_ORDER, REFERENCE_ROWS

    return {op: {"host": ms[op] / ms["sign"],
                 **{device: REFERENCE_ROWS[device, op].cycles / REFERENCE_ROWS[device, "sign"].cycles
                    for device in ("avr", "arm")}}
            for op in REFERENCE_OP_ORDER}


def summarize_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs: pair i of ``parent`` ran next to pair i of ``change``.

    ``loss`` is how much worse the change's median is than the parent's, as
    a share of the parent's median.  The verdict is "unresolved" when the
    parent's quartile gap exceeds ``bound`` of its median and not every run
    of the change beats every run of the parent, as no move within that
    spread can be told apart; else "worse" when ``loss`` exceeds ``bound``.
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
    verdict = ("unresolved" if gap > bound and not beats_all else
               "worse" if loss > bound else "within bound")
    return {"better": better, "bound": bound, "parent": p, "change": c,
            "wins": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
            "pairs": len(parent), "loss": loss, "parent_gap": gap, "verdict": verdict}


def summarize_workload(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Failed and attempted totals per side, and each end-to-end metric's summary.

    ``runs`` maps "parent" and "change" to perfbench result lines in pair
    order.  A run without a metric (it failed before measuring) leaves its
    pair out of that metric.  A metric fewer than two pairs carry is listed
    with each side's count of runs that carry it: "worse" when the change
    carries it in fewer runs than the parent, else "missing".
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
            "verdict": "worse" if carried["change"] < carried["parent"] else "missing"}
    return out


def _cached(tree: Path) -> bool:
    """Whether the tree holds compiled bytecode for its library sources."""
    return any((tree / "src").rglob("*.pyc"))


def _run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in ``tree``: its result line, the line before under ``info``."""
    proc = _python("perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0", cwd=tree, env=None, check=False)
    try:
        info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        if proc.returncode == 0:
            return {**result, "info": info}
    except ValueError:
        pass
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
            "crash": {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}}


def pair_runs(parent_tree: Path, pairs: int, seeds: list[int], spec: dict, report: dict, write):
    """Every workload's alternating pairs into ``report``, calling ``write`` after each."""
    trees = {"parent": parent_tree, "change": ROOT}
    seconds = spec["run_seconds"]
    digests = {side: _perfbench(tree)._source_digest() for side, tree in trees.items()}
    report.update({"seconds": seconds, "seeds": seeds, "pairs": pairs,
                   "bytecode_cache": _cached(ROOT), "src_sha256": digests,
                   "src_differs": digests["parent"] != digests["change"], "workloads": {}})
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in SIDES}
        for i in range(pairs):
            seed = seeds[i % len(seeds)]
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(_run(trees[side], workload, seed, seconds))
            print(f"{workload}: pair {i + 1}/{pairs} done", file=sys.stderr)
        report["workloads"][workload] = {**summarize_workload(runs, spec["end_to_end"]),
                                         "runs": runs}
        write()


def _flat(value, prefix=""):
    """(dotted key, cell text) for each leaf of nested dicts."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _flat(inner, f"{prefix}.{key}" if prefix else key)
    else:
        yield prefix, (f"{value:.4g}" if isinstance(value, float) else
                       ", ".join(map(str, value)) if isinstance(value, list) else value)


def markdown(report: dict) -> str:
    """One table per block; with pairs, one line per workload and end-to-end metric."""
    lines = []
    for block in BLOCKS:
        lines += [f"### {block}", "", "| key | value |", "|---|---:|"]
        lines += [f"| `{key}` | {value} |" for key, value in _flat(report[block])]
        lines.append("")
    for workload, summary in report.get("workloads", {}).items():
        lines += [f"### perfbench pairs: {workload}", "", f"Failed operations: parent "
                  f"{summary['parent']['failed']}, change {summary['change']['failed']}.", ""]
        lines += [f"- `{name}`: " + ", ".join(f"{key} {value}" for key, value in _flat(m))
                  for name, m in summary["metrics"].items()]
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", type=Path, nargs="?")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seeds", type=int, nargs="+", default=[4401])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    parent = args.parent_tree and args.parent_tree.resolve()
    if parent and not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"{args.parent_tree} holds no perfbench/run.py")
    # cli-fleet's children compile the sources a tree holds no bytecode for, at
    # 17-30 ms a process, so a cache on one side only would decide that workload.
    if parent and _cached(parent) != _cached(ROOT):
        parser.error("one tree holds compiled bytecode under src/ and the other does not; "
                     "delete its __pycache__ directories or compile both")

    report = {"env": env()}

    def write():
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    # The pairs run first: the blocks import the library, and without
    # PYTHONDONTWRITEBYTECODE that leaves bytecode in this tree alone.
    if parent:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        pair_runs(parent, args.pairs, args.seeds, spec, report, write)
    for block, measure in {"source": source, "imports": imports, "process": process,
                           "in_process": in_process,
                           "paper": lambda: paper(report["in_process"]["ms"])}.items():
        report[block] = measure()
        write()
    print(markdown(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
