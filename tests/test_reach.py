"""Every ``def`` in ``src/iodcrypt`` is entered by a real caller, or is allowlisted with a reason.

A fresh interpreter runs this file as a script under ``sys.setprofile``
and drives the package's real callers: ``cli.main`` for every command,
a bare ``iodcrypt`` and a bare ``iodcrypt kgc`` among them, one call of
each ``bench.BENCH_OPS`` workload, and the four demos.  It records every
code object of the package that it enters.  The test then lists the
package's ``def``s by parsing its source, and asserts that the ones
never entered are exactly ``NEVER_ENTERED``.  A function that only the
tests call fails the test until it is deleted or allowlisted here.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "iodcrypt"

# Unreached by every real caller, each for a reason; "module.qualified.name".
NEVER_ENTERED = {
    "bpv.verify_table": "the deep check of a table's columns, kept for audits (ROADMAP item 3)",
    "group.Scalar.__hash__": "records hash their fields, Scalar ones included",
    "group.Scalar.__repr__": "records print their fields, Scalar ones included",
    "group.GroupElement.__hash__": "records hash their fields, GroupElement ones included",
    "group.GroupElement.__repr__": "records print their fields, GroupElement ones included",
    "group.record.refuse": "a frozen record's refusal to change fires only on a bug",
}


def package_defs() -> dict[tuple[str, int, str], str]:
    """(module file, first line, name) of each code object of a ``def``, to its qualified name.

    The first line is the first decorator's, as the code object reports it.
    """
    defs = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[(module, first, child.name)] = name
                visit(child, module, name)
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, path.stem)
    return defs


def _drive(work: Path) -> None:
    """Run every real caller of the package once, its output discarded."""
    from iodcrypt import bench, cli

    home = work / "home"
    message = work / "frame.bin"
    message.write_bytes(bytes(range(256)) * 4)
    seeded = ["--home", str(home), "--insecure-test", "--test-seed"]
    for seed, argv in enumerate((
        ["kgc", "init"],
        ["kgc", "issue", "--id", "alpha"],
        ["kgc", "issue", "--id", "bravo"],
        ["keyver", "--key", "alpha"],
        ["exchange", "--key-a", "alpha", "--key-b", "bravo"],
        ["table", "gen"],
        ["table", "gen", "--designated", "--recipient", "bravo"],
        ["sign", "--key", "alpha", str(message)],
        ["verify", "--sig", f"{message}.sig", str(message)],
        ["encrypt", "--to", "bravo", str(message)],  # the table path
        ["encrypt", "--to", "alpha", "--out", str(work / "direct.enc"), str(message)],
        ["decrypt", "--key", "bravo", f"{message}.enc"],
        ["bench", "--profile", "avr", "--json"],
        ["bench", "--profile", "host", "--op", "sign", "--iterations", "10"],
    )):
        assert cli.main([*argv, *seeded, str(seed)]) == 0, argv
    assert cli.main([]) == 2  # usage from the whole parser
    assert cli.main(["kgc"]) == 2  # from a one-command parser, which starts over with the whole
    for seed, op in enumerate(bench.BENCH_OPS):
        bench._prepare_workload(op, random.Random(seed))()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def _trace(out: Path) -> None:
    # Set before the package is imported, so what importing it runs counts too.
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    work = out.parent
    os.chdir(work)
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            _drive(work)
    finally:
        sys.setprofile(None)
    src = str(PACKAGE)
    found = [(Path(c.co_filename).name, c.co_firstlineno, c.co_name)
             for c in entered if c.co_filename.startswith(src)]
    out.write_text(json.dumps(found))


def test_every_def_in_src_has_a_real_caller_or_an_allowlisted_reason(tmp_path):
    out = tmp_path / "entered.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, __file__, str(out)], env=env, check=True, timeout=300)
    defs = package_defs()
    entered = {defs.get(tuple(key)) for key in json.loads(out.read_text())}
    assert set(defs.values()) - entered == set(NEVER_ENTERED)


if __name__ == "__main__":
    _trace(Path(sys.argv[1]))
