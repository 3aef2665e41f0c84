"""The top-level ``iodcrypt`` package: what importing it and the CLI's commands load.

The package re-exports nothing; each name is imported from its
submodule.  Fresh interpreters check what a bare ``import iodcrypt`` and
the CLI's commands load, since the test process itself has imported
every submodule long before.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import iodcrypt
import iodcrypt.encrypt
import iodcrypt.sign
from iodcrypt.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        iodcrypt.no_such_name
    with pytest.raises(ImportError):
        exec("from iodcrypt import no_such_name", {})


def test_sign_and_encrypt_stay_modules():
    assert isinstance(iodcrypt.sign, types.ModuleType)
    assert isinstance(iodcrypt.encrypt, types.ModuleType)
    assert iodcrypt.sign.sign is not iodcrypt.sign
    assert iodcrypt.encrypt.encrypt is not iodcrypt.encrypt


def test_import_loads_no_submodule():
    out = _fresh(
        "import json, sys, iodcrypt\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('iodcrypt.'))))\n"
    )
    assert json.loads(out) == []


def test_sign_and_verify_commands_leave_encrypt_unloaded(tmp_path):
    home = str(tmp_path / "home")
    message = tmp_path / "msg.txt"
    message.write_bytes(b"waypoint 12 reached\n")
    for argv in (["kgc", "init"], ["kgc", "issue", "--id", "alpha"], ["table", "gen"]):
        assert main([*argv, "--home", home, "--test-seed", "301", "--insecure-test"]) == 0
    sign_argv = ["sign", "--key", "alpha", str(message), "--home", home]
    verify_argv = ["verify", "--sig", f"{message}.sig", str(message), "--home", home]
    out = _fresh(
        "import json, sys\n"
        "from iodcrypt.cli import main\n"
        f"codes = [main({sign_argv!r}), main({verify_argv!r})]\n"
        "print(json.dumps([codes, 'iodcrypt.encrypt' in sys.modules]))\n"
    )
    codes, encrypt_loaded = json.loads(out.splitlines()[-1])
    assert codes == [0, 0]
    assert not encrypt_loaded


# What only ``iodcrypt bench``, top-level help or usage, or ``--json`` needs; sign, verify,
# encrypt and decrypt processes never load it.
BENCH_ONLY = ("dataclasses", "inspect", "statistics", "json", "iodcrypt.bench")


def test_crypto_commands_load_no_bench_json_or_dataclasses_module(tmp_path):
    home = str(tmp_path / "home")
    message = tmp_path / "msg.txt"
    message.write_bytes(b"battery at 41 %\n")
    for argv in (["kgc", "init"], ["kgc", "issue", "--id", "alpha"], ["table", "gen"],
                 ["table", "gen", "--designated", "--recipient", "alpha"]):
        assert main([*argv, "--home", home, "--test-seed", "302", "--insecure-test"]) == 0
    commands = [
        ["sign", "--key", "alpha", str(message)],
        ["verify", "--sig", f"{message}.sig", str(message)],
        ["encrypt", "--to", "alpha", str(message)],
        ["decrypt", "--key", "alpha", f"{message}.enc", "--out", str(tmp_path / "out")],
    ]
    out = _fresh(
        "import sys\n"
        "from iodcrypt.cli import main\n"
        f"codes = [main([*argv, '--home', {home!r}]) for argv in {commands!r}]\n"
        f"print(repr([codes, sorted(set({BENCH_ONLY!r}) & set(sys.modules))]))\n"
        "def usage(argv):\n"
        "    try:\n"
        "        return main(argv)\n"
        "    except SystemExit as exc:\n"
        "        return exc.code\n"
        "print(repr([usage(['bench', '--profile', 'nope']), usage(['bench', '--op', 'nope']),\n"
        "            'iodcrypt.bench' in sys.modules]))\n"
        "print(repr([main(['bench', '--profile', 'avr', '--json']), 'iodcrypt.bench' in sys.modules]))\n"
    )
    lines = out.splitlines()
    codes, loaded = ast.literal_eval(lines[4])
    assert codes == [0, 0, 0, 0] and loaded == []
    assert (tmp_path / "out").read_bytes() == message.read_bytes()
    # A bad choice is still argparse's usage error; the parser reads its choices from bench.
    assert ast.literal_eval(lines[5]) == [2, 2, True]
    assert ast.literal_eval(lines[-1]) == [0, True]
    rows = [json.loads(line) for line in lines[6:-1]]
    assert [row["op"] for row in rows] == ["aq_shared", "aq_hang", "sign", "verify", "encrypt",
                                           "decrypt"]


def test_only_group_names_cryptographys_binding():
    # group takes X25519 and ChaCha20-Poly1305 from the binding under the public
    # wrappers; every other module takes them from group, so one module alone
    # depends on the binding's layout.
    naming = [path.name for path in sorted(Path(iodcrypt.__file__).parent.glob("*.py"))
              if "cryptography.hazmat.bindings" in path.read_text()]
    assert naming == ["group.py"]


# What no process loads: cryptography's public wrappers of X25519 and the AEAD.  The
# key wrappers import the OpenSSL backend module on each call, to check for FIPS mode,
# and ``ciphers.aead`` runs the whole ``ciphers`` package; group takes the same keys and
# AEAD from the binding they call.
WRAPPERS = ("cryptography.hazmat.backends.openssl.backend",
            "cryptography.hazmat.primitives.asymmetric.x25519",
            "cryptography.hazmat.primitives.ciphers")
# What a sign process leaves unloaded: hashlib's OpenSSL, a second one next to
# cryptography's, and the wrappers.
NOT_IN_SIGN = ("_hashlib", "hashlib", *WRAPPERS)


def test_sign_loads_no_x25519_no_openssl_backend_and_no_hashlib(tmp_path):
    home = str(tmp_path / "home")
    message = tmp_path / "msg.txt"
    message.write_bytes(b"fence 3 breached\n")
    for argv in (["kgc", "init"], ["kgc", "issue", "--id", "alpha"], ["table", "gen"]):
        assert main([*argv, "--home", home, "--test-seed", "303", "--insecure-test"]) == 0
    out = _fresh(
        "import json, sys\n"
        "from iodcrypt.cli import main\n"
        f"code = main(['sign', '--key', 'alpha', {str(message)!r}, '--home', {home!r}])\n"
        f"print(json.dumps([code, sorted(set({NOT_IN_SIGN!r}) & set(sys.modules))]))\n"
        "from iodcrypt import group\n"
        "print(group._check_key.cache_info().currsize)\n"
        f"main(['verify', '--sig', {str(message) + '.sig'!r}, {str(message)!r}, '--home', {home!r}])\n"
        "print(json.dumps([group._check_key.cache_info().currsize,\n"
        f"                  sorted(set({NOT_IN_SIGN!r}) & set(sys.modules))]))\n"
    )
    lines = out.splitlines()
    assert json.loads(lines[1]) == [0, []]
    # Sign built no X25519 key.  The control: verify builds them, the subgroup check's
    # among them, for its decodes and products, and still loads none of the wrappers.
    assert lines[2] == "0"
    assert json.loads(lines[-1]) == [1, []]


def test_no_command_loads_hashlib(tmp_path):
    home = str(tmp_path / "home")
    message = str(tmp_path / "msg.txt")
    Path(message).write_bytes(b"return to base\n")
    seeded = ["--test-seed", "304", "--insecure-test"]
    commands = [
        ["kgc", "init", *seeded], ["kgc", "issue", "--id", "alpha", *seeded],
        ["kgc", "issue", "--id", "bravo", *seeded], ["keyver", "--key", "alpha"],
        ["table", "gen", *seeded], ["table", "gen", "--designated", "--recipient", "bravo", *seeded],
        ["sign", "--key", "alpha", message], ["verify", "--sig", f"{message}.sig", message],
        ["encrypt", "--to", "bravo", message], ["decrypt", "--key", "bravo", f"{message}.enc"],
        ["exchange", "--key-a", "alpha", "--key-b", "bravo"], ["bench", "--profile", "avr"],
        ["bench", "--profile", "host", "--op", "aq_hang", "--iterations", "10", *seeded],
    ]
    out = _fresh(
        "import json, sys\n"
        "from iodcrypt.cli import main\n"
        f"codes = [main([*argv, '--home', {home!r}]) for argv in {commands!r}]\n"
        f"print(json.dumps([codes, sorted({{'hashlib', '_hashlib', *{WRAPPERS!r}}} & set(sys.modules))]))\n"
    )
    assert json.loads(out.splitlines()[-1]) == [[0] * len(commands), []]
    assert Path(f"{message}.dec").read_bytes() == Path(message).read_bytes()


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # Its asserts carry the README's costs, among them sign's (0, 27) budget.
    assert "(ctr.scalar_mults, ctr.point_adds) == (0, 27)" in block
    exec(compile(block, "README.md", "exec"), {})
