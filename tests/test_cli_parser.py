"""The CLI builds only the parser of the subcommand it runs, and prints what the whole one would.

``main`` builds the parser of the first command word in argv alone, and
starts over with the whole parser wherever the top level would print
usage or help.  Each case below runs ``main`` twice: as it is, and with
no command word known, so that it always builds the whole parser, as
every process did before; stdout, stderr and the exit code must agree.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from iodcrypt import cli
from iodcrypt.cli import COMMANDS, build_parser, main


@pytest.fixture(scope="module")
def home(tmp_path_factory):
    home = tmp_path_factory.mktemp("parser-home")
    for seed, argv in enumerate([("kgc", "init"), ("kgc", "issue", "--id", "alpha")], start=601):
        assert main([*argv, "--home", str(home), "--test-seed", str(seed), "--insecure-test"]) == 0
    return str(home)


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


HELP = [["--help"], ["-h"], [], ["kgc"], ["table"], ["--json", "--help", "sign"],
        *([*words, "--help"] for words in (["kgc"], ["kgc", "init"], ["kgc", "issue"], ["keyver"],
                                           ["table"], ["table", "gen"], ["sign"], ["verify"],
                                           ["encrypt"], ["decrypt"], ["exchange"], ["bench"]))]
ERRORS = [
    ["frobnicate"], ["frobnicate", "sign"], ["--bogus", "sign"], ["sign", "--bogus"],
    ["sign"], ["sign", "--key", "alpha"], ["verify", "x"], ["kgc", "issue"], ["keyver"],
    ["kgc", "nope"], ["table", "gen", "--designated"], ["table", "gen", "--recipient", "alpha"],
    ["kgc", "init", "--test-seed", "1"], ["--test-seed", "1", "kgc", "init"],
    ["--test-seed", "x", "sign"], ["sign", "--test-seed", "x"],
    ["bench", "--profile", "nope"], ["bench", "--profile", "host"],
    ["bench", "--profile", "host", "--voltage", "3"],
    ["bench", "--profile", "host", "--op", "sign", "--iterations", "2"],
    ["--home", "sign", "verify", "--key", "alpha"], ["--home", "kgc", "sign", "--key", "alpha"],
]
RUNS = [
    ["--home", "{home}", "--json", "keyver", "--key", "alpha"],
    ["keyver", "--key", "alpha", "--home", "{home}", "--json"],
    ["--hom", "{home}", "keyver", "--key", "alpha"],
    ["keyver", "--key", "alpha", "--hom", "{home}"],
    ["keyver", "--ke", "alpha", "--hom={home}", "--js"],
    ["--home", "keyver", "keyver", "--key", "alpha"],
    ["keyver", "--key", "nobody", "--home", "{home}"],
    ["bench", "--profile", "arm", "--op", "sign", "--json"],
]


@pytest.mark.parametrize("argv", HELP + ERRORS + RUNS, ids=" ".join)
def test_output_and_exit_code_are_the_whole_parsers(home, monkeypatch, argv):
    argv = [word.replace("{home}", home) for word in argv]
    one = _outcome(argv)
    monkeypatch.setattr(cli, "COMMANDS", ())
    assert _outcome(argv) == one
    assert one[0] in (0, 1, 2, 3) and (one[1] or one[2])


def test_a_command_word_builds_only_its_parser(monkeypatch):
    built = []

    def spy(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    for argv, expected in ((["sign", "--help"], ["sign"]), (["--help"], [None]),
                           (["frobnicate", "sign"], ["sign", None]), (["kgc"], ["kgc", None])):
        built.clear()
        _outcome(argv)
        assert built == expected, argv
    for command in COMMANDS:
        subparsers = build_parser(command)._subparsers._group_actions[0]
        assert list(subparsers.choices) == [command]
    assert list(build_parser()._subparsers._group_actions[0].choices) == list(COMMANDS)


@pytest.mark.parametrize("argv", [
    ["--home", "h", "--json", "keyver", "--key", "alpha"],
    ["sign", "--key", "a", "--table", "t", "--out", "o", "in", "--test-seed", "3", "--insecure-test"],
    ["table", "gen", "--designated", "--recipient", "r", "--params", "18,1024"],
    ["bench", "--profile", "host", "--op", "verify", "--iterations", "20", "--hom", "h"],
], ids=" ".join)
def test_one_command_parser_parses_as_the_whole_one(argv):
    command = next(word for word in argv if word in COMMANDS)
    assert vars(build_parser(command).parse_args(argv)) == vars(build_parser().parse_args(argv))
