"""tools/trajectory.py: the pair summaries on fixed run records, the source split on a fixed
snippet, and one run of every block at lowered round counts, which checks no timing."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("trajectory", ROOT / "tools" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory)

END_TO_END = [{"name": "setup_s", "better": "lower", "bound": 0.25},
              {"name": "msgs_per_s", "better": "higher", "bound": 0.2}]


def test_lower_is_better_medians_quartiles_wins_and_loss():
    m = trajectory.summarize_metric([10, 11, 12, 13], [9, 12, 11, 12], "lower", 0.25)
    # Exclusive quartiles of four values sit at ranks 1.25 and 3.75.
    assert m["parent"] == {"median": 11.5, "q1": 10.25, "q3": 12.75}
    assert m["change"] == {"median": 11.5, "q1": 9.5, "q3": 12.0}
    assert (m["wins"], m["pairs"]) == (3, 4)  # 9 < 10, 11 < 12, 12 < 13
    assert m["loss"] == 0 and m["parent_gap"] == pytest.approx(2.5 / 11.5)
    assert m["verdict"] == "within bound"


def test_higher_is_better_counts_a_drop_as_a_loss():
    m = trajectory.summarize_metric([100] * 4, [90, 110, 70, 80], "higher", 0.2)
    assert m["change"]["median"] == 85
    assert m["wins"] == 1 and m["loss"] == pytest.approx(0.15)
    assert m["verdict"] == "within bound"
    assert trajectory.summarize_metric([100] * 4, [70] * 4, "higher", 0.2)["verdict"] == "worse"
    assert trajectory.summarize_metric([10] * 4, [13] * 4, "lower", 0.25)["verdict"] == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    m = trajectory.summarize_metric([1, 2, 3, 4, 5], [9] * 5, "lower", 0.25)
    assert (m["parent"]["q1"], m["parent"]["q3"]) == (1.5, 4.5)
    assert m["parent_gap"] == 1.0 and m["verdict"] == "unresolved"
    # Unless every run of the change beats every run of the parent.
    assert trajectory.summarize_metric([1, 2, 3, 4, 5], [0.9] * 5, "lower", 0.25)["verdict"] == \
        "within bound"


@pytest.mark.parametrize("parent, change", [([1.0], [1.0]), ([1.0, 2.0], [1.0])])
def test_fewer_than_two_pairs_or_unpaired_runs_are_refused(parent, change):
    with pytest.raises(ValueError):
        trajectory.summarize_metric(parent, change, "lower", 0.25)


def _run(failed, **values):
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value} for name, value in values.items()}}


def test_a_workload_sums_failures_and_skips_a_pair_without_the_metric():
    runs = {
        "parent": [_run(0, setup_s=1.0, msgs_per_s=50.0), _run(2, setup_s=1.0),
                   _run(0, setup_s=1.0, msgs_per_s=50.0)],
        "change": [_run(1, setup_s=0.5, msgs_per_s=60.0), _run(0, setup_s=2.0, msgs_per_s=10.0),
                   _run(0, setup_s=0.5, msgs_per_s=40.0)],
    }
    out = trajectory.summarize_workload(runs, END_TO_END)
    assert out["parent"] == {"attempted": 300, "failed": 2, "incorrect_runs": 1}
    assert out["change"] == {"attempted": 300, "failed": 1, "incorrect_runs": 1}
    setup, msgs = out["metrics"]["setup_s"], out["metrics"]["msgs_per_s"]
    assert (setup["pairs"], setup["wins"], setup["change"]["median"]) == (3, 2, 0.5)
    # The second pair has no msgs_per_s on the parent's side, so two pairs remain.
    assert (msgs["pairs"], msgs["wins"], msgs["change"]["median"]) == (2, 1, 50.0)
    assert msgs["loss"] == 0


def test_a_metric_too_few_pairs_carry_is_reported_not_dropped():
    # Every run of the change failed before measuring: its metrics are gone.
    runs = {"parent": [_run(0, setup_s=1.0, msgs_per_s=50.0)] * 3, "change": [_run(1)] * 3}
    out = trajectory.summarize_workload(runs, END_TO_END)
    assert out["metrics"]["setup_s"] == {
        "better": "lower", "bound": 0.25, "pairs": 0,
        "runs_with_metric": {"parent": 3, "change": 0}, "verdict": "worse"}
    assert out["metrics"]["msgs_per_s"]["verdict"] == "worse"
    # Neither side carries it: nothing to compare, and no loss to blame on the change.
    both = trajectory.summarize_workload({"parent": [_run(1)] * 3, "change": [_run(1)] * 3},
                                    END_TO_END)
    assert {m["verdict"] for m in both["metrics"].values()} == {"missing"}


def _child(returncode, *lines):
    def run(args, **kwargs):
        return subprocess.CompletedProcess(args, returncode, "\n".join(lines) + "\n", "boom")
    return run


def test_a_run_keeps_its_info_line_and_a_crash_counts_as_one_failed_attempt(monkeypatch):
    info = {"workload": "w", "env": {"python": "3"}}
    result = {"correct": True, "attempted": 5, "failed": 0, "metrics": {}}
    monkeypatch.setattr(trajectory.subprocess, "run",
                        _child(0, "noise", json.dumps(info), json.dumps(result)))
    assert trajectory._run(Path("."), "w", 1, 20) == {**result, "info": info}
    for child in (_child(1, json.dumps(info), json.dumps(result)), _child(0, "Traceback")):
        monkeypatch.setattr(trajectory.subprocess, "run", child)
        crashed = trajectory._run(Path("."), "w", 1, 20)
        assert (crashed["correct"], crashed["attempted"], crashed["failed"],
                crashed["metrics"]) == (False, 1, 1, {})


def test_fewer_pairs_than_a_verdict_needs_are_refused(tmp_path):
    with pytest.raises(SystemExit):
        trajectory.main([str(tmp_path), "--pairs", "9", "--out", str(tmp_path / "out.json")])
    assert not (tmp_path / "out.json").exists()


def _tree(root, edit=None):
    """A parent tree under ``root``: this perfbench/run.py and library, ``edit`` appended to group."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_bytes((ROOT / "perfbench" / "run.py").read_bytes())
    (root / "src" / "iodcrypt").mkdir(parents=True)
    for path in (ROOT / "src" / "iodcrypt").glob("*.py"):
        text = path.read_text() + (edit if edit and path.name == "group.py" else "")
        (root / "src" / "iodcrypt" / path.name).write_text(text)
    return root


def _pairs(monkeypatch, parent):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {**_run(0, setup_s=1.0, msgs_per_s=50.0), "info": {"env": {}}}
    monkeypatch.setattr(trajectory, "_run", lambda tree, workload, seed, seconds: record)
    report, writes = {}, []
    trajectory.pair_runs(parent, 10, [4401, 4402], spec, report, lambda: writes.append(1))
    assert len(writes) == len(spec["workloads"])
    return report


def test_each_side_of_the_pairs_is_named_by_its_own_source_digest(monkeypatch, tmp_path):
    # Each tree's own perfbench digests its own src/, whatever its path: a byte-for-byte
    # copy of the library names the same code, one more line in group does not.
    ours = trajectory._perfbench(ROOT)._source_digest()
    same = _pairs(monkeypatch, _tree(tmp_path / "same"))
    assert same["src_sha256"] == {"parent": ours, "change": ours} and not same["src_differs"]
    edited = _pairs(monkeypatch, _tree(tmp_path / "edited", "# one more line\n"))
    assert edited["src_sha256"]["change"] == ours and edited["src_differs"]
    expected = hashlib.sha256()
    for path in sorted((tmp_path / "edited" / "src" / "iodcrypt").glob("*.py")):
        expected.update(f"iodcrypt/{path.name}".encode() + b"\0" + path.read_bytes())
    assert edited["src_sha256"]["parent"] == expected.hexdigest()


def test_the_pair_mode_writes_the_keys_of_bench_36(monkeypatch, tmp_path):
    bench_36 = json.loads((ROOT / "BENCH_36.json").read_text())
    report = _pairs(monkeypatch, _tree(tmp_path))
    # BENCH_36's keys, and since then each side's source digest.
    assert report.keys() == bench_36.keys() | {"src_sha256", "src_differs"}
    assert report["workloads"].keys() == bench_36["workloads"].keys()
    for name, workload in bench_36["workloads"].items():
        ours = report["workloads"][name]
        assert ours.keys() == workload.keys()
        assert ours["parent"].keys() == workload["parent"].keys()
        for metric, summary in workload["metrics"].items():
            assert ours["metrics"][metric].keys() == summary.keys()
        assert ours["runs"]["change"][0].keys() == workload["runs"]["change"][0].keys()


def test_each_line_counts_once_docstring_before_code_before_comment():
    snippet = ('"""A module docstring,\n'
               'on two lines."""\n'
               "# a comment-only line\n"
               "x = 1  # a code line with a trailing comment\n"
               "\n"
               "def f():\n"
               '    """One line."""\n'
               "    return x\n")
    assert trajectory.line_kinds(snippet) == {
        "code": 3, "docstring": 3, "comment": 1, "blank": 1, "total": 8}


def test_every_block_runs_once_into_the_file_and_the_summary(monkeypatch, tmp_path, capsys):
    # run_bench refuses fewer than 10 rounds; quartiles need two values.
    for name, rounds in (("PROCESS_ROUNDS", 2), ("IN_PROCESS_ROUNDS", 10), ("COMB_BUILDS", 2),
                         ("DECODE_ROUNDS", 2)):
        monkeypatch.setattr(trajectory, name, rounds)
    out = tmp_path / "bench.json"
    assert trajectory.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert tuple(report) == trajectory.BLOCKS
    assert {"python", "cryptography", "nproc", "dont_write_bytecode", "no_site", "bytecode_cache",
            "preloaded"} <= report["env"].keys() and "sys" in report["env"]["preloaded"]
    source = report["source"]
    assert source["src"]["code"] == sum(m["code"] for m in source["modules"].values())
    assert set(source["modules"]) == {p.name for p in (ROOT / "src" / "iodcrypt").glob("*.py")}
    assert "iodcrypt.cli" in report["imports"]["library"]
    assert len(report["imports"]["largest"]) == 15
    assert report["process"]["ms"].keys() == {"sign", "verify", "encrypt", "decrypt"}
    # What each command's process loads: none of cryptography's public X25519 and AEAD
    # wrappers, which group takes from their binding.
    loads = report["process"]["loads"]
    assert loads.keys() == report["process"]["ms"].keys()
    assert report["process"]["watched"] == list(trajectory.WATCHED)
    assert all(load["modules"] > 0 and load["loaded"] == [] for load in loads.values())
    assert report["process"]["encrypt_slower"] in (0, 1, 2)
    from iodcrypt.bench import BENCH_OPS, REFERENCE_OP_ORDER
    in_process = report["in_process"]
    assert in_process["ms"].keys() == {*BENCH_OPS, "sign, SystemRandom",
                                       "reference_sign, SystemRandom"}
    assert in_process["criterion_8"].keys() == {"Random(3)", "SystemRandom"}
    assert in_process["pow_p58_us"].keys() == {"chain", "pow"}
    assert tuple(report["paper"]) == REFERENCE_OP_ORDER
    assert report["paper"]["sign"] == {"host": 1.0, "avr": 1.0, "arm": 1.0}
    summary = capsys.readouterr().out
    assert all(f"### {block}\n" in summary for block in trajectory.BLOCKS)
    assert f"| `src.code` | {source['src']['code']} |" in summary
