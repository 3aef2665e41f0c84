"""Tests for the benchmark harness and the energy-projection arithmetic."""

import json
import random

import pytest

from iodcrypt.bench import (
    BENCH_OPS,
    WARMUP_ITERATIONS,
    BenchResult,
    DeviceProfile,
    PROFILES,
    REFERENCE_OP_ORDER,
    REFERENCE_ROWS,
    _prepare_workload,
    device_report,
    format_ldjson,
    format_text_table,
    host_report,
    project_energy,
    run_bench,
)
from iodcrypt import bench, encrypt as encrypt_module
from iodcrypt.errors import InvalidMeasurement, UnknownOp

AVR = PROFILES["avr"]
ARM = PROFILES["arm"]


# --------------------------------------------------------------------------
# Energy arithmetic
# --------------------------------------------------------------------------


def test_energy_is_exactly_voltage_times_current_times_time():
    report = project_energy(AVR, seconds=0.25)
    assert report.energy_joules == 5.0 * 0.020 * 0.25
    assert report.time_seconds == 0.25


def test_cycles_convert_through_the_clock_rate():
    report = project_energy(ARM, cycles=168_000_000)
    assert report.time_seconds == pytest.approx(1.0)
    assert report.energy_joules == pytest.approx(3.3 * 0.040)


def test_every_reference_row_reproduces_its_published_energy():
    for (profile_name, _op), ref in REFERENCE_ROWS.items():
        projected = project_energy(PROFILES[profile_name], cycles=ref.cycles)
        assert projected.energy_joules * 1e3 == pytest.approx(ref.energy_mj, rel=0.02)


def test_spot_values_on_both_profiles():
    sig_avr = project_energy(AVR, cycles=2_490_000)
    assert sig_avr.time_seconds == pytest.approx(0.1556, rel=1e-3)
    assert sig_avr.energy_joules * 1e3 == pytest.approx(15.57, rel=0.01)
    sig_arm = project_energy(ARM, cycles=302_000)
    assert sig_arm.time_seconds == pytest.approx(1.80e-3, rel=1e-2)
    assert sig_arm.energy_joules * 1e3 == pytest.approx(0.24, rel=0.02)


def test_non_positive_inputs_rejected():
    for kwargs in (
        dict(cycles=0),
        dict(cycles=-100),
        dict(seconds=0.0),
        dict(seconds=-0.5),
    ):
        with pytest.raises(InvalidMeasurement):
            project_energy(AVR, **kwargs)


def test_exactly_one_of_cycles_or_seconds():
    with pytest.raises(InvalidMeasurement):
        project_energy(AVR)
    with pytest.raises(InvalidMeasurement):
        project_energy(AVR, cycles=100, seconds=0.1)


def test_cycles_need_a_clock_rate():
    host = DeviceProfile(name="host", voltage=1.0, current=0.5)
    with pytest.raises(InvalidMeasurement):
        project_energy(host, cycles=1000)
    assert project_energy(host, seconds=2.0).energy_joules == 1.0


def test_profile_validation():
    with pytest.raises(InvalidMeasurement):
        DeviceProfile(name="bad", voltage=0.0, current=0.02)
    with pytest.raises(InvalidMeasurement):
        DeviceProfile(name="bad", voltage=5.0, current=-0.02)
    with pytest.raises(InvalidMeasurement):
        DeviceProfile(name="bad", voltage=5.0, current=0.02, clock_hz=0)


# --------------------------------------------------------------------------
# Host benchmarks
# --------------------------------------------------------------------------


def test_unknown_selector_and_iteration_floor():
    with pytest.raises(UnknownOp):
        run_bench(("made_up_op",), 10, random.Random(1))
    with pytest.raises(ValueError):
        run_bench(("sign",), 9, random.Random(1))


def test_bench_times_the_ops_round_robin(monkeypatch):
    calls = []

    def logging_workload(op_name, rng):
        if op_name not in ("a", "b", "c"):
            raise UnknownOp(op_name)
        return lambda: calls.append(op_name)

    monkeypatch.setattr(bench, "_prepare_workload", logging_workload)
    results = run_bench(("a", "b", "c"), 11)
    rounds = (["a", "b", "c"] + ["c", "b", "a"]) * 5 + ["a", "b", "c"]
    warm_up = [name for name in "abc" for _ in range(WARMUP_ITERATIONS)]
    assert calls == warm_up + rounds + ["a", "b", "c"]
    assert [result.op_name for result in results] == ["a", "b", "c"]
    assert all(result.iterations == 11 for result in results)

    calls.clear()
    with pytest.raises(UnknownOp):
        run_bench(("a", "made_up_op"), 10)
    assert calls == []


def test_bench_counts_match_the_analytical_budgets():
    rng = random.Random(2)
    expectations = {
        "bpv_online": (0, 27),
        "dbpv_online": (0, 54),
        "sign": (0, 27),
        "verify": (2, 1),
        "reference_sign": (1, 0),
        "encrypt": (0, 54),
        "decrypt": (1, 0),
        "aq_shared": (1, 1),
        # Table-fed initiate + the ephemeral part; the warm-up met the peer, so the
        # counted run reuses the static point (first contact is (2, 28)).
        "aq_hang": (1, 27),
        "table_load": (256, 0),  # open format: k products computed from the scalars
        "table_open": (0, 0),  # sealed format: no group operation
    }
    assert set(expectations) == set(BENCH_OPS)
    for op_name, result in zip(BENCH_OPS, run_bench(BENCH_OPS, 10, rng), strict=True):
        mults, adds = expectations[op_name]
        assert isinstance(result, BenchResult)
        assert result.op_name == op_name
        assert result.iterations == 10
        assert result.median_seconds > 0
        assert (result.scalar_mults, result.point_adds) == (mults, adds), op_name


def test_decrypt_workload_decodes_the_ciphertext_every_iteration(monkeypatch):
    work = _prepare_workload("decrypt", random.Random(5))
    decoded = []
    real = encrypt_module.decode_u
    monkeypatch.setattr(encrypt_module, "decode_u",
                        lambda data: decoded.append(data) or real(data))
    outputs = [work() for _ in range(3)]
    assert outputs == [b"benchmark message"] * 3
    assert len(decoded) == 3 and len(set(decoded)) == 1


def test_precomputed_signing_beats_the_reference_signer():
    fast, slow = (result.median_seconds
                  for result in run_bench(("sign", "reference_sign"), 30, random.Random(3)))
    assert fast < slow
    assert slow / fast >= 1.2


# --------------------------------------------------------------------------
# Report emission
# --------------------------------------------------------------------------


def test_device_report_covers_all_ops_and_recomputes_energy():
    rows = device_report("avr")
    assert [row["op"] for row in rows] == list(REFERENCE_OP_ORDER)
    for row in rows:
        assert row["energy_mj"] == pytest.approx(row["reported_energy_mj"], rel=0.02)
    with pytest.raises(UnknownOp):
        device_report("z80")


def test_ldjson_rows_parse_back():
    rows = device_report("arm")
    lines = format_ldjson(rows).splitlines()
    assert len(lines) == len(rows)
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["profile"] == "arm"
    assert {row["op"] for row in parsed} == set(REFERENCE_OP_ORDER)


def test_text_table_is_aligned_and_complete():
    rows = device_report("avr")
    text = format_text_table(rows)
    lines = text.splitlines()
    assert len(lines) == len(rows) + 2  # header + rule
    assert lines[0].startswith("profile")
    assert all(op in text for op in REFERENCE_OP_ORDER)
    assert format_text_table([]) == ""


def test_host_report_attaches_energy_when_profiled():
    result = BenchResult("sign", 10, 0.5, 0, 27)
    bare = host_report([result])
    assert "energy_mj" not in bare[0]
    powered = host_report([result], ARM)
    assert powered[0]["energy_mj"] == pytest.approx(3.3 * 0.040 * 0.5 * 1e3)
