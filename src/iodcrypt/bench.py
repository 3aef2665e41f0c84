"""Benchmark harness and energy projection for constrained devices.

Two jobs live here:

* ``run_bench`` measures operations on the host, round-robin: fixed
  warm-up, median wall time over N rounds, and the exact per-call
  group-operation counts from an :class:`~iodcrypt.group.OpCounter`.
* ``project_energy`` converts an execution time into joules via
  E = V * I * t for a device profile.  A cycle count converts to a time
  first, as ``cycles / profile.clock_hz``.

The module also carries previously reported reference measurements for
two embedded targets — an 8-bit AVR (ATmega2560-class: 5 V, 20 mA,
16 MHz) and a Cortex-M4 (STM32F4-class: 3.3 V, 40 mA, 168 MHz) — cycle
counts, storage footprints, message sizes, and published energy figures
per operation.  Feeding a row's time, its cycles over the profile's
clock rate, through ``project_energy`` reproduces its published energy
figure to well within rounding, which pins the energy arithmetic to the
reference data.

Report emission supports an aligned text table (operation, cycles or
time, memory, bandwidth, energy) and line-delimited JSON.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable, Sequence

from .errors import InvalidMeasurement, UnknownOp
from .group import OpCounter, record

WARMUP_ITERATIONS = 10
MIN_ITERATIONS = 10


@record
class DeviceProfile:
    """Electrical operating point of a target device."""

    name: str
    voltage: float
    current: float
    clock_hz: float | None = None

    def __post_init__(self):
        if self.voltage <= 0 or self.current <= 0:
            raise InvalidMeasurement("voltage and current must be strictly positive")
        if self.clock_hz is not None and self.clock_hz <= 0:
            raise InvalidMeasurement("clock rate must be strictly positive")


PROFILES = {
    "avr": DeviceProfile(name="avr", voltage=5.0, current=0.020, clock_hz=16e6),
    "arm": DeviceProfile(name="arm", voltage=3.3, current=0.040, clock_hz=168e6),
}


@record
class BenchResult:
    """One measured operation: median latency plus exact group-op counts."""

    op_name: str
    iterations: int
    median_seconds: float
    scalar_mults: int
    point_adds: int


@record
class ReferenceRow:
    """Previously reported embedded-target figures for one operation.

    ``cycles`` and ``energy_mj`` are the published measurement pair;
    ``memory_bytes`` is the long-lived state (precomputation entries
    plus the 32-byte private scalar where applicable) and ``bandwidth``
    the bytes a party transmits.
    """

    cycles: int
    energy_mj: float
    memory_bytes: int
    bandwidth: str


REFERENCE_ROWS: dict[tuple[str, str], ReferenceRow] = {
    ("avr", "aq_shared"): ReferenceRow(6_940_000, 43.38, 32, "32"),
    ("avr", "aq_hang"): ReferenceRow(9_140_000, 57.14, 16_416, "32"),
    ("avr", "sign"): ReferenceRow(2_490_000, 15.57, 16_416, "64"),
    ("avr", "verify"): ReferenceRow(8_310_000, 51.94, 32, "64"),
    ("avr", "encrypt"): ReferenceRow(4_290_000, 26.80, 24_608, "32+|c|+16"),
    ("avr", "decrypt"): ReferenceRow(6_980_000, 43.61, 32, "32+|c|+16"),
    ("arm", "aq_shared"): ReferenceRow(556_000, 0.44, 32, "32"),
    ("arm", "aq_hang"): ReferenceRow(764_000, 0.60, 16_416, "32"),
    ("arm", "sign"): ReferenceRow(302_000, 0.24, 16_416, "64"),
    ("arm", "verify"): ReferenceRow(695_000, 0.55, 32, "64"),
    ("arm", "encrypt"): ReferenceRow(374_000, 0.29, 24_608, "32+|c|+16"),
    ("arm", "decrypt"): ReferenceRow(570_000, 0.45, 32, "32+|c|+16"),
}

REFERENCE_OP_ORDER = ("aq_shared", "aq_hang", "sign", "verify", "encrypt", "decrypt")


def project_energy(profile: DeviceProfile, seconds: float) -> float:
    """Joules one execution of ``seconds`` spends on ``profile``: E = V * I * t.

    A cycle count converts to seconds first, as ``cycles / profile.clock_hz``.
    A time that is not strictly positive raises InvalidMeasurement.
    """
    if seconds <= 0:
        raise InvalidMeasurement("execution time must be strictly positive")
    return profile.voltage * profile.current * seconds


# ---------------------------------------------------------------------------
# Host benchmarks
# ---------------------------------------------------------------------------


def _prepare_workload(op_name: str, rng) -> Callable[[], object]:
    """Build fixtures for ``op_name`` and return its one-iteration closure.

    The protocol modules are imported here, so the reports and the energy
    projection load none of them.
    """
    from .bpv import (BpvParams, bpv_offline, bpv_online, dbpv_online, deserialize_table,
                      serialize_table)
    from .encrypt import decode_ciphertext, decrypt, enc_kg_sender, encrypt
    from .selfcert import (SelfCertKeypair, aq_hang_finalize, aq_hang_initiate, aq_kg,
                           aq_shared_static, kgc_setup)
    from .sign import VerifierContext, reference_sign, reference_verify, sign, sign_kg, verify

    params = BpvParams(28, 256)
    if op_name == "bpv_online":
        table = bpv_offline(params, rng)
        return lambda: bpv_online(table, rng)
    if op_name == "table_load":
        blob = serialize_table(bpv_offline(params, rng))
        return lambda: deserialize_table(blob)
    if op_name == "table_open":
        key = rng.randrange(1 << 256).to_bytes(32, "little")
        blob = serialize_table(bpv_offline(params, rng), seal_key=key, rng=rng)
        return lambda: deserialize_table(blob, seal_key=key)

    kgc = kgc_setup(rng)

    if op_name in ("dbpv_online", "table_load_designated", "encrypt", "decrypt"):
        receiver = aq_kg(kgc, b"bench-recv", rng)
        sender = enc_kg_sender(receiver.record, kgc.public, params, rng)
        if op_name == "dbpv_online":
            return lambda: dbpv_online(sender.table, rng)
        if op_name == "table_load_designated":
            blob = serialize_table(sender.table)
            return lambda: deserialize_table(blob)
        if op_name == "encrypt":
            return lambda: encrypt(sender, b"benchmark message", rng)
        # Decoded on every iteration, as a receiver does, so the time
        # includes the subgroup check of u(R): two X25519 calls in all.
        wire = encrypt(sender, b"benchmark message", rng).encode()
        return lambda: decrypt(receiver, decode_ciphertext(wire))
    if op_name in ("sign", "verify", "reference_sign", "reference_verify"):
        ctx = sign_kg(kgc, b"bench-signer", params, rng)
        if op_name == "sign":
            return lambda: sign(ctx, b"benchmark message", rng)
        if op_name == "reference_sign":
            secret = ctx.keypair.secret
            return lambda: reference_sign(secret, b"benchmark message", rng)
        vctx = VerifierContext.build(ctx.keypair.record, kgc.public)
        sig = sign(ctx, b"benchmark message", rng)
        if op_name == "reference_verify":  # s * G on the comb, e * X on X25519
            return lambda: reference_verify(vctx.cached_key, b"benchmark message", sig)
        return lambda: verify(vctx, b"benchmark message", sig)
    if op_name in ("aq_shared", "aq_hang", "aq_hang_first"):
        a = aq_kg(kgc, b"bench-a", rng)
        b = aq_kg(kgc, b"bench-b", rng)
        if op_name == "aq_shared":
            return lambda: aq_shared_static(a, b.record)
        # One peer throughout: from the warm-up on, a knows its record (a known-peer handshake).
        peer_message = aq_hang_initiate(b, rng).message

        def one_handshake(own=a):
            return aq_hang_finalize(own, aq_hang_initiate(own, rng), peer_message)

        if op_name == "aq_hang_first":  # a copy of a, whose empty peer cache makes a first contact
            return lambda: one_handshake(SelfCertKeypair(a.record, a.secret, a.cached_term))
        return one_handshake

    raise UnknownOp(f"no benchmark workload named {op_name!r}")


BENCH_OPS = (
    "bpv_online",
    "dbpv_online",
    "sign",
    "verify",
    "reference_sign",
    "reference_verify",
    "encrypt",
    "decrypt",
    "aq_shared",
    "aq_hang",
    "aq_hang_first",
    "table_load",
    "table_load_designated",
    "table_open",
)


def run_bench(op_names: Sequence[str], iterations: int, rng) -> list[BenchResult]:
    """Measure ``op_names`` round-robin: warm-up, timed rounds, one counted run each.

    Each round calls every op once, in reverse order every other round, so
    that drift in host speed lands on every median alike; a sequential
    median can misrank two ops.  One result per op, in the given order.
    """
    if iterations < MIN_ITERATIONS:
        raise ValueError(f"iterations must be at least {MIN_ITERATIONS}")
    works = [_prepare_workload(op_name, rng) for op_name in op_names]
    for work in works:
        for _ in range(WARMUP_ITERATIONS):
            work()
    timed = [(work, []) for work in works]
    for i in range(iterations):
        for work, samples in (timed if i % 2 == 0 else timed[::-1]):
            start = time.perf_counter()
            work()
            samples.append(time.perf_counter() - start)
    results = []
    for op_name, (work, samples) in zip(op_names, timed):
        with OpCounter() as ctr:
            work()
        results.append(BenchResult(op_name, iterations, statistics.median(samples),
                                   ctr.scalar_mults, ctr.point_adds))
    return results


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def device_report(profile_name: str) -> list[dict]:
    """Reference rows for one device, with energy recomputed from cycles."""
    if profile_name not in PROFILES:
        raise UnknownOp(f"no reference data for profile {profile_name!r}")
    profile = PROFILES[profile_name]
    rows = []
    for op_name in REFERENCE_OP_ORDER:
        ref = REFERENCE_ROWS[(profile_name, op_name)]
        seconds = ref.cycles / profile.clock_hz
        rows.append(
            {
                "profile": profile_name,
                "op": op_name,
                "cycles": ref.cycles,
                "time_s": seconds,
                "memory_bytes": ref.memory_bytes,
                "bandwidth_bytes": ref.bandwidth,
                "energy_mj": project_energy(profile, seconds) * 1e3,
                "reported_energy_mj": ref.energy_mj,
            }
        )
    return rows


def host_report(results: list[BenchResult], profile: DeviceProfile | None = None) -> list[dict]:
    """Host measurements as rows; optional energy at a supplied profile."""
    rows = []
    for result in results:
        row = {
            "profile": "host",
            "op": result.op_name,
            "iterations": result.iterations,
            "time_s": result.median_seconds,
            "scalar_mults": result.scalar_mults,
            "point_adds": result.point_adds,
        }
        if profile is not None:
            row["energy_mj"] = project_energy(profile, result.median_seconds) * 1e3
        rows.append(row)
    return rows


def format_ldjson(rows: list[dict]) -> str:
    return "\n".join(json.dumps(row, sort_keys=True) for row in rows)


def format_text_table(rows: list[dict]) -> str:
    """Aligned text table over the union of the rows' columns."""
    if not rows:
        return ""
    columns = list(dict.fromkeys(key for row in rows for key in row))

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    table = [columns] + [[fmt(row.get(col, "-")) for col in columns] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
