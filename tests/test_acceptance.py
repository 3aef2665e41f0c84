"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s -q`` to see the verdict
lines; each test also enforces its stated runtime budget.  The criteria
pin, in order:

 1. energy projection reproduces all frozen reference rows within 2%
 2. exact in-memory footprints of the signer and sender contexts
 3. issued keys pass verification; single-field tampers fail
 4. pairwise shared secrets are symmetric, match an algebraic oracle,
    and the cached x*D path is byte-exact with a reconstructed peer key
 5. signatures verify under both the production and the reference
    verifier; tampers and random strings are rejected
 6. exact operation counts: signing and encryption run with zero
    online scalar multiplications
 7. hybrid encryption round trips; every authenticated-payload tamper
    and wrong-recipient decryption raises MacMismatch, returning no
    plaintext
 8. precomputed signing is measurably faster than the reference signer
 9. subset-space accounting matches an exact big-integer oracle
10. every file format round-trips bit-exactly; random single-bit table
    corruption is always detected, in the open and the sealed format
"""

from __future__ import annotations

import math
import random
import time

import pytest

from iodcrypt.bench import (
    PROFILES,
    REFERENCE_ROWS,
    project_energy,
    run_bench,
)
from iodcrypt.bpv import (
    BpvParams,
    bpv_offline,
    dbpv_offline,
    deserialize_table,
    serialize_table,
    subset_space_bits,
)
from iodcrypt.encrypt import (
    Ciphertext,
    SenderContext,
    decrypt,
    deserialize_ciphertext_file,
    enc_kg_sender,
    encrypt,
    serialize_ciphertext_file,
)
from iodcrypt.errors import (
    BadMagic,
    IntegrityMismatch,
    MacMismatch,
    MalformedScalar,
    TruncatedFile,
    UnsupportedVersion,
)
from iodcrypt.group import G, OpCounter, Scalar, scalar_mult
from iodcrypt.selfcert import (
    aq_kg,
    aq_shared_static,
    deserialize_drone_keypair,
    deserialize_kgc_keypair,
    deserialize_record,
    deserialize_system_public,
    key_ver,
    kgc_setup,
    reconstruct_pub,
    serialize_drone_keypair,
    serialize_kgc_keypair,
    serialize_record,
    serialize_system_public,
)
from iodcrypt.sign import (
    SignerContext,
    VerifierContext,
    decode_signature,
    deserialize_signature_file,
    reference_verify,
    serialize_signature_file,
    sign,
    sign_kg,
    verify,
)

PRODUCTION = BpvParams(v=28, k=256)


def _pass(number: int, detail: str) -> None:
    print(f"\ncriterion {number:>2}: PASS - {detail}")


# ---------------------------------------------------------------------------
# Shared module-scope material (issued once, reused across criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def kgc():
    return kgc_setup(random.Random(9001))


@pytest.fixture(scope="module")
def signer_ctx(kgc):
    return sign_kg(kgc, b"acceptance-signer", PRODUCTION, random.Random(9002))


@pytest.fixture(scope="module")
def verifier_ctx(kgc, signer_ctx):
    return VerifierContext.build(signer_ctx.keypair.record, kgc.public)


@pytest.fixture(scope="module")
def recipient(kgc):
    return aq_kg(kgc, b"acceptance-recipient", random.Random(9003))


@pytest.fixture(scope="module")
def sender_ctx(kgc, recipient):
    return enc_kg_sender(recipient.record, kgc.public, PRODUCTION, random.Random(9004))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_energy_arithmetic_reproduction():
    start = time.perf_counter()
    worst = 0.0
    rows = 0
    for (profile_name, op_name), row in REFERENCE_ROWS.items():
        report = project_energy(PROFILES[profile_name], cycles=row.cycles)
        projected_mj = report.energy_joules * 1e3
        rel = abs(projected_mj - row.energy_mj) / row.energy_mj
        worst = max(worst, rel)
        assert rel <= 0.02, (profile_name, op_name, projected_mj, row.energy_mj)
        rows += 1
    elapsed = time.perf_counter() - start
    assert rows == 12
    assert elapsed < 1.0
    _pass(1, f"energy projection matches all {rows} reference rows within 2% "
             f"(worst deviation {worst:.3%}, {elapsed:.3f}s)")


def test_criterion_02_memory_figures(signer_ctx, sender_ctx):
    start = time.perf_counter()
    assert signer_ctx.memory_bytes == 16_416
    assert sender_ctx.memory_bytes == 24_608
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(2, f"signer context {signer_ctx.memory_bytes} B and sender context "
             f"{sender_ctx.memory_bytes} B match exactly ({elapsed:.3f}s)")


def test_criterion_03_implicit_certificate_soundness(kgc):
    rng = random.Random(9103)
    start = time.perf_counter()
    honest = tampered = 0
    for i in range(1000):
        keypair = aq_kg(kgc, f"unit-{i}".encode(), rng)
        assert key_ver(keypair.record, keypair.secret, kgc.public)
        honest += 1

        record, secret, system = keypair.record, keypair.secret, kgc.public
        kind = i % 4
        if kind == 0:  # wrong private key
            secret = Scalar(secret.v + 1)
        elif kind == 1:  # wrong commitment point
            record = type(record)(record.drone_id, record.commitment + G)
        elif kind == 2:  # wrong identity
            record = type(record)(record.drone_id + b"!", record.commitment)
        else:  # wrong system key
            system = system + G
        assert not key_ver(record, secret, system)
        tampered += 1
    elapsed = time.perf_counter() - start
    assert honest == tampered == 1000
    assert elapsed < 30.0
    _pass(3, f"{honest}/1000 honest keys pass, {tampered}/1000 single-field "
             f"tampers fail ({elapsed:.1f}s)")


def test_criterion_04_shared_secret_symmetry(kgc):
    rng = random.Random(9104)
    start = time.perf_counter()
    for i in range(1000):
        a = aq_kg(kgc, f"pair-a-{i}".encode(), rng)
        b = aq_kg(kgc, f"pair-b-{i}".encode(), rng)
        k_ab = aq_shared_static(a, b.record)
        k_ba = aq_shared_static(b, a.record)
        oracle = Scalar(a.secret.v * b.secret.v) * G
        assert k_ab == k_ba == oracle
        recomputed = scalar_mult(a.secret, reconstruct_pub(b.record, kgc.public))
        assert recomputed.encode() == k_ab.encode()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(4, "1000/1000 pairs symmetric and equal to (x_a*x_b)*G; cached x*D and "
             f"reconstructed peer key byte-exact ({elapsed:.1f}s)")


def test_criterion_05_signature_oracle_equivalence(signer_ctx, verifier_ctx):
    rng = random.Random(9105)
    start = time.perf_counter()
    public_key = scalar_mult(signer_ctx.keypair.secret, G)

    verified = 0
    for i in range(1000):
        message = rng.randbytes(rng.randrange(0, 128))
        sig = sign(signer_ctx, message, rng)
        assert verify(verifier_ctx, message, sig)
        assert reference_verify(public_key, message, sig)
        verified += 1

        tampered = bytearray(message or b"\x00")
        bit = rng.randrange(len(tampered) * 8)
        tampered[bit // 8] ^= 1 << (bit % 8)
        assert not verify(verifier_ctx, bytes(tampered), sig)

    accepted = 0
    for _ in range(100_000):
        blob = rng.randbytes(64)
        try:
            candidate = decode_signature(blob)
        except MalformedScalar:
            continue
        if verify(verifier_ctx, b"fixed target message", candidate):
            accepted += 1
    elapsed = time.perf_counter() - start
    assert verified == 1000
    assert accepted == 0
    assert elapsed < 60.0
    _pass(5, f"{verified}/1000 signatures pass both verifiers, 1000/1000 "
             f"tampers fail, {accepted}/100000 random strings accepted "
             f"({elapsed:.1f}s)")


def test_criterion_06_zero_online_multiplication_counts(
        signer_ctx, verifier_ctx, sender_ctx, recipient):
    rng = random.Random(9106)
    start = time.perf_counter()
    v = PRODUCTION.v
    for _ in range(50):
        message = rng.randbytes(48)

        with OpCounter() as ctr:
            sig = sign(signer_ctx, message, rng)
        assert (ctr.scalar_mults, ctr.point_adds) == (0, v - 1)

        with OpCounter() as ctr:
            assert verify(verifier_ctx, message, sig)
        assert ctr.scalar_mults == 2

        with OpCounter() as ctr:
            ct = encrypt(sender_ctx, message, rng)
        assert (ctr.scalar_mults, ctr.point_adds) == (0, 2 * (v - 1))

        with OpCounter() as ctr:
            assert decrypt(recipient, ct) == message
        assert ctr.scalar_mults == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(6, f"50 rounds: sign (0 mults, {v - 1} adds), encrypt (0 mults, "
             f"{2 * (v - 1)} adds), decrypt 1 mult, verify 2 mults "
             f"({elapsed:.1f}s)")


def test_criterion_07_hybrid_encryption_correctness(
        kgc, sender_ctx, recipient):
    rng = random.Random(9107)
    start = time.perf_counter()

    ciphertexts: list[tuple[bytes, Ciphertext]] = []
    for i in range(1000):
        if i == 0:
            length = 0
        elif i == 1:
            length = 4096
        else:
            length = rng.randrange(0, 4097)
        message = rng.randbytes(length)
        ct = encrypt(sender_ctx, message, rng)
        assert len(ct.encode()) - len(message) == 48
        assert decrypt(recipient, ct) == message
        ciphertexts.append((message, ct))

    for i in range(1000):
        message, ct = ciphertexts[rng.randrange(len(ciphertexts))]
        payload = bytearray(ct.body + ct.tag)
        if not payload:
            continue
        bit = rng.randrange(len(payload) * 8)
        payload[bit // 8] ^= 1 << (bit % 8)
        tampered = Ciphertext(
            ephemeral=ct.ephemeral,
            body=bytes(payload[: len(ct.body)]),
            tag=bytes(payload[len(ct.body):]),
        )
        with pytest.raises(MacMismatch):
            decrypt(recipient, tampered)

    stranger = aq_kg(kgc, b"not-the-recipient", rng)
    for i in range(200):
        _, ct = ciphertexts[rng.randrange(len(ciphertexts))]
        with pytest.raises(MacMismatch):
            decrypt(stranger, ct)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(7, "1000/1000 round trips (lengths 0-4096, overhead 48 B); 1000 "
             "payload tampers and 200 wrong-recipient decryptions all "
             f"raise MacMismatch ({elapsed:.1f}s)")


def test_criterion_08_desk_scale_speedup():
    start = time.perf_counter()
    fast, slow = (result.median_seconds
                  for result in run_bench(("sign", "reference_sign"), 100, random.Random(9108)))
    ratio = slow / fast
    elapsed = time.perf_counter() - start
    assert fast < slow
    assert ratio >= 1.2
    assert elapsed < 60.0
    _pass(8, f"median sign {fast * 1e3:.3f} ms vs reference "
             f"{slow * 1e3:.3f} ms: {ratio:.1f}x faster "
             f"({elapsed:.1f}s)")


def test_criterion_09_subset_space_accounting():
    start = time.perf_counter()
    results = {}
    for v, k in ((28, 256), (18, 1024)):
        computed = subset_space_bits(BpvParams(v=v, k=k, allow_unsafe=True))
        oracle = math.log2(math.comb(k, v))
        assert abs(computed - oracle) <= 1e-6 * oracle
        results[(v, k)] = computed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(9, "subset space matches the exact binomial oracle: "
             f"(28,256) -> 2^{results[(28, 256)]:.2f}, "
             f"(18,1024) -> 2^{results[(18, 1024)]:.2f}, both checked against "
             f"the advertised 2^128 work factor ({elapsed:.3f}s)")


def test_criterion_10_serialization_robustness(kgc, signer_ctx, sender_ctx, recipient):
    rng = random.Random(9110)
    start = time.perf_counter()

    message = b"serialization check payload"
    sig = sign(signer_ctx, message, rng)
    ct = encrypt(sender_ctx, message, rng)
    small = bpv_offline(BpvParams(4, 16, allow_unsafe=True), rng)
    small_designated = dbpv_offline(
        BpvParams(4, 16, allow_unsafe=True), sender_ctx.table.bases[1],
        sender_ctx.table.owner_binding, rng)

    round_trips = [
        (serialize_table, deserialize_table, signer_ctx.table),
        (serialize_table, deserialize_table, sender_ctx.table),
        (serialize_table, deserialize_table, small),
        (serialize_table, deserialize_table, small_designated),
        (serialize_system_public, deserialize_system_public, kgc.public),
        (serialize_kgc_keypair, deserialize_kgc_keypair, kgc),
        (serialize_drone_keypair, deserialize_drone_keypair, recipient),
        (serialize_record, deserialize_record, recipient.record),
        (serialize_ciphertext_file, deserialize_ciphertext_file, ct),
    ]
    formats = 0
    for dump, load, value in round_trips:
        blob = dump(value)
        assert dump(load(blob)) == blob
        formats += 1
    sig_blob = serialize_signature_file(signer_ctx.keypair.record.drone_id, sig)
    signer_id, parsed_sig = deserialize_signature_file(sig_blob)
    assert serialize_signature_file(signer_id, parsed_sig) == sig_blob
    formats += 1

    table_blob = serialize_table(signer_ctx.table)
    detected = 0
    for _ in range(1000):
        corrupted = bytearray(table_blob)
        bit = rng.randrange(len(corrupted) * 8)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(IntegrityMismatch):
            deserialize_table(bytes(corrupted))
        detected += 1

    # The sealed format: re-sealing under the same key, with a source that
    # draws the same nonce, gives the same bytes.
    seal_key = rng.randbytes(32)
    for table in (signer_ctx.table, sender_ctx.table, small, small_designated):
        blob = serialize_table(table, seal_key=seal_key, rng=random.Random(9111))
        again = deserialize_table(blob, seal_key=seal_key)
        assert serialize_table(again, seal_key=seal_key, rng=random.Random(9111)) == blob
    formats += 1

    # A sealed table checks its header before its tag: a flip in the 14
    # bytes the header rule reads (magic, group id, kind, k) raises that
    # rule's error; a flip anywhere after them breaks the tag.
    sealed_blob = serialize_table(signer_ctx.table, seal_key=seal_key, rng=rng)
    header_rule = (BadMagic, UnsupportedVersion, TruncatedFile)
    sealed_detected = in_header = 0
    for _ in range(1000):
        corrupted = bytearray(sealed_blob)
        bit = rng.randrange(len(corrupted) * 8)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        in_header += bit < 14 * 8
        with pytest.raises(header_rule if bit < 14 * 8 else IntegrityMismatch):
            deserialize_table(bytes(corrupted), seal_key=seal_key)
        sealed_detected += 1
    elapsed = time.perf_counter() - start
    assert detected == sealed_detected == 1000
    assert elapsed < 30.0
    _pass(10, f"{formats} file formats round-trip bit-exactly; 1000/1000 "
              f"single-bit open-table corruptions detected; 1000/1000 sealed "
              f"({1000 - in_header} by the tag, {in_header} by the header rule) "
              f"({elapsed:.1f}s)")
