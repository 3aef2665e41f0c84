"""The value classes' own contract: construction, equality, hashing, immutability, reprs.

Every record is built twice from the same field values, once by keyword
and once by position, so each class's field names and order are pinned
here too.  Secrets (private scalars, the cached x*D, session keys, the
nonce scalars of a table) must never reach a repr, where a log line or a
traceback would carry them.
"""

from __future__ import annotations

import random

import pytest

from iodcrypt.bench import BenchResult, DeviceProfile, EnergyReport, ReferenceRow
from iodcrypt.bpv import BpvParams, PrecompTable, bpv_offline
from iodcrypt.encrypt import Ciphertext, SenderContext, enc_kg_sender, encrypt
from iodcrypt.errors import (InvalidIdentity, InvalidMeasurement, TableIntegrity,
                             UnsupportedParams)
from iodcrypt.group import G, OpCounter, Scalar
from iodcrypt.selfcert import (HangState, IdentityRecord, KgcKeypair, SelfCertKeypair,
                               SessionKey, aq_hang_finalize, aq_hang_initiate, aq_kg, kgc_setup)
from iodcrypt.sign import Signature, SignerContext, VerifierContext, sign

FIELDS = {
    BpvParams: ("v", "k", "allow_unsafe"),
    KgcKeypair: ("secret", "public"),
    IdentityRecord: ("drone_id", "commitment"),
    SelfCertKeypair: ("record", "secret", "cached_term"),
    HangState: ("ephemeral_secret", "message"),
    SessionKey: ("key", "transcript_hash"),
    Signature: ("s", "e"),
    SignerContext: ("keypair", "table"),
    VerifierContext: ("record", "system_public", "cached_key"),
    Ciphertext: ("ephemeral", "body", "tag"),
    SenderContext: ("table", "receiver"),
    DeviceProfile: ("name", "voltage", "current", "clock_hz"),
    BenchResult: ("op_name", "iterations", "median_seconds", "scalar_mults", "point_adds"),
    EnergyReport: ("profile", "time_seconds", "energy_joules"),
    ReferenceRow: ("op_name", "cycles", "energy_mj", "memory_bytes", "bandwidth"),
}
# These hold a PrecompTable, which is mutable and so unhashable.
UNHASHABLE = (SignerContext, SenderContext)


@pytest.fixture(scope="module")
def records():
    rng = random.Random(5150)
    kgc = kgc_setup(rng)
    a = aq_kg(kgc, b"rec-a", rng)
    b = aq_kg(kgc, b"rec-b", rng)
    params = BpvParams(4, 16, allow_unsafe=True)
    signer = SignerContext(a, bpv_offline(params, rng))
    sender = enc_kg_sender(b.record, kgc.public, params, rng)
    state = aq_hang_initiate(a, rng)
    session = aq_hang_finalize(a, state, aq_hang_initiate(b, rng).message)
    profile = DeviceProfile("bench", 3.3, 0.04, 1e8)
    found = [params, kgc, a.record, a, state, session, sign(signer, b"m", rng), signer,
             VerifierContext.build(a.record, kgc.public), encrypt(sender, b"m", rng),
             sender, profile,
             BenchResult("sign", 10, 1e-4, 0, 27), EnergyReport(profile, 1e-4, 1.3e-5),
             ReferenceRow("sign", 2_490_000, 15.57, 16_416, "64")]
    return {type(record): record for record in found}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_frozen_records_construct_compare_hash_and_refuse_assignment(records, cls):
    original = records[cls]
    values = [getattr(original, name) for name in FIELDS[cls]]
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    by_position = cls(*values)
    assert by_keyword == by_position == original
    assert not by_keyword != original
    if cls not in UNHASHABLE:
        assert hash(by_keyword) == hash(by_position) == hash(original)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(original, name, None)
        with pytest.raises(AttributeError):
            delattr(original, name)
    assert [getattr(original, name) for name in FIELDS[cls]] == values


def test_records_of_different_values_or_classes_differ(records):
    sig = records[Signature]
    assert Signature(sig.e, sig.s) != sig
    assert sig != (sig.s, sig.e)


def test_reprs_never_show_secrets(records):
    kgc, keypair = records[KgcKeypair], records[SelfCertKeypair]
    state, session = records[HangState], records[SessionKey]
    signer, sender = records[SignerContext], records[SenderContext]
    signer_nonces = list(signer.table.scalars)
    sender_nonces = list(sender.table.scalars)
    secrets = [
        (kgc, [kgc.secret]),
        (keypair, [keypair.secret, keypair.cached_term]),
        (signer.keypair, [keypair.secret, keypair.cached_term]),
        (state, [state.ephemeral_secret]),
        (session, [session.key]),
        # A table's nonce scalars: with one signature, each gives the key.
        (signer.table, signer_nonces),
        (sender.table, sender_nonces),
        (signer, [keypair.secret, *signer_nonces]),
        (sender, sender_nonces),
    ]
    for record, hidden in secrets:
        text = repr(record)
        assert text.startswith(type(record).__name__ + "(")
        for secret in hidden:
            raw = secret if isinstance(secret, bytes) else secret.encode()
            assert raw.hex() not in text
            assert repr(secret) not in text
            if isinstance(secret, Scalar):
                assert f"{secret.v:x}" not in text
    # Public fields stay visible.
    assert repr(keypair.record) in repr(keypair)
    assert repr(session.transcript_hash) in repr(session)
    assert repr(sender.table.owner_binding) in repr(sender)
    assert repr(signer.table.params) in repr(signer)


def test_bpv_params_equality_and_hash_ignore_allow_unsafe():
    safe, flagged = BpvParams(28, 256), BpvParams(28, 256, allow_unsafe=True)
    assert safe == flagged and hash(safe) == hash(flagged)
    assert safe.allow_unsafe is False and flagged.allow_unsafe is True
    assert BpvParams(v=18, k=1024) != safe


def test_precomp_table_is_mutable_unhashable_and_compares_stored(records):
    table = records[SenderContext].table
    twin = PrecompTable(table.params, table.bases, table.scalars, table.stored, table.owner_binding)
    assert twin == table
    twin.stored = [table.stored[0], table.stored[1][::-1]]
    assert twin != table
    twin.stored, twin.scalars = table.stored, table.scalars[::-1]
    assert twin != table
    plain = records[SignerContext].table
    assert PrecompTable(params=plain.params, bases=plain.bases, scalars=plain.scalars,
                        stored=plain.stored) == plain
    assert plain.owner_binding == b"" and plain != table
    with pytest.raises(TypeError):
        hash(table)


def test_op_counter_is_mutable_and_unhashable():
    ctr = OpCounter()
    assert ctr == OpCounter(0, 0) == OpCounter(scalar_mults=0, point_adds=0)
    ctr.point_adds += 3
    assert ctr == OpCounter(point_adds=3) and ctr != OpCounter()
    assert repr(ctr) == "OpCounter(scalar_mults=0, point_adds=3)"
    with pytest.raises(TypeError):
        hash(ctr)


def test_construction_runs_each_records_checks(records):
    table = records[SenderContext].table
    with pytest.raises(InvalidIdentity):
        IdentityRecord(drone_id="not-bytes", commitment=G)
    with pytest.raises(UnsupportedParams):
        BpvParams(v=3, k=7)
    with pytest.raises(InvalidMeasurement):
        DeviceProfile("bad", voltage=0.0, current=1.0)
    with pytest.raises(TableIntegrity):
        PrecompTable(table.params, table.bases, table.scalars[1:], table.stored, table.owner_binding)
    with pytest.raises(TableIntegrity):
        SenderContext(table=table, receiver=records[IdentityRecord])
    with pytest.raises(TypeError):
        Signature(Scalar(1))
    with pytest.raises(TypeError):
        Signature(Scalar(1), Scalar(2), e=Scalar(3))
