"""Tests for self-certified keys, static secrets, and the handshake."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from iodcrypt.bpv import BpvParams, bpv_offline
from iodcrypt.errors import (
    BadMagic,
    InvalidEphemeral,
    InvalidIdentity,
    MalformedElement,
    TruncatedFile,
    UnsupportedVersion,
)
from iodcrypt.group import G, IDENTITY, OpCounter, Scalar
from iodcrypt.selfcert import (
    IdentityRecord,
    KgcKeypair,
    SelfCertKeypair,
    aq_hang_finalize,
    aq_hang_initiate,
    aq_kg,
    aq_shared_static,
    deserialize_drone_keypair,
    deserialize_kgc_keypair,
    deserialize_record,
    deserialize_system_public,
    kgc_setup,
    key_ver,
    parse_record,
    reconstruct_pub,
    serialize_drone_keypair,
    serialize_kgc_keypair,
    serialize_record,
    serialize_system_public,
)


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(2024)
    kgc = kgc_setup(rng)
    a = aq_kg(kgc, b"drone-a", rng)
    b = aq_kg(kgc, b"drone-b", rng)
    return kgc, a, b


# --------------------------------------------------------------------------
# Issuance and verification
# --------------------------------------------------------------------------


def test_issued_key_satisfies_reconstruction_equation(setup):
    kgc, a, _ = setup
    assert a.secret * G == a.record.key_hash() * a.record.commitment + kgc.public
    assert reconstruct_pub(a.record, kgc.public) == a.secret * G


def test_cached_term_is_secret_times_system_key(setup):
    kgc, a, _ = setup
    assert a.cached_term == a.secret * kgc.public


def test_key_ver_accepts_honest_keys(setup):
    kgc, a, b = setup
    assert key_ver(a.record, a.secret, kgc.public) is True
    assert key_ver(b.record, b.secret, kgc.public) is True


def test_key_ver_rejects_each_tampered_field(setup):
    kgc, a, b = setup
    altered_id = IdentityRecord(b"drone-x", a.record.commitment)
    altered_commit = IdentityRecord(a.record.drone_id, b.record.commitment)
    assert not key_ver(altered_id, a.secret, kgc.public)
    assert not key_ver(altered_commit, a.secret, kgc.public)
    assert not key_ver(a.record, a.secret + Scalar(1), kgc.public)
    assert not key_ver(a.record, b.secret, kgc.public)
    other = kgc_setup(random.Random(5))
    assert not key_ver(a.record, a.secret, other.public)


def test_key_ver_cost(setup):
    kgc, a, _ = setup
    ctr = OpCounter()
    assert key_ver(a.record, a.secret, kgc.public, ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (2, 1)


def test_issuance_rejects_bad_identities(setup):
    kgc, _, _ = setup
    rng = random.Random(6)
    with pytest.raises(InvalidIdentity):
        aq_kg(kgc, b"", rng)
    with pytest.raises(InvalidIdentity):
        aq_kg(kgc, b"x" * 256, rng)
    with pytest.raises(InvalidIdentity):
        aq_kg(kgc, "not-bytes", rng)
    assert aq_kg(kgc, b"y" * 255, rng).record.drone_id == b"y" * 255


def test_issuance_op_costs(setup):
    kgc, _, _ = setup
    ctr = OpCounter()
    kgc_setup(random.Random(7), ctr)
    assert ctr.scalar_mults == 1
    ctr.reset()
    aq_kg(kgc, b"drone-c", random.Random(8), ctr)
    assert ctr.scalar_mults == 2


# --------------------------------------------------------------------------
# Static shared secret
# --------------------------------------------------------------------------


def test_shared_secret_matches_algebraic_oracle_and_is_symmetric(setup):
    kgc, a, b = setup
    expected = (a.secret * b.secret) * G
    assert aq_shared_static(a, b.record) == expected
    assert aq_shared_static(b, a.record) == expected


def test_cached_and_recomputed_paths_agree_byte_for_byte(setup):
    kgc, a, b = setup
    cached = aq_shared_static(a, b.record)
    recomputed = aq_shared_static(dataclasses.replace(a, cached_term=None), b.record,
                                  system_public=kgc.public)
    assert cached.encode() == recomputed.encode()


def test_shared_secret_costs(setup):
    kgc, a, b = setup
    ctr = OpCounter()
    aq_shared_static(a, b.record, ctr=ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (1, 1)
    ctr.reset()
    aq_shared_static(dataclasses.replace(a, cached_term=None), b.record,
                     system_public=kgc.public, ctr=ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (2, 1)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_shared_secret_symmetry_for_random_parties(seed):
    rng = random.Random(seed)
    kgc = kgc_setup(rng)
    a = aq_kg(kgc, b"a", rng)
    b = aq_kg(kgc, b"b", rng)
    assert aq_shared_static(a, b.record).encode() == aq_shared_static(b, a.record).encode()


def test_distinct_peers_give_distinct_secrets(setup):
    kgc, a, b = setup
    c = aq_kg(kgc, b"drone-c", random.Random(9))
    assert aq_shared_static(a, b.record) != aq_shared_static(a, c.record)


def test_identity_peer_commitment_rejected(setup):
    _, a, _ = setup
    bogus = IdentityRecord(b"drone-z", IDENTITY)
    with pytest.raises(InvalidIdentity):
        aq_shared_static(a, bogus)


def test_cacheless_keypair_falls_back_to_reconstruction(setup):
    kgc, a, b = setup
    import dataclasses

    bare = dataclasses.replace(a, cached_term=None)
    assert aq_shared_static(bare, b.record, system_public=kgc.public) == aq_shared_static(
        a, b.record
    )
    with pytest.raises(ValueError):
        aq_shared_static(bare, b.record)


# --------------------------------------------------------------------------
# Ephemeral handshake
# --------------------------------------------------------------------------


def test_handshake_derives_equal_keys(setup):
    _, a, b = setup
    rng = random.Random(10)
    sa = aq_hang_initiate(a, rng)
    sb = aq_hang_initiate(b, rng)
    ka = aq_hang_finalize(a, sa, sb.message)
    kb = aq_hang_finalize(b, sb, sa.message)
    assert ka.key == kb.key
    assert ka.transcript_hash == kb.transcript_hash
    assert ka.fingerprint() == kb.fingerprint()
    assert len(ka.key) == 32


def test_handshake_with_precomputed_table_still_agrees_and_adds_only(setup):
    _, a, b = setup
    rng = random.Random(11)
    params = BpvParams(v=4, k=8, allow_unsafe=True)
    table = bpv_offline(params, rng)
    ctr = OpCounter()
    sa = aq_hang_initiate(a, rng, table=table, ctr=ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (0, params.v - 1)
    sb = aq_hang_initiate(b, rng)
    assert aq_hang_finalize(a, sa, sb.message).key == aq_hang_finalize(b, sb, sa.message).key


def test_handshake_costs_without_a_table(setup):
    _, a, b = setup
    rng = random.Random(13)
    ctr = OpCounter()
    sa = aq_hang_initiate(a, rng, ctr=ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (1, 0)
    sb = aq_hang_initiate(b, rng)
    assert a.cached_term is not None
    ctr = OpCounter()
    aq_hang_finalize(a, sa, sb.message, ctr=ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (2, 1)


def test_handshake_keys_are_fresh_per_session(setup):
    _, a, b = setup
    rng = random.Random(12)
    sb = aq_hang_initiate(b, rng)
    first = aq_hang_finalize(a, aq_hang_initiate(a, rng), sb.message)
    second = aq_hang_finalize(a, aq_hang_initiate(a, rng), sb.message)
    assert first.key != second.key


def test_mismatched_authorities_give_mismatched_keys(setup):
    kgc, a, _ = setup
    rng = random.Random(13)
    foreign = aq_kg(kgc_setup(rng), b"drone-f", rng)
    sa = aq_hang_initiate(a, rng)
    sf = aq_hang_initiate(foreign, rng)
    ka = aq_hang_finalize(a, sa, sf.message)
    kf = aq_hang_finalize(foreign, sf, sa.message)
    assert ka.key != kf.key


def test_finalize_validates_peer_message(setup):
    _, a, b = setup
    rng = random.Random(14)
    sa = aq_hang_initiate(a, rng)
    good = aq_hang_initiate(b, rng).message
    with pytest.raises(InvalidEphemeral):
        aq_hang_finalize(a, sa, good + b"\x00")
    with pytest.raises((TruncatedFile, InvalidEphemeral)):
        aq_hang_finalize(a, sa, good[:-40])
    with pytest.raises(InvalidEphemeral):
        aq_hang_finalize(a, sa, b.record.wire() + IDENTITY.encode())
    with pytest.raises(MalformedElement):
        aq_hang_finalize(a, sa, b.record.wire() + b"\xff" * 32)


def test_tampered_peer_identity_changes_the_key(setup):
    _, a, b = setup
    rng = random.Random(15)
    sa = aq_hang_initiate(a, rng)
    sb = aq_hang_initiate(b, rng)
    honest = aq_hang_finalize(a, sa, sb.message)
    tampered = bytearray(sb.message)
    tampered[1] ^= 0x01  # first identity byte
    assert aq_hang_finalize(a, sa, bytes(tampered)).key != honest.key


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def test_key_files_round_trip_bit_exact(setup):
    kgc, a, _ = setup
    blob = serialize_drone_keypair(a)
    assert deserialize_drone_keypair(blob) == a
    assert serialize_drone_keypair(deserialize_drone_keypair(blob)) == blob

    sys_blob = serialize_system_public(kgc.public)
    assert deserialize_system_public(sys_blob) == kgc.public
    assert serialize_system_public(deserialize_system_public(sys_blob)) == sys_blob

    kgc_blob = serialize_kgc_keypair(kgc)
    assert deserialize_kgc_keypair(kgc_blob) == kgc
    assert serialize_kgc_keypair(deserialize_kgc_keypair(kgc_blob)) == kgc_blob

    rec_blob = serialize_record(a.record)
    assert deserialize_record(rec_blob) == a.record
    assert serialize_record(deserialize_record(rec_blob)) == rec_blob


def test_key_file_error_mapping(setup):
    kgc, a, _ = setup
    blob = serialize_drone_keypair(a)
    with pytest.raises(BadMagic):
        deserialize_drone_keypair(b"NOTMAGIC" + blob[8:])
    with pytest.raises(UnsupportedVersion):
        deserialize_drone_keypair(blob[:8] + b"\x7f" + blob[9:])
    with pytest.raises(TruncatedFile):
        deserialize_drone_keypair(blob[:-1])
    with pytest.raises(TruncatedFile):
        deserialize_drone_keypair(blob + b"\x00")
    with pytest.raises(BadMagic):
        deserialize_system_public(serialize_drone_keypair(a))
    with pytest.raises(TruncatedFile):
        deserialize_system_public(serialize_system_public(kgc.public)[:-4])
    with pytest.raises(TruncatedFile):
        deserialize_record(serialize_record(a.record) + b"\x00")


def test_record_prefix_parsing(setup):
    _, a, _ = setup
    wire = a.record.wire()
    record, consumed = parse_record(wire + b"extra")
    assert record == a.record
    assert consumed == len(wire)
    with pytest.raises(InvalidIdentity):
        parse_record(b"\x00" + wire)
    with pytest.raises(TruncatedFile):
        parse_record(wire[:-1])
    with pytest.raises(TruncatedFile):
        parse_record(b"")


def test_record_binding_is_stable_and_id_sensitive(setup):
    _, a, b = setup
    assert a.record.binding() == a.record.binding()
    assert a.record.binding() != b.record.binding()
    assert len(a.record.binding()) == 32
