"""Tests for self-certified keys, static secrets, and the handshake."""

import hashlib
import random

import pytest
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import given, settings, strategies as st

from iodcrypt.bpv import BpvParams, bpv_offline, dbpv_offline
from iodcrypt.errors import (
    BadMagic,
    InvalidEphemeral,
    InvalidIdentity,
    MalformedElement,
    TruncatedFile,
    UnsupportedParams,
    UnsupportedVersion,
)
from iodcrypt.group import G, IDENTITY, N, OpCounter, Scalar, scalar_mult
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
    _KNOWN_PEERS as KNOWN_PEERS,
    reconstruct_pub,
    serialize_drone_keypair,
    serialize_kgc_keypair,
    serialize_record,
    serialize_system_public,
)

from curve_oracle import T8, affine, affine_mul, affine_u


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
    with OpCounter() as ctr:
        assert key_ver(a.record, a.secret, kgc.public)
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
    with OpCounter() as ctr:
        kgc_setup(random.Random(7))
    assert ctr.scalar_mults == 1
    with OpCounter() as ctr:
        aq_kg(kgc, b"drone-c", random.Random(8))
    assert ctr.scalar_mults == 2


# --------------------------------------------------------------------------
# Static shared secret
# --------------------------------------------------------------------------


def test_shared_secret_matches_algebraic_oracle_and_is_symmetric(setup):
    kgc, a, b = setup
    expected = (a.secret * b.secret) * G
    assert aq_shared_static(a, b.record) == expected
    assert aq_shared_static(b, a.record) == expected


def _reconstructed_static(kgc, a, b):
    """x_a * X_b with X_b rebuilt from D: the product that x*D saves."""
    return scalar_mult(a.secret, reconstruct_pub(b.record, kgc.public))


def test_cached_and_recomputed_paths_agree_byte_for_byte(setup):
    kgc, a, b = setup
    assert aq_shared_static(a, b.record).encode() == _reconstructed_static(kgc, a, b).encode()


def test_shared_secret_costs(setup):
    kgc, a, b = setup
    with OpCounter() as ctr:
        aq_shared_static(a, b.record)
    assert (ctr.scalar_mults, ctr.point_adds) == (1, 1)
    with OpCounter() as ctr:
        _reconstructed_static(kgc, a, b)
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
    with OpCounter() as ctr:
        sa = aq_hang_initiate(a, rng, table=table)
    assert (ctr.scalar_mults, ctr.point_adds) == (0, params.v - 1)
    sb = aq_hang_initiate(b, rng)
    assert aq_hang_finalize(a, sa, sb.message).key == aq_hang_finalize(b, sb, sa.message).key


def test_handshake_refuses_a_designated_table(setup):
    _, a, _ = setup
    rng = random.Random(12)
    table = dbpv_offline(BpvParams(v=4, k=8, allow_unsafe=True), Scalar(5) * G, bytes(32), rng)
    # The refusal names the table it needs, not signing.
    refusal = r"^needs a standard \(G,\) table, not a designated one$"
    with pytest.raises(UnsupportedParams, match=refusal):
        aq_hang_initiate(a, rng, table=table)


def _fresh(keypair):
    """The same key as a new keypair, which has finalized no handshake."""
    return SelfCertKeypair(keypair.record, keypair.secret, keypair.cached_term)


def test_handshake_costs_without_a_table(setup):
    _, a, b = setup
    a = _fresh(a)
    rng = random.Random(13)
    with OpCounter() as ctr:
        sa = aq_hang_initiate(a, rng)
    assert (ctr.scalar_mults, ctr.point_adds) == (1, 0)
    sb = aq_hang_initiate(b, rng)
    with OpCounter() as ctr:
        first = aq_hang_finalize(a, sa, sb.message)
    assert (ctr.scalar_mults, ctr.point_adds) == (2, 1)  # first contact
    # A known peer, in a new session on either side: u(t_a * T_b) alone.
    for sa, sb in ((sa, sb), (aq_hang_initiate(a, rng), aq_hang_initiate(b, rng))):
        with OpCounter() as ctr:
            key = aq_hang_finalize(a, sa, sb.message).key
        assert (ctr.scalar_mults, ctr.point_adds) == (1, 0)
        assert key == aq_hang_finalize(b, sb, sa.message).key
    assert key != first.key


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
    # T travels as u: the identity has none (X25519 writes it as 0), and the
    # bytes of its Edwards encoding are u = 1, a point of order 4.
    for bad_u in (bytes(32), IDENTITY.encode(), b"\xff" * 32,
                  affine_u(affine(T8)).to_bytes(32, "little")):
        with pytest.raises(MalformedElement):
            aq_hang_finalize(a, sa, serialize_record(b.record) + bad_u)


def test_handshake_key_rebuilt_from_the_affine_oracle(setup):
    # Message = record | u(T); key = HKDF(K | u(t_a * T_b) | transcript).
    _, a, b = setup
    rng = random.Random(16)
    sa, sb = aq_hang_initiate(a, rng), aq_hang_initiate(b, rng)
    t_a, t_b = sa.ephemeral_secret.v, sb.ephemeral_secret.v
    u_t = affine_u(affine_mul(t_a, affine(G))).to_bytes(32, "little")
    assert sa.message == serialize_record(a.record) + u_t
    ephemeral_u = affine_u(affine_mul(t_a * t_b % N, affine(G)))
    transcript = hashlib.sha256(b"".join(sorted((sa.message, sb.message)))).digest()
    ikm = aq_shared_static(a, b.record).encode() + ephemeral_u.to_bytes(32, "little") + transcript
    key = HKDF(algorithm=SHA256(), length=32, salt=None, info=b"IODCRYPT-HANG-v2").derive(ikm)
    assert aq_hang_finalize(a, sa, sb.message).key == key == aq_hang_finalize(b, sb, sa.message).key


# --------------------------------------------------------------------------
# Known peers: the static point of a record already finalized
# --------------------------------------------------------------------------


def test_known_peers_give_the_keys_of_a_fresh_computation(setup):
    # Interleaved peers, each finalized several times.  The fourth slot is read by
    # nothing: None, D or another realm's D give the same key and one entry per peer.
    kgc, _, _ = setup
    rng = random.Random(17)
    peers = [aq_kg(kgc, b"peer-%d" % i, rng) for i in range(4)]
    station = aq_kg(kgc, b"station", rng)
    for _ in range(3):
        for peer in rng.sample(peers, len(peers)):
            for system in (None, kgc.public, kgc_setup(rng).public):
                ss, sp = aq_hang_initiate(station, rng), aq_hang_initiate(peer, rng)
                key = aq_hang_finalize(station, ss, sp.message, system).key
                assert key == aq_hang_finalize(_fresh(station), ss, sp.message).key
                assert key == aq_hang_finalize(station, ss, bytearray(sp.message), system).key
                assert key == aq_hang_finalize(peer, sp, ss.message).key
    assert len(station._known_peers) == len(peers)


def _failure(call):
    """The class of the exception ``call`` raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc)
    return None


def test_a_record_off_a_known_one_is_checked_afresh(setup):
    # Each record below differs from a known one; a fresh keypair (first contact)
    # and the station that knows the honest record raise the same class.
    kgc, a, b = setup
    rng = random.Random(18)
    station = _fresh(a)
    honest = aq_hang_initiate(b, rng).message
    aq_hang_finalize(station, aq_hang_initiate(station, rng), honest)
    known = dict(station._known_peers)
    at = 1 + len(b.record.drone_id)
    u_t = honest[at + 32:]
    flips = [honest[:at + i] + bytes([honest[at + i] ^ 1 << j]) + honest[at + i + 1:]
             for i in range(32) for j in range(8)]
    flipped = next(m for m in flips if _failure(lambda: parse_record(m)) is MalformedElement)
    variants = {
        "flipped U": flipped,
        "identity U": honest[:at] + IDENTITY.encode() + u_t,
        "U + T8": honest[:at] + (b.record.commitment + T8).encode() + u_t,
        "one id byte gone": honest[:1] + honest[2:],
        "id length off by one": bytes([honest[0] + 1]) + honest[1:],
        # The known record itself, with a bad u(T) or a byte too many.
        "u(T) of order 4": honest[:at + 32] + (1).to_bytes(32, "little"),
        "trailing byte": honest + b"\x00",
    }
    for name, message in variants.items():
        state = aq_hang_initiate(station, rng)
        expected = _failure(lambda: aq_hang_finalize(_fresh(a), state, message))
        assert expected in (MalformedElement, InvalidIdentity, InvalidEphemeral, TruncatedFile)
        assert _failure(lambda: aq_hang_finalize(station, state, message)) is expected, name
    assert station._known_peers == known
    state = aq_hang_initiate(station, rng)
    with OpCounter() as ctr:
        aq_hang_finalize(station, state, honest)
    assert (ctr.scalar_mults, ctr.point_adds) == (1, 0)


def test_known_peers_stay_bounded_and_keep_the_most_recent(setup):
    # Records with any subgroup point as U, and one u(T) for all of them.
    _, a, b = setup
    rng = random.Random(19)
    station = _fresh(a)
    u_t = aq_hang_initiate(b, rng).message[-32:]
    wires = [serialize_record(IdentityRecord(b"p%03d" % i, Scalar(i + 2) * G))
             for i in range(KNOWN_PEERS + 4)]

    def finalize(wire):
        state = aq_hang_initiate(station, rng)
        with OpCounter() as ctr:
            aq_hang_finalize(station, state, wire + u_t)
        return ctr.scalar_mults, ctr.point_adds

    for wire in wires[:KNOWN_PEERS]:
        assert finalize(wire) == (2, 1)
    assert finalize(wires[0]) == (1, 0)  # now the most recent
    for wire in wires[KNOWN_PEERS:]:
        assert finalize(wire) == (2, 1)
    assert len(station._known_peers) == KNOWN_PEERS
    assert list(station._known_peers) == [*wires[5:KNOWN_PEERS], wires[0], *wires[KNOWN_PEERS:]]
    assert finalize(wires[1]) == (2, 1)  # evicted: first contact again
    assert len(station._known_peers) == KNOWN_PEERS and wires[5] not in station._known_peers


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
    wire = serialize_record(a.record)
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
