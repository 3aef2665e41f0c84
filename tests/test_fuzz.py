"""Decoders fed arbitrary and near-valid bytes.

Every decoder must either accept its input or raise an ``IodCryptError``
subclass (never ``IndexError``, ``ValueError`` or the like).  What it
accepts must round-trip byte for byte, and every group element it yields
must lie in the prime-order subgroup according to the affine oracle; so
must the point of every Montgomery u it yields.
"""

import hashlib
import random

from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import given, settings, strategies as st

from iodcrypt.bpv import (BpvParams, bpv_offline, dbpv_offline, deserialize_table, serialize_table,
                          verify_table)
from iodcrypt.encrypt import Ciphertext, deserialize_ciphertext_file, serialize_ciphertext_file
from iodcrypt.errors import IodCryptError
from iodcrypt.group import G, N, P, Scalar, decode_element, decode_u, montgomery_u
from iodcrypt.selfcert import (
    IdentityRecord,
    KgcKeypair,
    SelfCertKeypair,
    aq_hang_finalize,
    aq_hang_initiate,
    aq_kg,
    deserialize_drone_keypair,
    deserialize_kgc_keypair,
    deserialize_record,
    deserialize_system_public,
    kgc_setup,
    parse_record,
    serialize_drone_keypair,
    serialize_kgc_keypair,
    serialize_record,
    serialize_system_public,
)
from iodcrypt.sign import (
    Signature,
    decode_signature,
    deserialize_signature_file,
    serialize_signature_file,
)

from curve_oracle import AFFINE_IDENTITY, T8, affine, affine_mul, points_of_u, times

_FUZZ = settings(max_examples=80, deadline=None)

scalars = st.integers(min_value=0, max_value=N - 1).map(Scalar)
points = scalars.map(lambda k: k * G)
# Subgroup points with a torsion component of order 2, 4 or 8 added.
torsion_points = st.tuples(points, st.integers(min_value=1, max_value=7)).map(
    lambda args: args[0] + times(args[1], T8)
)
any_points = st.one_of(points, torsion_points)
element_bytes = any_points.map(lambda point: point.encode())
# u of subgroup and torsion-carrying points, and arbitrary u below P (half
# of them on the twist).
us = st.one_of(any_points.map(lambda point: montgomery_u([point])[0]),
               st.integers(min_value=0, max_value=P - 1))
ids = st.binary(min_size=1, max_size=12)
signatures = st.builds(Signature, s=scalars, e=scalars)


def _flip(args):
    blob, pos, mask = args
    if not blob:
        return blob
    raw = bytearray(blob)
    raw[pos % len(raw)] ^= mask
    return bytes(raw)


def _near(valid):
    """Arbitrary bytes, valid blobs, and valid blobs with a byte changed, cut short or extended."""
    return st.one_of(
        st.binary(max_size=160),
        valid,
        st.tuples(valid, st.integers(min_value=0), st.integers(1, 255)).map(_flip),
        st.tuples(valid, st.integers(min_value=0)).map(lambda a: a[0][: a[1] % (len(a[0]) + 1)]),
        st.tuples(valid, st.binary(min_size=1, max_size=8)).map(lambda a: a[0] + a[1]),
    )


def _accepted(decoder, data):
    """The decoder's result, or None when it refused with a library error."""
    try:
        return decoder(data)
    except IodCryptError:
        return None


def _check_element(point):
    assert affine_mul(N, affine(point)) == AFFINE_IDENTITY
    assert decode_element(point.encode()) == point


def _check_u(u):
    found = points_of_u(u)
    assert found and all(affine_mul(N, point) == AFFINE_IDENTITY for point in found)
    assert decode_u(u.to_bytes(32, "little")) == u


@_FUZZ
@given(_near(us.map(lambda u: u.to_bytes(32, "little"))))
def test_decode_u_fails_closed(data):
    u = _accepted(decode_u, data)
    if u is not None:
        _check_u(u)
        assert u.to_bytes(32, "little") == data


@_FUZZ
@given(_near(element_bytes))
def test_decode_element_fails_closed(data):
    point = _accepted(decode_element, data)
    if point is not None:
        _check_element(point)
        assert point.encode() == data


@_FUZZ
@given(_near(signatures.map(Signature.encode)))
def test_decode_signature_fails_closed(data):
    sig = _accepted(decode_signature, data)
    if sig is not None:
        assert sig.encode() == data


@_FUZZ
@given(_near(st.builds(serialize_signature_file, ids, signatures)))
def test_deserialize_signature_file_fails_closed(data):
    parsed = _accepted(deserialize_signature_file, data)
    if parsed is not None:
        assert serialize_signature_file(*parsed) == data


@_FUZZ
@given(_near(st.builds(
    lambda u, body, tag: serialize_ciphertext_file(Ciphertext(u, body, tag)),
    us, st.binary(max_size=40), st.binary(min_size=16, max_size=16),
)))
def test_deserialize_ciphertext_file_fails_closed(data):
    ct = _accepted(deserialize_ciphertext_file, data)
    if ct is not None:
        _check_u(ct.ephemeral)
        assert serialize_ciphertext_file(ct) == data


# One station and one peer, built once: each example then costs one handshake half.
_HANG_RNG = random.Random(34)
_HANG_KGC = kgc_setup(_HANG_RNG)
_STATION = aq_kg(_HANG_KGC, b"station", _HANG_RNG)
_STATION_STATE = aq_hang_initiate(_STATION, _HANG_RNG)
_PEER_MESSAGES = st.builds(
    lambda drone_id, commitment, u: (serialize_record(IdentityRecord(drone_id, commitment))
                                     + u.to_bytes(32, "little")),
    ids, any_points, us,
)


@_FUZZ
@given(_near(_PEER_MESSAGES))
def test_handshake_finalize_fails_closed(data):
    session = _accepted(lambda msg: aq_hang_finalize(_STATION, _STATION_STATE, msg), data)
    if session is not None:
        record, consumed = parse_record(data)
        _check_element(record.commitment)
        assert len(data) == consumed + 32
        _check_u(int.from_bytes(data[consumed:], "little"))


@_FUZZ
@given(_near(st.builds(IdentityRecord, ids, points).map(serialize_record)))
def test_parse_record_fails_closed(data):
    parsed = _accepted(parse_record, data)
    if parsed is not None:
        record, consumed = parsed
        _check_element(record.commitment)
        assert serialize_record(record) == data[:consumed]


@_FUZZ
@given(_near(st.builds(IdentityRecord, ids, points).map(serialize_record)))
def test_deserialize_record_fails_closed(data):
    record = _accepted(deserialize_record, data)
    if record is not None:
        _check_element(record.commitment)
        assert serialize_record(record) == data


@_FUZZ
@given(_near(any_points.map(serialize_system_public)))
def test_deserialize_system_public_fails_closed(data):
    public = _accepted(deserialize_system_public, data)
    if public is not None:
        _check_element(public)
        assert serialize_system_public(public) == data


@_FUZZ
@given(_near(st.builds(KgcKeypair, scalars, any_points).map(serialize_kgc_keypair)))
def test_deserialize_kgc_keypair_fails_closed(data):
    kgc = _accepted(deserialize_kgc_keypair, data)
    if kgc is not None:
        _check_element(kgc.public)
        assert serialize_kgc_keypair(kgc) == data


drone_keys = st.builds(
    lambda drone_id, commitment, secret, cached: serialize_drone_keypair(
        SelfCertKeypair(IdentityRecord(drone_id, commitment), secret, cached)
    ),
    ids, any_points, scalars, any_points,
)


@_FUZZ
@given(_near(drone_keys))
def test_deserialize_drone_keypair_fails_closed(data):
    keypair = _accepted(deserialize_drone_keypair, data)
    if keypair is not None:
        _check_element(keypair.record.commitment)
        _check_element(keypair.cached_term)
        assert serialize_drone_keypair(keypair) == data


# Two small tables, built once: each example then costs one k=16 load.
_TOY_PARAMS = BpvParams(v=4, k=16, allow_unsafe=True)
_TABLE_BLOBS = (
    serialize_table(bpv_offline(_TOY_PARAMS, random.Random(31))),
    serialize_table(dbpv_offline(_TOY_PARAMS, Scalar(977) * G, bytes(range(32)), random.Random(32))),
)


def _rehash(blob):
    """The blob with its trailing 32 bytes replaced by the SHA-256 of the rest."""
    if len(blob) < 32:
        return blob
    return blob[:-32] + hashlib.sha256(blob[:-32]).digest()


@_FUZZ
@given(st.one_of(_near(st.sampled_from(_TABLE_BLOBS)), _near(st.sampled_from(_TABLE_BLOBS)).map(_rehash)))
def test_deserialize_table_fails_closed(data):
    table = _accepted(deserialize_table, data)
    if table is not None:
        for point in table.bases[1:]:
            _check_element(point)
        assert serialize_table(table) == data
        verify_table(table)


# The same two tables sealed: accepted blobs must re-serialize byte for byte
# under their own nonce.  Flips in the sealed bytes break the tag, so bodies
# are also flipped before sealing, which reaches the checks after the open.
# The seal vouches for the points, so the load checks no subgroup, and
# accepted points are not held to the oracle here.
_SEAL_KEY = bytes(range(32, 64))
_SEALED_BLOBS = tuple(
    serialize_table(deserialize_table(blob), seal_key=_SEAL_KEY, rng=random.Random(33 + i))
    for i, blob in enumerate(_TABLE_BLOBS)
)


def _clear_len(blob):
    return 18 + 32 * blob[9] + 12


class _Nonce:
    def __init__(self, nonce):
        self.nonce = nonce

    def randrange(self, stop):
        return int.from_bytes(self.nonce, "little")


def _seal_flipped_body(args):
    """A sealed blob whose opened body has one byte changed, sealed again under the key."""
    blob, pos, mask = args
    clear = blob[: _clear_len(blob)]
    aead = ChaCha20Poly1305(_SEAL_KEY)
    body = bytearray(aead.decrypt(clear[-12:], blob[len(clear):], clear))
    body[pos % len(body)] ^= mask
    return clear + aead.encrypt(clear[-12:], bytes(body), clear)


_sealed_bodies = st.tuples(st.sampled_from(_SEALED_BLOBS), st.integers(min_value=0),
                           st.integers(0, 255)).map(_seal_flipped_body)


@_FUZZ
@given(st.one_of(_near(st.sampled_from(_SEALED_BLOBS)), _sealed_bodies))
def test_open_sealed_table_fails_closed(data):
    table = _accepted(lambda blob: deserialize_table(blob, seal_key=_SEAL_KEY), data)
    if table is not None:
        nonce = _Nonce(data[_clear_len(data) - 12 : _clear_len(data)])
        assert serialize_table(table, seal_key=_SEAL_KEY, rng=nonce) == data
