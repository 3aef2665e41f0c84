"""Decoders fed arbitrary and near-valid bytes.

Every decoder must either accept its input or raise an ``IodCryptError``
subclass (never ``IndexError``, ``ValueError`` or the like).  What it
accepts must round-trip byte for byte, and every group element it yields
must lie in the prime-order subgroup according to the affine oracle.
"""

from hypothesis import given, settings, strategies as st

from iodcrypt.encrypt import Ciphertext, deserialize_ciphertext_file, serialize_ciphertext_file
from iodcrypt.errors import IodCryptError
from iodcrypt.group import G, N, Scalar, decode_element
from iodcrypt.selfcert import IdentityRecord, parse_record
from iodcrypt.sign import (
    Signature,
    decode_signature,
    deserialize_signature_file,
    serialize_signature_file,
)

from curve_oracle import AFFINE_IDENTITY, T8, affine, affine_mul, times

_FUZZ = settings(max_examples=80, deadline=None)

scalars = st.integers(min_value=0, max_value=N - 1).map(Scalar)
points = scalars.map(lambda k: k * G)
# Subgroup points with a torsion component of order 2, 4 or 8 added.
torsion_points = st.tuples(points, st.integers(min_value=1, max_value=7)).map(
    lambda args: args[0] + times(args[1], T8)
)
element_bytes = st.one_of(points, torsion_points).map(lambda point: point.encode())
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
    lambda point, body, tag: serialize_ciphertext_file(Ciphertext(point, body, tag)),
    points, st.binary(max_size=40), st.binary(min_size=16, max_size=16),
)))
def test_deserialize_ciphertext_file_fails_closed(data):
    ct = _accepted(deserialize_ciphertext_file, data)
    if ct is not None:
        _check_element(ct.ephemeral)
        assert serialize_ciphertext_file(ct) == data


@_FUZZ
@given(_near(st.builds(lambda drone_id, point: IdentityRecord(drone_id, point).wire(), ids, points)))
def test_parse_record_fails_closed(data):
    parsed = _accepted(parse_record, data)
    if parsed is not None:
        record, consumed = parsed
        _check_element(record.commitment)
        assert record.wire() == data[:consumed]
