"""One header rule for the seven magic-prefixed file formats.

Every format maps the same fault to the same error class: input shorter
than the format's minimum -> TruncatedFile; bytes 0-6 not the family ->
BadMagic; byte 7 not the version -> UnsupportedVersion; unknown group id
(byte 8) -> UnsupportedVersion; total length not exact -> TruncatedFile.
The open table checks its SHA-256 first, so its faulted files are
re-hashed; the sealed table checks its header before opening its seal.
Each table loader maps the other table format's version byte to
UnsupportedVersion.

The two wire forms that carry a Montgomery u, the ciphertext file
(``IODCENC3``) and the handshake message, map each fault of that u to
MalformedElement, and a first-version ciphertext file (``IODCENC1``) to
UnsupportedVersion.
"""

import hashlib
import random

import pytest

from iodcrypt.bpv import BpvParams, bpv_offline, deserialize_table, serialize_table
from iodcrypt.encrypt import deserialize_ciphertext_file, reference_encrypt, serialize_ciphertext_file
from iodcrypt.errors import BadMagic, MalformedElement, TruncatedFile, UnsupportedVersion
from iodcrypt.group import P
from iodcrypt.selfcert import (
    aq_hang_finalize,
    aq_hang_initiate,
    aq_kg,
    deserialize_drone_keypair,
    deserialize_kgc_keypair,
    deserialize_system_public,
    kgc_setup,
    reconstruct_pub,
    serialize_drone_keypair,
    serialize_kgc_keypair,
    serialize_system_public,
)
from iodcrypt.sign import deserialize_signature_file, reference_sign, serialize_signature_file

from curve_oracle import T8, affine, affine_add, affine_u, points_of_u, times


def _blobs():
    rng = random.Random(707)
    kgc = kgc_setup(rng)
    drone = aq_kg(kgc, b"drone-h", rng)
    sig = reference_sign(drone.secret, b"frame", rng)
    ct = reference_encrypt(reconstruct_pub(drone.record, kgc.public), b"frame", rng)
    table = bpv_offline(BpvParams(v=2, k=4, allow_unsafe=True), rng)
    seal_key = bytes(range(32))
    return {
        "system-public": (serialize_system_public(kgc.public), deserialize_system_public),
        "kgc-secret": (serialize_kgc_keypair(kgc), deserialize_kgc_keypair),
        "drone-key": (serialize_drone_keypair(drone), deserialize_drone_keypair),
        "signature-file": (serialize_signature_file(b"drone-h", sig), deserialize_signature_file),
        "ciphertext-file": (serialize_ciphertext_file(ct), deserialize_ciphertext_file),
        "table": (serialize_table(table), deserialize_table),
        "sealed-table": (serialize_table(table, seal_key=seal_key, rng=rng),
                         lambda data: deserialize_table(data, seal_key=seal_key)),
    }


BLOBS = _blobs()


def _set(blob: bytes, pos: int, value: int) -> bytes:
    raw = bytearray(blob)
    raw[pos] = value
    return bytes(raw)


FAULTS = {
    # Magic and group id only: shorter than every format's minimum.
    "short": (lambda blob: blob[:9], TruncatedFile),
    "family": (lambda blob: _set(blob, 3, ord("X")), BadMagic),
    "version": (lambda blob: _set(blob, 7, ord("9")), UnsupportedVersion),
    "group-id": (lambda blob: _set(blob, 8, 0x7F), UnsupportedVersion),
    "length-plus-one": (lambda blob: blob + b"\x00", TruncatedFile),
    "length-minus-one": (lambda blob: blob[:-1], TruncatedFile),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("fmt", BLOBS)
def test_every_format_maps_each_header_fault_to_one_error(fmt, fault):
    blob, load = BLOBS[fmt]
    load(blob)
    corrupt, error = FAULTS[fault]
    if fmt == "table":
        body = corrupt(blob[:-32])
        bad = body + hashlib.sha256(body).digest() if fault != "short" else corrupt(blob)
    else:
        bad = corrupt(blob)
    with pytest.raises(error):
        load(bad)


@pytest.mark.parametrize("fmt,version", [("table", b"2"), ("sealed-table", b"1")])
def test_each_table_loader_maps_the_other_formats_version_byte_to_unsupported(fmt, version):
    # The loader's key, not the version byte, picks the format.
    blob, load = BLOBS[fmt]
    bad = blob[:7] + version + blob[8:]
    if fmt == "table":
        bad = bad[:-32] + hashlib.sha256(bad[:-32]).digest()
    with pytest.raises(UnsupportedVersion):
        load(bad)


def test_first_version_ciphertext_file_is_unsupported():
    blob, load = BLOBS["ciphertext-file"]
    with pytest.raises(UnsupportedVersion):
        load(b"IODCENC1" + blob[8:])


def _u_carriers():
    """(blob, offset of its u, loader) for each wire form that carries a u."""
    rng = random.Random(708)
    kgc = kgc_setup(rng)
    station, peer = aq_kg(kgc, b"station-h", rng), aq_kg(kgc, b"peer-h", rng)
    state = aq_hang_initiate(station, rng)
    message = aq_hang_initiate(peer, rng).message
    ciphertext, load_ciphertext = BLOBS["ciphertext-file"]
    return {
        "ciphertext-file": (ciphertext, 9, load_ciphertext),
        "handshake-message": (message, len(message) - 32,
                              lambda data: aq_hang_finalize(station, state, data)),
    }


U_CARRIERS = _u_carriers()

_TWIST_U = 2  # 2^3 + A*2^2 + 2 is not a square modulo P

U_FAULTS = {
    "zero": lambda u: 0,  # the point of order 2, and X25519's identity
    "order-4": lambda u: affine_u(affine(times(2, T8))),
    "order-8": lambda u: affine_u(affine(T8)),
    "torsion-added": lambda u: affine_u(affine_add(points_of_u(u)[0], affine(T8))),
    "twist": lambda u: _TWIST_U,
    "twist-order-4": lambda u: P - 1,
    "field-prime": lambda u: P,
    "u-plus-prime": lambda u: 9 + P,
    "bit-255": lambda u: u | 1 << 255,
}


@pytest.mark.parametrize("fault", U_FAULTS)
@pytest.mark.parametrize("carrier", U_CARRIERS)
def test_every_u_carrier_maps_each_u_fault_to_malformed_element(carrier, fault):
    blob, at, load = U_CARRIERS[carrier]
    load(blob)
    u = int.from_bytes(blob[at : at + 32], "little")
    bad = blob[:at] + U_FAULTS[fault](u).to_bytes(32, "little") + blob[at + 32 :]
    with pytest.raises(MalformedElement):
        load(bad)
