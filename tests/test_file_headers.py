"""One header rule for the seven magic-prefixed file formats.

Every format maps the same fault to the same error class: input shorter
than the format's minimum -> TruncatedFile; bytes 0-6 not the family ->
BadMagic; byte 7 not the version -> UnsupportedVersion; unknown group id
(byte 8) -> UnsupportedVersion; total length not exact -> TruncatedFile.
The open table checks its SHA-256 first, so its faulted files are
re-hashed; the sealed table checks its header before opening its seal.
"""

import hashlib
import random

import pytest

from iodcrypt.bpv import BpvParams, bpv_offline, deserialize_table, serialize_table
from iodcrypt.encrypt import deserialize_ciphertext_file, reference_encrypt, serialize_ciphertext_file
from iodcrypt.errors import BadMagic, TruncatedFile, UnsupportedVersion
from iodcrypt.selfcert import (
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
