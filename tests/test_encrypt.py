"""Tests for designated-table hybrid encryption.

The symmetric layer is validated two ways: the backing primitives are
pinned against published RFC 7539 / RFC 5869 test vectors, and whole
ciphertexts are re-derived step by step in-test from the ephemeral
scalar.
"""

import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import ChaCha20
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.poly1305 import Poly1305

import iodcrypt.encrypt as encrypt_module
from iodcrypt.bpv import BpvParams, bpv_offline
from iodcrypt.encrypt import (
    Ciphertext,
    SenderContext,
    SymKeys,
    decode_ciphertext,
    decrypt,
    deserialize_ciphertext_file,
    enc_kg_sender,
    encrypt,
    kdf,
    reference_encrypt,
    serialize_ciphertext_file,
)
from iodcrypt.errors import (
    BadMagic,
    InvalidDesignatedPoint,
    InvalidSharedPoint,
    MacMismatch,
    MalformedElement,
    TableIntegrity,
    TruncatedFile,
    UnsupportedVersion,
)
from iodcrypt.group import G, IDENTITY, OpCounter, Scalar, random_scalar
from iodcrypt.selfcert import aq_kg, kgc_setup, reconstruct_pub

TOY = BpvParams(v=3, k=8, allow_unsafe=True)


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(404)
    kgc = kgc_setup(rng)
    alice = aq_kg(kgc, b"alice", rng)
    bob = aq_kg(kgc, b"bob", rng)
    ctx = enc_kg_sender(bob.record, kgc.public, TOY, rng)
    return kgc, alice, bob, ctx


# --------------------------------------------------------------------------
# Published vectors for the backing primitives
# --------------------------------------------------------------------------


def test_chacha20_encryption_matches_rfc_7539_vector():
    key = bytes(range(32))
    nonce = bytes.fromhex("000000000000004a00000000")
    message = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    cipher = Cipher(ChaCha20(key, (1).to_bytes(4, "little") + nonce), mode=None)
    assert cipher.encryptor().update(message).hex() == (
        "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
        "5af90bbf74a35be6b40b8eedf2785e42874d"
    )


def test_poly1305_tag_matches_rfc_7539_vector():
    key = bytes.fromhex(
        "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
    )
    tag = Poly1305.generate_tag(key, b"Cryptographic Forum Research Group")
    assert tag.hex() == "a8061dc1305136c6c22b8baf0c0127a9"


def test_one_time_key_derivation_matches_rfc_7539_vector():
    key = bytes.fromhex(
        "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
    )
    nonce = bytes.fromhex("000000000001020304050607")
    cipher = Cipher(ChaCha20(key, (0).to_bytes(4, "little") + nonce), mode=None)
    assert cipher.encryptor().update(bytes(32)).hex() == (
        "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646"
    )


def test_hkdf_matches_rfc_5869_vector_with_default_salt():
    okm = HKDF(algorithm=SHA256(), length=42, salt=None, info=b"").derive(b"\x0b" * 22)
    assert okm.hex() == (
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
        "9d201395faa4b61a96c8"
    )


# --------------------------------------------------------------------------
# Key derivation
# --------------------------------------------------------------------------


def test_kdf_is_deterministic_and_splits_the_output(setup):
    *_, ctx = setup
    point = Scalar(12345) * G
    keys = kdf(point)
    assert keys == kdf(point)
    assert len(keys.k_enc) == len(keys.k_mac) == 32
    assert keys.k_enc != keys.k_mac


def test_kdf_rejects_identity():
    with pytest.raises(InvalidSharedPoint):
        kdf(IDENTITY)


def test_kdf_outputs_unrelated_across_nearby_points():
    prefixes = set()
    for i in range(1, 1001):
        keys = kdf(Scalar(i) * G)
        assert keys.k_enc != keys.k_mac
        prefixes.add(keys.k_enc[:8])
        prefixes.add(keys.k_mac[:8])
    assert len(prefixes) == 2000


def test_kdf_matches_direct_hkdf_over_the_encoded_point():
    point = Scalar(777) * G
    okm = HKDF(
        algorithm=SHA256(), length=64, salt=None, info=b"IODCRYPT-ECIES-v1"
    ).derive(point.encode())
    assert kdf(point) == SymKeys(k_enc=okm[:32], k_mac=okm[32:])


# --------------------------------------------------------------------------
# Sender context
# --------------------------------------------------------------------------


def test_sender_table_is_built_over_the_reconstructed_key(setup):
    kgc, _, bob, ctx = setup
    assert ctx.table.bases == (G, reconstruct_pub(bob.record, kgc.public))
    assert ctx.table.owner_binding == bob.record.binding()


def test_sender_memory_footprint_at_production_parameters():
    rng = random.Random(405)
    kgc = kgc_setup(rng)
    bob = aq_kg(kgc, b"bob-m", rng)
    ctx = enc_kg_sender(bob.record, kgc.public, BpvParams(28, 256), rng)
    assert ctx.memory_bytes == 24_608


def test_context_rejects_tables_bound_to_someone_else(setup):
    _, alice, _, ctx = setup
    with pytest.raises(TableIntegrity):
        SenderContext(table=ctx.table, receiver=alice.record)


def test_context_rejects_a_signing_table(setup):
    _, _, bob, _ = setup
    plain = bpv_offline(BpvParams(2, 4, allow_unsafe=True), random.Random(406))
    with pytest.raises(TableIntegrity):
        SenderContext(table=plain, receiver=bob.record)


# --------------------------------------------------------------------------
# Round trips
# --------------------------------------------------------------------------


def test_round_trips_across_lengths(setup):
    _, _, bob, ctx = setup
    rng = random.Random(406)
    for length in (0, 1, 2, 63, 64, 65, 1000, 4096):
        message = rng.randbytes(length)
        ct = encrypt(ctx, message, rng)
        assert decrypt(bob, ct) == message
        assert len(ct.encode()) == length + 48


def test_encrypt_uses_no_scalar_multiplication(setup):
    _, _, _, ctx = setup
    ctr = OpCounter()
    encrypt(ctx, b"budget", random.Random(407), ctr)
    assert ctr.scalar_mults == 0
    assert ctr.point_adds == 2 * (TOY.v - 1)


def test_decrypt_uses_exactly_one_scalar_multiplication(setup):
    _, _, bob, ctx = setup
    ct = encrypt(ctx, b"budget", random.Random(408))
    ctr = OpCounter()
    decrypt(bob, ct, ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (1, 0)


def test_ciphertexts_fresh_across_calls(setup):
    _, _, bob, ctx = setup
    rng = random.Random(409)
    first = encrypt(ctx, b"same message", rng)
    second = encrypt(ctx, b"same message", rng)
    assert first.ephemeral != second.ephemeral
    assert first.body != second.body
    assert decrypt(bob, first) == decrypt(bob, second) == b"same message"


# --------------------------------------------------------------------------
# Whole-pipeline re-derivation oracle
# --------------------------------------------------------------------------


def test_reference_ciphertext_rebuilt_from_first_principles(setup):
    kgc, _, bob, _ = setup
    recipient_key = reconstruct_pub(bob.record, kgc.public)
    message = b"step-by-step check"
    seed = 410
    ct = reference_encrypt(recipient_key, message, random.Random(seed))

    r = random_scalar(random.Random(seed))  # same draw as inside the call
    shared = r * recipient_key
    okm = HKDF(
        algorithm=SHA256(), length=64, salt=None, info=b"IODCRYPT-ECIES-v1"
    ).derive(shared.encode())
    stream = Cipher(
        ChaCha20(okm[:32], bytes(4) + bytes(12)), mode=None
    ).encryptor()
    body = stream.update(message)
    otk = Cipher(
        ChaCha20(okm[32:], bytes(4) + bytes(12)), mode=None
    ).encryptor().update(bytes(32))
    tag = Poly1305.generate_tag(otk, body)

    assert ct.ephemeral == r * G
    assert ct.body == body
    assert ct.tag == tag
    assert decrypt(bob, ct) == message


def test_table_and_reference_paths_are_mutually_compatible(setup):
    kgc, _, bob, ctx = setup
    rng = random.Random(411)
    recipient_key = reconstruct_pub(bob.record, kgc.public)
    assert decrypt(bob, encrypt(ctx, b"from table", rng)) == b"from table"
    assert decrypt(bob, reference_encrypt(recipient_key, b"direct", rng)) == b"direct"
    ctr = OpCounter()
    reference_encrypt(recipient_key, b"direct", rng, ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (2, 0)


# --------------------------------------------------------------------------
# Rejection behaviour
# --------------------------------------------------------------------------


def test_any_body_or_tag_bit_flip_raises_mac_mismatch(setup):
    _, _, bob, ctx = setup
    rng = random.Random(412)
    message = rng.randbytes(128)
    ct = encrypt(ctx, message, rng)
    wire = ct.encode()
    for _ in range(100):
        bit = rng.randrange(32 * 8, len(wire) * 8)  # body or tag region
        bad = bytearray(wire)
        bad[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(MacMismatch):
            decrypt(bob, decode_ciphertext(bytes(bad)))


def test_ephemeral_point_tampering_never_yields_plaintext(setup):
    _, _, bob, ctx = setup
    rng = random.Random(413)
    message = rng.randbytes(64)
    wire = encrypt(ctx, message, rng).encode()
    for _ in range(100):
        bit = rng.randrange(0, 32 * 8)
        bad = bytearray(wire)
        bad[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises((MacMismatch, MalformedElement)):
            decrypt(bob, decode_ciphertext(bytes(bad)))


def test_wrong_recipient_gets_mac_mismatch(setup):
    _, alice, _, ctx = setup
    ct = encrypt(ctx, b"for bob only", random.Random(414))
    with pytest.raises(MacMismatch):
        decrypt(alice, ct)


def test_no_decryption_happens_on_tag_mismatch(setup, monkeypatch):
    _, _, bob, ctx = setup
    ct = encrypt(ctx, b"sealed", random.Random(415))
    bad = Ciphertext(ephemeral=ct.ephemeral, body=ct.body, tag=bytes(16))
    calls = []
    original = encrypt_module._keystream_xor

    def spy(key, data):
        calls.append(len(data))
        return original(key, data)

    monkeypatch.setattr(encrypt_module, "_keystream_xor", spy)
    with pytest.raises(MacMismatch):
        decrypt(bob, bad)
    assert calls == []  # tag rejected before any keystream was produced


def test_identity_recipient_rejected(setup):
    with pytest.raises(InvalidDesignatedPoint):
        reference_encrypt(IDENTITY, b"m", random.Random(416))


def test_ephemeral_values_never_repeat_at_production_parameters():
    rng = random.Random(417)
    kgc = kgc_setup(rng)
    bob = aq_kg(kgc, b"bob-f", rng)
    ctx = enc_kg_sender(bob.record, kgc.public, BpvParams(28, 256), rng)
    seen = set()
    for _ in range(10_000):
        seen.add(encrypt(ctx, b"", rng).ephemeral.encode())
    assert len(seen) == 10_000


# --------------------------------------------------------------------------
# Wire formats
# --------------------------------------------------------------------------


def test_bare_wire_round_trip(setup):
    _, _, _, ctx = setup
    ct = encrypt(ctx, b"wire", random.Random(418))
    again = decode_ciphertext(ct.encode())
    assert again == ct
    assert again.encode() == ct.encode()
    with pytest.raises(TruncatedFile):
        decode_ciphertext(ct.encode()[:40])


def test_ciphertext_file_round_trip_and_errors(setup):
    _, _, bob, ctx = setup
    ct = encrypt(ctx, b"file body", random.Random(419))
    blob = serialize_ciphertext_file(ct)
    again = deserialize_ciphertext_file(blob)
    assert again == ct
    assert serialize_ciphertext_file(again) == blob
    assert decrypt(bob, again) == b"file body"

    with pytest.raises(BadMagic):
        deserialize_ciphertext_file(b"XXXXXXX1" + blob[8:])
    with pytest.raises(UnsupportedVersion):
        deserialize_ciphertext_file(blob[:7] + b"9" + blob[8:])
    with pytest.raises(UnsupportedVersion):
        deserialize_ciphertext_file(blob[:8] + b"\x7f" + blob[9:])
    with pytest.raises(TruncatedFile):
        deserialize_ciphertext_file(blob[:-1])
    with pytest.raises(TruncatedFile):
        deserialize_ciphertext_file(blob + b"\x00")
    with pytest.raises(MalformedElement):
        deserialize_ciphertext_file(blob[:9] + b"\xff" * 32 + blob[41:])
