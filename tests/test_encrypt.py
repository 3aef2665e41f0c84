"""Tests for designated-table hybrid encryption.

The symmetric layer is validated two ways: the backing primitives are
pinned against published RFC 8439 / RFC 5869 test vectors, and whole
ciphertexts are re-derived step by step in-test from the ephemeral
scalar, with the Montgomery u of each point taken from the affine oracle.
"""

import hashlib
import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.ciphers.algorithms import ChaCha20
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.poly1305 import Poly1305

import iodcrypt.encrypt as encrypt_module
from iodcrypt.bpv import BpvParams, bpv_offline
from iodcrypt.encrypt import (
    Ciphertext,
    SenderContext,
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
    UnsupportedParams,
    UnsupportedVersion,
)
from iodcrypt import group
from iodcrypt.group import G, IDENTITY, OpCounter, Scalar, montgomery_u, random_scalar
from iodcrypt.selfcert import (
    aq_hang_finalize,
    aq_hang_initiate,
    aq_kg,
    deserialize_drone_keypair,
    kgc_setup,
    reconstruct_pub,
    serialize_drone_keypair,
)

from curve_oracle import affine, affine_mul, affine_u

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


def test_chacha20_poly1305_matches_rfc_8439_aead_vector():
    # RFC 8439 section 2.8.2: the AEAD that seals messages and table files.
    key = bytes.fromhex(
        "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
    )
    nonce = bytes.fromhex("070000004041424344454647")
    aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
    message = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    sealed = ChaCha20Poly1305(key).encrypt(nonce, message, aad)
    assert sealed[:-16].hex() == (
        "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
        "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
        "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
        "3ff4def08e4b7a9de576d26586cec64b6116"
    )
    assert sealed[-16:].hex() == "1ae10b594f09e26a7e902ecbd0600691"
    assert ChaCha20Poly1305(key).decrypt(nonce, sealed, aad) == message


def test_hkdf_matches_rfc_5869_vector_with_default_salt():
    okm = HKDF(algorithm=SHA256(), length=42, salt=None, info=b"").derive(b"\x0b" * 22)
    assert okm.hex() == (
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
        "9d201395faa4b61a96c8"
    )


# --------------------------------------------------------------------------
# Key derivation
# --------------------------------------------------------------------------


def _u(point):
    return montgomery_u([point])[0]


def test_kdf_is_deterministic_and_gives_one_key():
    u = _u(Scalar(12345) * G)
    key = kdf(u)
    assert key == kdf(u)
    assert isinstance(key, bytes) and len(key) == 32


def test_kdf_rejects_identity():
    # X25519 writes the identity as u = 0.
    assert _u(IDENTITY) == 0
    with pytest.raises(InvalidSharedPoint):
        kdf(_u(IDENTITY))


def test_kdf_outputs_unrelated_across_nearby_points():
    prefixes = {kdf(_u(Scalar(i) * G))[:8] for i in range(1, 1001)}
    assert len(prefixes) == 1000


def test_kdf_matches_direct_hkdf_over_the_encoded_u():
    u = affine_u(affine_mul(777, affine(G)))
    okm = HKDF(
        algorithm=SHA256(), length=32, salt=None, info=b"IODCRYPT-ECIES-v3"
    ).derive(u.to_bytes(32, "little"))
    assert kdf(u) == okm


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


def test_sender_refuses_a_record_that_reconstructs_to_the_identity(setup):
    # With D = -H(id, U)*U as the system key, X = H(id, U)*U + D is the identity.
    _, _, bob, _ = setup
    system_public = Scalar(-bob.record.key_hash().v) * bob.record.commitment
    assert reconstruct_pub(bob.record, system_public).is_identity()
    with pytest.raises(InvalidDesignatedPoint):
        enc_kg_sender(bob.record, system_public, TOY, random.Random(423))


def test_context_rejects_tables_bound_to_someone_else(setup):
    _, alice, _, ctx = setup
    with pytest.raises(TableIntegrity):
        SenderContext(table=ctx.table, receiver=alice.record)


def test_context_rejects_a_signing_table(setup):
    _, _, bob, _ = setup
    plain = bpv_offline(BpvParams(2, 4, allow_unsafe=True), random.Random(406))
    with pytest.raises(UnsupportedParams):
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
    with OpCounter() as ctr:
        encrypt(ctx, b"budget", random.Random(407))
    assert ctr.scalar_mults == 0
    assert ctr.point_adds == 2 * (TOY.v - 1)


def test_decrypt_uses_exactly_one_scalar_multiplication(setup):
    _, _, bob, ctx = setup
    ct = encrypt(ctx, b"budget", random.Random(408))
    with OpCounter() as ctr:
        decrypt(bob, ct)
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
    shared_u = affine_u(affine_mul(r.v, affine(recipient_key)))
    key = HKDF(
        algorithm=SHA256(), length=32, salt=None, info=b"IODCRYPT-ECIES-v3"
    ).derive(shared_u.to_bytes(32, "little"))
    sealed = ChaCha20Poly1305(key).encrypt(bytes(12), message, None)

    assert ct.ephemeral == affine_u(affine_mul(r.v, affine(G)))
    assert ct.body == sealed[:-16]
    assert ct.tag == sealed[-16:]
    assert decrypt(bob, ct) == message


def test_table_and_reference_paths_are_mutually_compatible(setup):
    kgc, _, bob, ctx = setup
    rng = random.Random(411)
    recipient_key = reconstruct_pub(bob.record, kgc.public)
    assert decrypt(bob, encrypt(ctx, b"from table", rng)) == b"from table"
    assert decrypt(bob, reference_encrypt(recipient_key, b"direct", rng)) == b"direct"
    with OpCounter() as ctr:
        reference_encrypt(recipient_key, b"direct", rng)
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


def test_identity_recipient_rejected(setup):
    with pytest.raises(InvalidDesignatedPoint):
        reference_encrypt(IDENTITY, b"m", random.Random(416))


class _Huge(bytes):
    """Empty bytes that report the AEAD's first refused length."""

    def __len__(self):
        return 2**31


def test_messages_of_2_to_the_31_bytes_are_refused_before_any_key_derivation(
    setup, monkeypatch
):
    kgc, _, bob, ctx = setup
    recipient_key = reconstruct_pub(bob.record, kgc.public)
    derived = []
    monkeypatch.setattr(encrypt_module, "kdf", lambda u: derived.append(u))
    with pytest.raises(ValueError, match="2\\^31 - 1"):
        encrypt(ctx, _Huge(), random.Random(424))
    with pytest.raises(ValueError, match="2\\^31 - 1"):
        reference_encrypt(recipient_key, _Huge(), random.Random(424))
    assert derived == []


def test_ephemeral_values_never_repeat_at_production_parameters():
    rng = random.Random(417)
    kgc = kgc_setup(rng)
    bob = aq_kg(kgc, b"bob-f", rng)
    ctx = enc_kg_sender(bob.record, kgc.public, BpvParams(28, 256), rng)
    seen = set()
    for _ in range(10_000):
        seen.add(encrypt(ctx, b"", rng).ephemeral)
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


def test_earlier_version_ciphertext_files_are_refused(setup):
    # IODCENC1 carried R in Edwards form, IODCENC2 the two-key seal; the
    # layout is otherwise the same.
    _, _, _, ctx = setup
    blob = serialize_ciphertext_file(encrypt(ctx, b"old", random.Random(420)))
    assert blob[:8] == b"IODCENC3"
    for magic in (b"IODCENC1", b"IODCENC2"):
        with pytest.raises(UnsupportedVersion):
            deserialize_ciphertext_file(magic + blob[8:])


def _v2_seal(shared_u, message):
    """The second version's seal: HKDF into two keys, ChaCha20, then Poly1305."""
    okm = HKDF(
        algorithm=SHA256(), length=64, salt=None, info=b"IODCRYPT-ECIES-v2"
    ).derive(shared_u.to_bytes(32, "little"))
    nonce = bytes(4) + bytes(12)
    body = Cipher(ChaCha20(okm[:32], nonce), mode=None).encryptor().update(message)
    otk = Cipher(ChaCha20(okm[32:], nonce), mode=None).encryptor().update(bytes(32))
    return body, Poly1305.generate_tag(otk, body)


def test_second_version_bare_ciphertext_raises_mac_mismatch(setup):
    kgc, _, bob, _ = setup
    recipient_key = reconstruct_pub(bob.record, kgc.public)
    r = random_scalar(random.Random(425))
    shared_u = affine_u(affine_mul(r.v, affine(recipient_key)))
    body, tag = _v2_seal(shared_u, b"sealed by the old format")
    old = Ciphertext(affine_u(affine_mul(r.v, affine(G))), body, tag)
    with pytest.raises(MacMismatch):
        decrypt(bob, decode_ciphertext(old.encode()))


def test_ciphertext_carries_u_of_the_ephemeral_point(setup):
    kgc, _, bob, _ = setup
    recipient_key = reconstruct_pub(bob.record, kgc.public)
    r = random_scalar(random.Random(421))
    ct = reference_encrypt(recipient_key, b"u", random.Random(421))
    u = affine_u(affine_mul(r.v, affine(G)))
    assert ct.encode()[:32] == u.to_bytes(32, "little")
    assert serialize_ciphertext_file(ct)[9:41] == u.to_bytes(32, "little")
    assert len(ct.encode()) == 32 + 1 + 16


# --------------------------------------------------------------------------
# What a receiver derives
# --------------------------------------------------------------------------


class _CountingKey:
    """Stands in for the X25519 private keys group builds, counting what a decrypt derives and runs."""

    real = built = exchanges = None

    def __init__(self, key):
        self.key = key

    @classmethod
    def from_private_bytes(cls, data):
        cls.built.append(data)
        return cls(cls.real(data))

    def exchange(self, peer):
        self.exchanges.append(peer)
        return self.key.exchange(peer)

    def public_key(self):
        return self.key.public_key()


@pytest.fixture
def counting_keys(monkeypatch):
    """X25519 private keys that count, from group's own constructor; none is kept after the test."""
    x25519 = group._openssl.x25519
    monkeypatch.setattr(_CountingKey, "real", x25519.from_private_bytes)
    monkeypatch.setattr(_CountingKey, "built", [])
    monkeypatch.setattr(_CountingKey, "exchanges", [])
    monkeypatch.setattr(x25519, "from_private_bytes", _CountingKey.from_private_bytes)
    yield _CountingKey
    for cache in (group._check_key, group._last_key):
        cache.cache_clear()


def test_second_decrypt_under_one_key_derives_no_key_and_takes_no_square_root(
    setup, counting_keys, monkeypatch
):
    _, _, bob, ctx = setup
    bob = deserialize_drone_keypair(serialize_drone_keypair(bob))
    rng = random.Random(422)
    files = [serialize_ciphertext_file(encrypt(ctx, b"frame %d" % i, rng)) for i in range(2)]
    # From a process that has built no key yet.
    for cache in (group._check_key, group._last_key):
        cache.cache_clear()
    del counting_keys.built[:], counting_keys.exchanges[:]
    lifts = []
    real_lift = group._lift
    monkeypatch.setattr(group, "_lift", lambda data: lifts.append(data) or real_lift(data))
    assert decrypt(bob, deserialize_ciphertext_file(files[0])) == b"frame 0"
    # The first builds the check scalar's key and the secret's.
    assert (len(counting_keys.built), len(counting_keys.exchanges)) == (2, 2)
    del counting_keys.built[:], counting_keys.exchanges[:]
    with OpCounter() as ctr:
        assert decrypt(bob, deserialize_ciphertext_file(files[1])) == b"frame 1"
    # The check and the product: one exchange each, no key built, no square root.
    assert (len(counting_keys.built), len(counting_keys.exchanges)) == (0, 2)
    assert lifts == []
    assert (ctr.scalar_mults, ctr.point_adds) == (1, 0)
    # The spy sees what every Edwards decode calls.
    group.decode_element(G.encode())
    assert len(lifts) == 1


def test_decrypt_after_a_handshake_derives_no_key(setup, counting_keys):
    # The handshake's fresh ephemeral t goes through mul_u too; it must not
    # evict the key that the station decrypts with.
    _, alice, bob, ctx = setup
    rng = random.Random(426)
    files = [serialize_ciphertext_file(encrypt(ctx, b"frame %d" % i, rng)) for i in range(3)]
    frames = map(deserialize_ciphertext_file, files)
    peer_message = aq_hang_initiate(alice, rng).message
    state = aq_hang_initiate(bob, rng)
    for cache in (group._check_key, group._last_key):
        cache.cache_clear()
    built = []
    for step in ("decrypt", "decrypt", "handshake", "decrypt"):
        del counting_keys.built[:]
        if step == "decrypt":
            decrypt(bob, next(frames))
        else:
            aq_hang_finalize(bob, state, peer_message)
        built.append(len(counting_keys.built))
    # The first decrypt builds the check key and the secret's; the handshake
    # builds its two static keys and t's.
    assert built == [2, 0, 3, 0]


# SHA-256 over the key and transcript of a first-contact handshake and then a
# known-peer one, alice with bob, for seeds 1-3.
_HANDSHAKE_DIGESTS = {
    1: "d94c31bfba58dad94c6d01c35404416d8d71bc1e395e9c4c7c16de844ba2f763",
    2: "b7c42f2ee62d4be0433a34f4d3d050e92c5b8ed1376cfa8277b5881e2db93053",
    3: "7cf77b655f1afcc99f23c7016df1caf877683f03edf221a579c50c8a81921824",
}


@pytest.mark.parametrize("seed", sorted(_HANDSHAKE_DIGESTS))
def test_a_table_less_handshake_with_a_known_peer_loads_one_key(seed, counting_keys):
    # The initiate reads u(t*G) off the public key of t's key (mul_u of G's u), and the
    # finalize multiplies the peer's u(T) with that same kept key: one key load for both
    # halves with a known peer.  Keys and transcripts are pinned.
    rng = random.Random(seed)
    kgc = kgc_setup(rng)
    alice, bob = aq_kg(kgc, b"alice", rng), aq_kg(kgc, b"bob", rng)
    digest, builds = hashlib.sha256(), []
    for _ in range(2):  # a first contact, then a known peer
        theirs = aq_hang_initiate(bob, rng)
        group._last_key.cache_clear()
        del counting_keys.built[:]
        with OpCounter() as ctr:
            ours = aq_hang_initiate(alice, rng)
            session = aq_hang_finalize(alice, ours, theirs.message)
        builds.append(len(counting_keys.built))
        assert session == aq_hang_finalize(bob, theirs, ours.message)
        digest.update(session.key + session.transcript_hash)
    assert builds[1] == 1 and (ctr.scalar_mults, ctr.point_adds) == (2, 0)
    assert digest.hexdigest() == _HANDSHAKE_DIGESTS[seed]
