"""Tests for precomputed-nonce Schnorr signing over self-certified keys."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from iodcrypt.bpv import BpvParams, dbpv_offline
from iodcrypt.errors import (
    BadMagic,
    InvalidIdentity,
    MalformedScalar,
    TruncatedFile,
    UnsupportedParams,
    UnsupportedVersion,
)
from iodcrypt import group
from iodcrypt.group import G, N, GroupElement, OpCounter, Scalar, subset_sum
from iodcrypt.selfcert import aq_kg, deserialize_record, key_ver, serialize_record
from iodcrypt.sign import (
    Signature,
    SignerContext,
    VerifierContext,
    decode_signature,
    deserialize_signature_file,
    reference_sign,
    reference_verify,
    serialize_signature_file,
    sign,
    sign_kg,
    verify,
)
from iodcrypt.selfcert import kgc_setup

TOY = BpvParams(v=4, k=16, allow_unsafe=True)


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(71)
    kgc = kgc_setup(rng)
    ctx = sign_kg(kgc, b"signer-1", TOY, rng)
    vctx = VerifierContext.build(ctx.keypair.record, kgc.public)
    return kgc, ctx, vctx


# --------------------------------------------------------------------------
# Key generation
# --------------------------------------------------------------------------


def test_sign_kg_issues_verifiable_key_and_honest_table(setup):
    kgc, ctx, _ = setup
    assert key_ver(ctx.keypair.record, ctx.keypair.secret, kgc.public)
    for i, r_i in enumerate(ctx.table.scalars):
        assert subset_sum(ctx.table.stored[0], [i]) == r_i * G


def test_sign_refuses_a_designated_table(setup):
    # A (G, X) table is for encryption; its G column alone would sign, and verify.
    _, ctx, _ = setup
    rng = random.Random(73)
    table = dbpv_offline(TOY, Scalar(5) * G, bytes(32), rng)
    with pytest.raises(UnsupportedParams, match="not a designated one"):
        sign(SignerContext(ctx.keypair, table), b"frame", rng)


def test_signer_memory_footprint_at_production_parameters():
    rng = random.Random(72)
    kgc = kgc_setup(rng)
    ctx = sign_kg(kgc, b"signer-m", BpvParams(28, 256), rng)
    assert ctx.memory_bytes == 16_416


def test_verifier_context_caches_the_reconstruction(setup):
    kgc, ctx, vctx = setup
    assert vctx.cached_key == ctx.keypair.secret * G


# --------------------------------------------------------------------------
# Honest sign/verify
# --------------------------------------------------------------------------


def test_honest_signatures_verify(setup):
    _, ctx, vctx = setup
    rng = random.Random(73)
    for i in range(50):
        message = rng.randbytes(rng.randrange(0, 200))
        assert verify(vctx, message, sign(ctx, message, rng, None)) is True


def test_empty_message_signs_and_verifies(setup):
    _, ctx, vctx = setup
    rng = random.Random(74)
    assert verify(vctx, b"", sign(ctx, b"", rng))


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=0, max_size=512), st.integers(min_value=0, max_value=2**32))
def test_sign_verify_round_trip_property(message, seed):
    rng = random.Random(75)
    kgc = kgc_setup(rng)
    ctx = sign_kg(kgc, b"signer-p", TOY, rng)
    vctx = VerifierContext.build(ctx.keypair.record, kgc.public)
    assert verify(vctx, message, sign(ctx, message, random.Random(seed)))


# --------------------------------------------------------------------------
# Operation budgets
# --------------------------------------------------------------------------


def test_signing_needs_no_scalar_multiplication(setup):
    _, ctx, _ = setup
    with OpCounter() as ctr:
        sign(ctx, b"budget", random.Random(76))
    assert ctr.scalar_mults == 0
    assert ctr.point_adds == TOY.v - 1


def test_verification_budget(setup):
    _, ctx, vctx = setup
    rng = random.Random(77)
    sig = sign(ctx, b"budget", rng)
    with OpCounter() as ctr:
        verify(vctx, b"budget", sig)
    assert (ctr.scalar_mults, ctr.point_adds) == (2, 1)


def test_reference_verification_budget(setup):
    _, ctx, vctx = setup
    sig = sign(ctx, b"reference", random.Random(79))
    with OpCounter() as ctr:
        assert reference_verify(vctx.cached_key, b"reference", sig)
    assert (ctr.scalar_mults, ctr.point_adds) == (2, 1)


def test_reference_sign_costs_one_multiplication(setup):
    _, ctx, _ = setup
    with OpCounter() as ctr:
        reference_sign(ctx.keypair.secret, b"budget", random.Random(78))
    assert (ctr.scalar_mults, ctr.point_adds) == (1, 0)


# --------------------------------------------------------------------------
# Cross-oracle equivalence
# --------------------------------------------------------------------------


def test_both_verifiers_agree_on_honest_and_corrupt_signatures(setup):
    _, ctx, vctx = setup
    rng = random.Random(79)
    public = ctx.keypair.secret * G
    corpus = []
    for i in range(30):
        message = rng.randbytes(20)
        corpus.append((message, sign(ctx, message, rng)))
        corpus.append((message, reference_sign(ctx.keypair.secret, message, rng)))
        good = corpus[-1][1]
        corpus.append((message, Signature(good.s + Scalar(1), good.e)))
        corpus.append((message + b"!", good))
    for message, sig in corpus:
        assert verify(vctx, message, sig) == reference_verify(public, message, sig)


def _spy(monkeypatch, name):
    calls = []
    real = getattr(group, name)
    monkeypatch.setattr(group, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _g_reads(ladder_calls):
    # The _ladder_u calls that read u(k * G) off a key's own public key, with no exchange.
    return sum(args[1] == (None,) for args in ladder_calls)


def test_context_verify_costs_one_x25519_call(setup, monkeypatch):
    # X25519 calls per operation (_ladder_u loads one key a call): exchanges, reads of
    # G's product off a key's own public key, and Montgomery conversions, one per base
    # on its first product.
    kgc, ctx, _ = setup
    exchanges, conversions = _spy(monkeypatch, "_ladder_u"), _spy(monkeypatch, "_montgomery")
    calls = []

    def tally():
        g_reads = _g_reads(exchanges)
        calls.append((len(exchanges) - g_reads, g_reads, len(conversions)))
        del exchanges[:], conversions[:]

    # A record from the wire: decoding U is one subgroup check.
    record = deserialize_record(serialize_record(ctx.keypair.record))
    tally()
    assert calls == [(1, 0, 0)]
    vctx = VerifierContext.build(record, kgc.public)
    tally()
    assert calls == [(1, 0, 0), (2, 0, 1)]  # the product H(id, U) * U
    assert vctx.cached_key._ladder is None  # build leaves the key to its first verify
    rng = random.Random(82)
    for i in range(5):
        message = rng.randbytes(16)
        sig = sign(ctx, message, rng)
        with OpCounter() as ctr:
            assert verify(vctx, message, sig)
        tally()
        assert (ctr.scalar_mults, ctr.point_adds) == (2, 1)
    # e * cached_key on two exchanges; s * G on two key loads that read their own
    # public keys, with no exchange and no conversion.
    assert calls == [(1, 0, 0), (2, 0, 1), (2, 2, 1)] + [(2, 2, 0)] * 4


def test_round_robin_contexts_convert_no_key_after_its_first_verify(setup, monkeypatch):
    # A station serving 16 signers in turn maps each context's key to Montgomery
    # form on its first verify only; the other verifies are the two exchanges
    # and s * G's two reads of a key's own public key.
    kgc, _, _ = setup
    rng = random.Random(86)
    keypairs = [aq_kg(kgc, b"drone-%02d" % i, rng) for i in range(16)]
    contexts = [VerifierContext.build(deserialize_record(serialize_record(kp.record)), kgc.public)
                for kp in keypairs]
    signed = [(b"frame %d" % i, reference_sign(kp.secret, b"frame %d" % i, rng))
              for i, kp in enumerate(keypairs)]
    for vctx, (message, sig) in zip(contexts, signed):
        assert verify(vctx, message, sig)
    exchanges, conversions = _spy(monkeypatch, "_ladder_u"), _spy(monkeypatch, "_montgomery")
    for _ in range(3):
        for vctx, (message, sig) in zip(contexts, signed):
            assert verify(vctx, message, sig)
            assert not verify(vctx, message + b"!", sig)
    assert conversions == []
    assert _g_reads(exchanges) == len(exchanges) - _g_reads(exchanges) == 2 * 2 * 3 * 16


def test_sixteen_contexts_from_wire_bytes_hold_no_commitment_ladders(setup):
    # A context keeps the signer's key X alone: not the record, so not U, the base of
    # build's product, with the Montgomery form and X25519 public key that it leaves on U.
    kgc, _, _ = setup
    rng = random.Random(85)
    wires = [serialize_record(aq_kg(kgc, b"drone-%02d" % i, rng).record) for i in range(16)]
    VerifierContext.build(deserialize_record(wires[0]), kgc.public)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        contexts = [VerifierContext.build(deserialize_record(w), kgc.public) for w in wires]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(contexts) == 16
    assert all(list(vars(ctx)) == ["cached_key"] for ctx in contexts)
    assert held < 64 * 1024


def test_many_verifies_on_one_context_agree_with_reference_verify(setup):
    kgc, ctx, _ = setup
    other = sign_kg(kgc, b"signer-2", TOY, random.Random(83))
    vctx = VerifierContext.build(ctx.keypair.record, kgc.public)
    rng = random.Random(84)
    for i in range(40):
        message = rng.randbytes(rng.randrange(0, 40))
        good = sign(ctx, message, rng)
        for candidate, sig in (
            (message, good),
            (message + b"!", good),
            (message, Signature(good.s + Scalar(1), good.e)),
            (message, Signature(good.s, good.e + Scalar(1))),
            (message, sign(other, message, rng)),
        ):
            public = GroupElement(vctx.cached_key.coords)
            assert verify(vctx, candidate, sig) == reference_verify(public, candidate, sig)
        assert verify(vctx, message, good)


def test_reference_signatures_verify_under_reconstructed_key(setup):
    _, ctx, vctx = setup
    rng = random.Random(80)
    sig = reference_sign(ctx.keypair.secret, b"cross", rng)
    assert verify(vctx, b"cross", sig)
    assert reference_verify(ctx.keypair.secret * G, b"cross", sig)


def test_both_signers_share_one_wire_format(setup):
    _, ctx, _ = setup
    rng = random.Random(81)
    a = sign(ctx, b"m", rng).encode()
    b = reference_sign(ctx.keypair.secret, b"m", rng).encode()
    assert len(a) == len(b) == 64
    assert decode_signature(a).encode() == a
    assert decode_signature(b).encode() == b


# --------------------------------------------------------------------------
# Rejection behaviour
# --------------------------------------------------------------------------


def test_tampered_messages_rejected(setup):
    _, ctx, vctx = setup
    rng = random.Random(82)
    for _ in range(100):
        message = bytearray(rng.randbytes(rng.randrange(1, 64)))
        sig = sign(ctx, bytes(message), rng)
        bit = rng.randrange(len(message) * 8)
        message[bit // 8] ^= 1 << (bit % 8)
        assert verify(vctx, bytes(message), sig) is False


def test_signature_component_tampering_rejected(setup):
    _, ctx, vctx = setup
    sig = sign(ctx, b"m", random.Random(83))
    assert not verify(vctx, b"m", Signature(sig.s + Scalar(1), sig.e))
    assert not verify(vctx, b"m", Signature(sig.s, sig.e + Scalar(1)))
    assert not verify(vctx, b"m", Signature(sig.e, sig.s))


def test_cross_identity_verification_rejected(setup):
    kgc, ctx, _ = setup
    rng = random.Random(84)
    other = sign_kg(kgc, b"signer-2", TOY, rng)
    other_vctx = VerifierContext.build(other.keypair.record, kgc.public)
    sig = sign(ctx, b"m", rng)
    assert not verify(other_vctx, b"m", sig)


def test_random_bytes_never_verify(setup):
    _, _, vctx = setup
    rng = random.Random(85)
    accepted = 0
    for _ in range(5_000):
        try:
            sig = decode_signature(rng.randbytes(64))
        except MalformedScalar:
            continue
        accepted += verify(vctx, b"target", sig)
    assert accepted == 0


# --------------------------------------------------------------------------
# Nonce behaviour
# --------------------------------------------------------------------------


def test_nonces_never_repeat_at_production_parameters():
    rng = random.Random(86)
    kgc = kgc_setup(rng)
    ctx = sign_kg(kgc, b"signer-n", BpvParams(28, 256), rng)
    x = ctx.keypair.secret
    nonces = set()
    for _ in range(10_000):
        sig = sign(ctx, b"same message", rng)
        nonces.add((sig.s + sig.e * x).v)  # recovers r = s + e*x
    assert len(nonces) == 10_000


# --------------------------------------------------------------------------
# Encoding and files
# --------------------------------------------------------------------------


def test_signature_codec_rejects_bad_input():
    with pytest.raises(MalformedScalar):
        decode_signature(b"\x00" * 63)
    with pytest.raises(MalformedScalar):
        decode_signature(b"\x00" * 65)
    with pytest.raises(MalformedScalar):
        decode_signature(N.to_bytes(32, "little") + b"\x00" * 32)
    with pytest.raises(MalformedScalar):
        decode_signature(b"\x00" * 32 + N.to_bytes(32, "little"))


def test_signature_file_round_trip(setup):
    _, ctx, _ = setup
    sig = sign(ctx, b"m", random.Random(87))
    blob = serialize_signature_file(b"signer-1", sig)
    signer_id, again = deserialize_signature_file(blob)
    assert signer_id == b"signer-1"
    assert again == sig
    assert serialize_signature_file(signer_id, again) == blob


def test_signature_file_error_mapping(setup):
    _, ctx, _ = setup
    sig = sign(ctx, b"m", random.Random(88))
    blob = serialize_signature_file(b"signer-1", sig)
    with pytest.raises(BadMagic):
        deserialize_signature_file(b"XXXXXXX1" + blob[8:])
    with pytest.raises(UnsupportedVersion):
        deserialize_signature_file(blob[:7] + b"9" + blob[8:])
    with pytest.raises(UnsupportedVersion):
        deserialize_signature_file(blob[:8] + b"\x7f" + blob[9:])
    with pytest.raises(TruncatedFile):
        deserialize_signature_file(blob[:-1])
    with pytest.raises(TruncatedFile):
        deserialize_signature_file(blob + b"\x00")
    with pytest.raises(InvalidIdentity):
        serialize_signature_file(b"", sig)
    bad = bytearray(blob)
    bad[9] = 0
    with pytest.raises(InvalidIdentity):
        deserialize_signature_file(bytes(bad))
