"""Schnorr signatures over self-certified keys with precomputed nonces.

Key generation bundles an issued keypair with a subset-sum
precomputation table, so producing a signature costs only v-1 point
additions and two scalar operations — no scalar multiplication at all:

    (r, R) from the table subset-sum
    e = H(message, R)
    s = r - e*x  (mod N)

Verification reconstructs the signer's public key from its identity
record (X = H(id, U)*U + D, cacheable across verifications) and checks

    R' = e*X + s*G,   accept iff e = H(message, R')

which holds because e*X + s*G = e*x*G + (r - e*x)*G = r*G = R.

A reference signer/verifier doing the textbook one-multiplication
Schnorr is included as a cross-check oracle and as the baseline that the
precomputed path is benchmarked against.

Wire format: a signature is exactly 64 bytes, s then e, each a 32-byte
little-endian scalar.  Detached signature files are
"IODCSIG1" | group id (1B) | id_len (1B) | signer id | signature (64B).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bpv import BpvParams, PrecompTable, bpv_offline, bpv_online
from .errors import MalformedScalar
from .group import (
    DOMAIN_SIG,
    G,
    GROUP_ID,
    GroupElement,
    OpCounter,
    Scalar,
    decode_scalar,
    hash_to_scalar,
    point_add,
    random_scalar,
    scalar_mult,
)
from .selfcert import (IdentityRecord, KgcKeypair, SelfCertKeypair, _check_identity, _id_file,
                       aq_kg, reconstruct_pub)

MAGIC_SIGNATURE = b"IODCSIG1"
SIGNATURE_LEN = 64


@dataclass(frozen=True)
class Signature:
    """Schnorr signature (s, e); 64 bytes on the wire."""

    s: Scalar
    e: Scalar

    def encode(self) -> bytes:
        return self.s.encode() + self.e.encode()


def decode_signature(data: bytes) -> Signature:
    if len(data) != SIGNATURE_LEN:
        raise MalformedScalar(f"signature must be {SIGNATURE_LEN} bytes, got {len(data)}")
    return Signature(s=decode_scalar(data[:32]), e=decode_scalar(data[32:]))


@dataclass(frozen=True)
class SignerContext:
    """Issued keypair plus the precomputation table that feeds its nonces."""

    keypair: SelfCertKeypair
    table: PrecompTable

    @property
    def memory_bytes(self) -> int:
        """Long-lived signer state: table entries plus the 32-byte secret."""
        return self.table.entry_bytes + 32


@dataclass(frozen=True)
class VerifierContext:
    """Verifier-side state with the signer's public key already reconstructed.

    ``cached_key`` must equal the reconstruction H(id, U)*U + D; build
    through :meth:`build` to guarantee that.  It holds the three points
    only: every verify computes e * cached_key afresh, on X25519.
    """

    record: IdentityRecord
    system_public: GroupElement
    cached_key: GroupElement

    @classmethod
    def build(
        cls,
        record: IdentityRecord,
        system_public: GroupElement,
        ctr: OpCounter | None = None,
    ) -> "VerifierContext":
        return cls(record, system_public, reconstruct_pub(record, system_public, ctr))


def sign_kg(
    kgc: KgcKeypair,
    drone_id: bytes,
    params: BpvParams,
    rng,
    ctr: OpCounter | None = None,
) -> SignerContext:
    """Issue a keypair and build its nonce table in one step."""
    return SignerContext(
        keypair=aq_kg(kgc, drone_id, rng, ctr),
        table=bpv_offline(params, rng, ctr),
    )


def sign(ctx: SignerContext, message: bytes, rng, ctr: OpCounter | None = None) -> Signature:
    """Sign ``message`` using a precomputed nonce: v-1 additions, zero mults."""
    r, nonce_point = bpv_online(ctx.table, rng, ctr)
    e = hash_to_scalar(DOMAIN_SIG, [message, nonce_point.encode()])
    return Signature(s=r - e * ctx.keypair.secret, e=e)


def verify(
    vctx: VerifierContext, message: bytes, sig: Signature, ctr: OpCounter | None = None
) -> bool:
    """True iff ``sig`` is valid for ``message`` under the context's signer.

    Recomputes R' = e*cached_key + s*G (two multiplications, one
    addition) and accepts iff the challenge hash matches.
    """
    candidate = point_add(
        scalar_mult(sig.e, vctx.cached_key, ctr),
        scalar_mult(sig.s, G, ctr),
        ctr,
    )
    return hash_to_scalar(DOMAIN_SIG, [message, candidate.encode()]) == sig.e


def reference_sign(
    secret: Scalar, message: bytes, rng, ctr: OpCounter | None = None
) -> Signature:
    """Textbook signer: one fresh scalar multiplication per signature."""
    r = random_scalar(rng)
    nonce_point = scalar_mult(r, G, ctr)
    e = hash_to_scalar(DOMAIN_SIG, [message, nonce_point.encode()])
    return Signature(s=r - e * secret, e=e)


def reference_verify(
    public: GroupElement, message: bytes, sig: Signature, ctr: OpCounter | None = None
) -> bool:
    """Verify against an explicit public key X = x*G."""
    candidate = point_add(
        scalar_mult(sig.e, public, ctr),
        scalar_mult(sig.s, G, ctr),
        ctr,
    )
    return hash_to_scalar(DOMAIN_SIG, [message, candidate.encode()]) == sig.e


# ---------------------------------------------------------------------------
# Detached signature files
# ---------------------------------------------------------------------------


def serialize_signature_file(signer_id: bytes, sig: Signature) -> bytes:
    _check_identity(signer_id)
    return (
        MAGIC_SIGNATURE
        + bytes([GROUP_ID])
        + bytes([len(signer_id)])
        + signer_id
        + sig.encode()
    )


def deserialize_signature_file(data: bytes) -> tuple[bytes, Signature]:
    """Returns (signer id, signature)."""
    signer_id, off = _id_file(data, MAGIC_SIGNATURE, SIGNATURE_LEN)
    return signer_id, decode_signature(data[off:])
