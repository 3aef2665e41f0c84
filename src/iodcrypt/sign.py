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
precomputed path is benchmarked against.  Their products of G run on the
comb of G; every other product of G, verify's s*G included, on X25519.

Wire format: a signature is exactly 64 bytes, s then e, each a 32-byte
little-endian scalar.  Detached signature files are
"IODCSIG1" | group id (1B) | id_len (1B) | signer id | signature (64B).
"""

from __future__ import annotations

from .bpv import BpvParams, PrecompTable, bpv_offline, bpv_online
from .errors import MalformedScalar
from .group import (
    DOMAIN_SIG,
    G,
    GroupElement,
    OpCounter,
    Scalar,
    _UNBOUND,
    _frame,
    comb_mult,
    decode_scalar,
    hash_to_scalar,
    point_add,
    random_scalar,
    record,
    scalar_mult,
)
from .selfcert import (DroneKey, IdentityRecord, KgcKeypair, SelfCertKeypair, _check_identity,
                       _id_file, aq_kg, reconstruct_pub)

MAGIC_SIGNATURE = b"IODCSIG1"
SIGNATURE_LEN = 64


@record
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


@record
class SignerContext:
    """Issued keypair plus the precomputation table that feeds its nonces.

    Signing reads only the keypair's ``secret``, so ``keypair`` may also be
    the :class:`~iodcrypt.selfcert.DroneKey` read from a key file.
    """

    keypair: SelfCertKeypair | DroneKey
    table: PrecompTable

    @property
    def memory_bytes(self) -> int:
        """Long-lived signer state: table entries plus the 32-byte secret."""
        return self.table.entry_bytes + 32


@record
class VerifierContext:
    """Verifier-side state: the signer's public key, already reconstructed.

    ``cached_key`` must equal the reconstruction H(id, U)*U + D; build
    through :meth:`build` to guarantee that.  It is the one point the
    context holds; the first verify leaves its Montgomery form and X25519
    public key on it, so each later verify is e * cached_key on two X25519
    calls.
    """

    cached_key: GroupElement

    @classmethod
    def build(cls, record: IdentityRecord, system_public: GroupElement) -> "VerifierContext":
        return cls(reconstruct_pub(record, system_public))


def sign_kg(kgc: KgcKeypair, drone_id: bytes, params: BpvParams, rng) -> SignerContext:
    """Issue a keypair and build its nonce table in one step."""
    return SignerContext(keypair=aq_kg(kgc, drone_id, rng), table=bpv_offline(params, rng))


# sign and verify, like encrypt, decrypt and the two handshake halves, still take a
# trailing ``ctr``: given, it is bound for the call as ``with ctr:`` would bind it;
# None binds nothing, so an enclosing scope counts the call.  perfbench passes it;
# these six parameters go once perfbench counts by scope (ROADMAP item 0), and with
# them aq_hang_finalize's unread ``system_public``, which perfbench passes before ``ctr``.


def sign(ctx: SignerContext, message: bytes, rng, ctr: OpCounter | None = None) -> Signature:
    """Sign ``message`` using a precomputed nonce: v-1 additions, zero mults."""
    with ctr or _UNBOUND:
        r, nonce_point = bpv_online(ctx.table, rng)
        e = hash_to_scalar(DOMAIN_SIG, [message, nonce_point.encode()])
        return Signature(s=r - e * ctx.keypair.secret, e=e)


def verify(
    vctx: VerifierContext, message: bytes, sig: Signature, ctr: OpCounter | None = None
) -> bool:
    """True iff ``sig`` is valid for ``message`` under the context's signer.

    Recomputes R' = e*cached_key + s*G (two multiplications on X25519,
    one addition) and accepts iff the challenge hash matches.
    """
    with ctr or _UNBOUND:
        candidate = point_add(scalar_mult(sig.e, vctx.cached_key), scalar_mult(sig.s, G))
        return hash_to_scalar(DOMAIN_SIG, [message, candidate.encode()]) == sig.e


def reference_sign(secret: Scalar, message: bytes, rng) -> Signature:
    """Textbook signer: one fresh scalar multiplication per signature."""
    r = random_scalar(rng)
    nonce_point = comb_mult(r)
    e = hash_to_scalar(DOMAIN_SIG, [message, nonce_point.encode()])
    return Signature(s=r - e * secret, e=e)


def reference_verify(public: GroupElement, message: bytes, sig: Signature) -> bool:
    """Verify against an explicit public key X = x*G, with s*G on the comb of G."""
    candidate = point_add(scalar_mult(sig.e, public), comb_mult(sig.s))
    return hash_to_scalar(DOMAIN_SIG, [message, candidate.encode()]) == sig.e


# ---------------------------------------------------------------------------
# Detached signature files
# ---------------------------------------------------------------------------


def serialize_signature_file(signer_id: bytes, sig: Signature) -> bytes:
    _check_identity(signer_id)
    return _frame(MAGIC_SIGNATURE, bytes([len(signer_id)]), signer_id, sig.encode())


def deserialize_signature_file(data: bytes) -> tuple[bytes, Signature]:
    """Returns (signer id, signature)."""
    signer_id, sig = _id_file(data, MAGIC_SIGNATURE, SIGNATURE_LEN)
    return signer_id, decode_signature(sig)
