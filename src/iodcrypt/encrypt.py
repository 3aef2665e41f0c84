"""Hybrid encryption to a self-certified recipient, with precomputed tables.

The sender builds (once, offline) a designated table over the
recipient's reconstructed public key X.  Encrypting is then free of
scalar multiplications: a subset sum yields (r, R = r*G, S = r*X), u(S),
the Montgomery u of S (RFC 7748 section 5), is fed through HKDF into one
key k, and the message is sealed with the RFC 8439 AEAD (the one that
also seals table files):

    c || tag = ChaCha20-Poly1305(k, zero nonce).encrypt(m)

R travels as u(R), since the receiver only multiplies it: u(x*R) = u(S) is
one X25519 call after the decode's check, with no square root.  It
re-derives k and opens the AEAD, which returns no plaintext unless the
tag verifies (RFC 5116 section 2.2).

The zero nonce is sound because k is single-use: every encryption draws
a fresh random subset, so (key, nonce) pairs never repeat.  This is the
DEM of HPKE (RFC 9180): a single-use KDF key, then the RFC 8439 AEAD.

Wire forms::

    bare ciphertext   u(R) (32B) | c (|m| bytes) | tag (16B)  -- 48B overhead
    ciphertext file   "IODCENC3" | group id (1B) | u(R) (32B)
                      | c_len (4B LE) | c | tag (16B)

u < P, little-endian.  Messages are at most 2^31 - 1 bytes, the AEAD's limit.
``IODCENC1`` files (R in Edwards form) and ``IODCENC2`` files (two KDF
keys, a raw stream cipher and a separate MAC) raise UnsupportedVersion.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .bpv import BpvParams, PrecompTable, dbpv_offline, dbpv_online
from .errors import (
    InvalidDesignatedPoint,
    InvalidSharedPoint,
    MacMismatch,
    TableIntegrity,
    TruncatedFile,
    UnsupportedParams,
)
from .group import (
    ChaCha20Poly1305,
    GroupElement,
    OpCounter,
    _UNBOUND,
    _check_header,
    _frame,
    comb_mult,
    decode_u,
    montgomery_u,
    mul_u,
    random_scalar,
    record,
    scalar_mult,
)
from .selfcert import DroneKey, IdentityRecord, SelfCertKeypair, reconstruct_pub

MAGIC_CIPHERTEXT = b"IODCENC3"
TAG_LEN = 16
WIRE_OVERHEAD = 32 + TAG_LEN

_KDF_INFO = b"IODCRYPT-ECIES-v3"
_ZERO_NONCE = bytes(12)


@record
class Ciphertext:
    """Sealed message: the ephemeral point's u, the AEAD's body and tag."""

    ephemeral: int
    body: bytes
    tag: bytes

    def encode(self) -> bytes:
        """Bare wire form, exactly 48 bytes longer than the message."""
        return self.ephemeral.to_bytes(32, "little") + self.body + self.tag


def decode_ciphertext(data: bytes) -> Ciphertext:
    if len(data) < WIRE_OVERHEAD:
        raise TruncatedFile(f"ciphertext shorter than its overhead ({len(data)} bytes)")
    return Ciphertext(decode_u(data[:32]), data[32:-TAG_LEN], data[-TAG_LEN:])


@record
class SenderContext:
    """A (G, X) table bound to the recipient X it encrypts to.

    A table over any other number of bases raises UnsupportedParams; one
    bound to another recipient, TableIntegrity.
    """

    table: PrecompTable
    receiver: IdentityRecord

    def __post_init__(self):
        if len(self.table.bases) != 2:
            raise UnsupportedParams("encryption needs a designated table, not a signing one")
        if self.table.owner_binding != self.receiver.binding():
            raise TableIntegrity("table was precomputed for a different recipient")

    @property
    def memory_bytes(self) -> int:
        """Long-lived sender state: table entries plus the 32-byte secret."""
        return self.table.entry_bytes + 32


def enc_kg_sender(
    receiver: IdentityRecord, system_public: GroupElement, params: BpvParams, rng
) -> SenderContext:
    """Build the sender's designated table over the recipient's public key."""
    recipient_key = reconstruct_pub(receiver, system_public)
    return SenderContext(
        table=dbpv_offline(params, recipient_key, receiver.binding(), rng), receiver=receiver
    )


def kdf(shared_u: int) -> bytes:
    """Derive the single-use AEAD key from u of a shared point; the identity's, 0, is refused."""
    if shared_u == 0:
        raise InvalidSharedPoint("shared point must not be the identity")
    return HKDF(algorithm=SHA256(), length=32, salt=None, info=_KDF_INFO).derive(
        shared_u.to_bytes(32, "little")
    )


def _seal(ephemeral: GroupElement, shared: GroupElement, message: bytes) -> Ciphertext:
    """Seal under the key of u(S), sending u(R): one inversion for both."""
    if len(message) >= 2**31:
        raise ValueError("message too long: the AEAD takes at most 2^31 - 1 bytes")
    ephemeral_u, shared_u = montgomery_u((ephemeral, shared))
    sealed = ChaCha20Poly1305(kdf(shared_u)).encrypt(_ZERO_NONCE, message, None)
    return Ciphertext(ephemeral=ephemeral_u, body=sealed[:-TAG_LEN], tag=sealed[-TAG_LEN:])


def encrypt(ctx: SenderContext, message: bytes, rng, ctr: OpCounter | None = None) -> Ciphertext:
    """Seal ``message`` for the context's recipient: additions only.

    Like ``decrypt``, it still takes a trailing ``ctr``, bound for the call
    as in :func:`~iodcrypt.sign.sign`.
    """
    with ctr or _UNBOUND:
        _r, ephemeral, shared = dbpv_online(ctx.table, rng)
        return _seal(ephemeral, shared, message)


def decrypt(keypair: SelfCertKeypair | DroneKey, ct: Ciphertext, ctr: OpCounter | None = None) -> bytes:
    """Open a ciphertext with one scalar multiplication, u(x*R) on X25519.

    Reads only the keypair's ``secret``, so a :class:`DroneKey` serves too.

    The AEAD checks the tag and returns no plaintext unless it verifies;
    on mismatch :class:`MacMismatch` is raised.
    """
    with ctr or _UNBOUND:
        aead = ChaCha20Poly1305(kdf(mul_u(keypair.secret, ct.ephemeral)))
        try:
            return aead.decrypt(_ZERO_NONCE, ct.body + ct.tag, None)
        except InvalidTag:
            raise MacMismatch(
                "authentication tag mismatch; wrong recipient or tampered data") from None


def reference_encrypt(recipient_key: GroupElement, message: bytes, rng) -> Ciphertext:
    """Seal with direct scalar multiplications instead of a table.

    Produces ciphertexts byte-compatible with :func:`encrypt`; serves as
    the cross-check oracle and the two-multiplication baseline, and as
    ``iodcrypt encrypt``'s direct path.  Its r*G runs on the comb of G,
    so the first call in a process builds the comb (about 6 ms).
    """
    if recipient_key.is_identity():
        raise InvalidDesignatedPoint("recipient key must not be the identity")
    r = random_scalar(rng)
    return _seal(comb_mult(r), scalar_mult(r, recipient_key), message)


# ---------------------------------------------------------------------------
# Ciphertext files
# ---------------------------------------------------------------------------


def serialize_ciphertext_file(ct: Ciphertext) -> bytes:
    """The bare wire form with a header, and the body length after u(R)."""
    return _frame(MAGIC_CIPHERTEXT, ct.ephemeral.to_bytes(32, "little"),
                  len(ct.body).to_bytes(4, "little"), ct.body, ct.tag)


def deserialize_ciphertext_file(data: bytes) -> Ciphertext:
    fields = _check_header(data, MAGIC_CIPHERTEXT, 36 + TAG_LEN,
                           lambda fields: 36 + int.from_bytes(fields[32:36], "little") + TAG_LEN)
    return Ciphertext(decode_u(fields[:32]), fields[36:-TAG_LEN], fields[-TAG_LEN:])
