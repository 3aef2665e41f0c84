"""Hybrid encryption to a self-certified recipient, with precomputed tables.

The sender builds (once, offline) a designated table over the
recipient's reconstructed public key X.  Encrypting is then free of
scalar multiplications: a subset sum yields (r, R = r*G, S = r*X), the
shared point S is fed through a KDF into independent cipher and MAC
keys, and the message is sealed as

    c   = ChaCha20(k_enc, zero nonce) XOR m
    tag = Poly1305(one_time_key(k_mac), c)

The receiver recovers S = x*R with its single scalar multiplication,
re-derives the keys, checks the tag in constant time, and only then
decrypts — a tag mismatch never releases plaintext.

The zero ChaCha20 nonce is sound because k_enc is single-use: every
encryption draws a fresh random subset, so (key, nonce) pairs never
repeat.  The Poly1305 key is derived from k_mac by encrypting 32 zero
bytes at counter 0, the standard one-time-key discipline; the message
stream under k_enc also starts at counter 0, which is safe because the
two keys are independent halves of the KDF output.

Wire forms::

    bare ciphertext   R (32B) | c (|m| bytes) | tag (16B)     -- 48B overhead
    ciphertext file   "IODCENC1" | group id (1B) | R (32B)
                      | c_len (4B LE) | c | tag (16B)
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import ChaCha20
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.poly1305 import Poly1305

from .bpv import BpvParams, PrecompTable, dbpv_offline, dbpv_online
from .errors import (
    InvalidDesignatedPoint,
    InvalidSharedPoint,
    MacMismatch,
    TableIntegrity,
    TruncatedFile,
)
from .group import (
    G,
    GROUP_ID,
    GroupElement,
    OpCounter,
    _check_header,
    decode_element,
    random_scalar,
    scalar_mult,
)
from .selfcert import IdentityRecord, SelfCertKeypair, reconstruct_pub

MAGIC_CIPHERTEXT = b"IODCENC1"
TAG_LEN = 16
WIRE_OVERHEAD = 32 + TAG_LEN

_KDF_INFO = b"IODCRYPT-ECIES-v1"
_ZERO_NONCE = bytes(12)
_COUNTER_ZERO = bytes(4)  # little-endian initial block counter


@dataclass(frozen=True)
class Ciphertext:
    """Sealed message: ephemeral point, stream-encrypted body, MAC tag."""

    ephemeral: GroupElement
    body: bytes
    tag: bytes

    def encode(self) -> bytes:
        """Bare wire form, exactly 48 bytes longer than the message."""
        return self.ephemeral.encode() + self.body + self.tag


def decode_ciphertext(data: bytes) -> Ciphertext:
    if len(data) < WIRE_OVERHEAD:
        raise TruncatedFile(f"ciphertext shorter than its overhead ({len(data)} bytes)")
    return Ciphertext(
        ephemeral=decode_element(data[:32]),
        body=data[32:-TAG_LEN],
        tag=data[-TAG_LEN:],
    )


@dataclass(frozen=True)
class SymKeys:
    """Independent single-use cipher and MAC keys from one shared point."""

    k_enc: bytes
    k_mac: bytes


@dataclass(frozen=True)
class SenderContext:
    """A (G, X) table bound to the recipient X it encrypts to."""

    table: PrecompTable
    receiver: IdentityRecord

    def __post_init__(self):
        if self.table.owner_binding != self.receiver.binding():
            raise TableIntegrity("table was precomputed for a different recipient")

    @property
    def memory_bytes(self) -> int:
        """Long-lived sender state: table entries plus the 32-byte secret."""
        return self.table.entry_bytes + 32


def enc_kg_sender(
    receiver: IdentityRecord,
    system_public: GroupElement,
    params: BpvParams,
    rng,
    ctr: OpCounter | None = None,
) -> SenderContext:
    """Build the sender's designated table over the recipient's public key."""
    recipient_key = reconstruct_pub(receiver, system_public, ctr)
    if recipient_key.is_identity():
        raise InvalidDesignatedPoint("recipient record reconstructs to the identity")
    return SenderContext(
        table=dbpv_offline(params, recipient_key, receiver.binding(), rng, ctr),
        receiver=receiver,
    )


def kdf(shared_point: GroupElement) -> SymKeys:
    """Derive (k_enc, k_mac) from a shared point; identity is refused."""
    if shared_point.is_identity():
        raise InvalidSharedPoint("shared point must not be the identity")
    okm = HKDF(algorithm=SHA256(), length=64, salt=None, info=_KDF_INFO).derive(
        shared_point.encode()
    )
    return SymKeys(k_enc=okm[:32], k_mac=okm[32:])


def _keystream_xor(key: bytes, data: bytes) -> bytes:
    """ChaCha20 under the fixed zero nonce, counter starting at 0."""
    cipher = Cipher(ChaCha20(key, _COUNTER_ZERO + _ZERO_NONCE), mode=None)
    return cipher.encryptor().update(data)


def _one_time_key(k_mac: bytes) -> bytes:
    """Poly1305 key: first 32 ChaCha20 keystream bytes under k_mac."""
    cipher = Cipher(ChaCha20(k_mac, _COUNTER_ZERO + _ZERO_NONCE), mode=None)
    return cipher.encryptor().update(bytes(32))


def _tag(k_mac: bytes, body: bytes) -> bytes:
    return Poly1305.generate_tag(_one_time_key(k_mac), body)


def encrypt(ctx: SenderContext, message: bytes, rng, ctr: OpCounter | None = None) -> Ciphertext:
    """Seal ``message`` for the context's recipient: additions only."""
    if len(message) >= 2**32:
        raise ValueError("message too long for the 4-byte length field")
    _r, ephemeral, shared = dbpv_online(ctx.table, rng, ctr)
    keys = kdf(shared)
    body = _keystream_xor(keys.k_enc, message)
    return Ciphertext(ephemeral=ephemeral, body=body, tag=_tag(keys.k_mac, body))


def decrypt(keypair: SelfCertKeypair, ct: Ciphertext, ctr: OpCounter | None = None) -> bytes:
    """Open a ciphertext with one scalar multiplication.

    The tag is checked in constant time before any decryption; on
    mismatch :class:`MacMismatch` is raised and no plaintext bytes are
    ever produced.
    """
    shared = scalar_mult(keypair.secret, ct.ephemeral, ctr)
    keys = kdf(shared)
    if not hmac.compare_digest(_tag(keys.k_mac, ct.body), ct.tag):
        raise MacMismatch("authentication tag mismatch; wrong recipient or tampered data")
    return _keystream_xor(keys.k_enc, ct.body)


def reference_encrypt(
    recipient_key: GroupElement, message: bytes, rng, ctr: OpCounter | None = None
) -> Ciphertext:
    """Seal with direct scalar multiplications instead of a table.

    Produces ciphertexts byte-compatible with :func:`encrypt`; serves as
    the cross-check oracle and the two-multiplication baseline.
    """
    if recipient_key.is_identity():
        raise InvalidDesignatedPoint("recipient key must not be the identity")
    if len(message) >= 2**32:
        raise ValueError("message too long for the 4-byte length field")
    r = random_scalar(rng)
    ephemeral = scalar_mult(r, G, ctr)
    keys = kdf(scalar_mult(r, recipient_key, ctr))
    body = _keystream_xor(keys.k_enc, message)
    return Ciphertext(ephemeral=ephemeral, body=body, tag=_tag(keys.k_mac, body))


# ---------------------------------------------------------------------------
# Ciphertext files
# ---------------------------------------------------------------------------


def serialize_ciphertext_file(ct: Ciphertext) -> bytes:
    return (
        MAGIC_CIPHERTEXT
        + bytes([GROUP_ID])
        + ct.ephemeral.encode()
        + len(ct.body).to_bytes(4, "little")
        + ct.body
        + ct.tag
    )


_CT_FILE_MIN = len(MAGIC_CIPHERTEXT) + 1 + 32 + 4 + TAG_LEN


def _ciphertext_file_len(data: bytes) -> int:
    body_len_at = len(MAGIC_CIPHERTEXT) + 1 + 32
    return _CT_FILE_MIN + int.from_bytes(data[body_len_at : body_len_at + 4], "little")


def deserialize_ciphertext_file(data: bytes) -> Ciphertext:
    off = _check_header(data, MAGIC_CIPHERTEXT, _CT_FILE_MIN, _ciphertext_file_len)
    ephemeral = decode_element(data[off : off + 32])
    off += 32
    body_len = int.from_bytes(data[off : off + 4], "little")
    off += 4
    return Ciphertext(
        ephemeral=ephemeral,
        body=data[off : off + body_len],
        tag=data[off + body_len :],
    )
