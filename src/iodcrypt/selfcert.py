"""Self-certified key management and authenticated key agreement.

A key-generation centre (KGC) holds a master pair (d, D = d*G).  For a
drone with identity ``id`` it picks b, publishes the commitment
U = b*G, and hands back the private key x = H(id, U)*b + d (mod N).
The pair (id, U) acts as an implicit certificate: anyone holding the
system key D can reconstruct the drone's public key as

    X = H(id, U) * U + D  ( = x * G )

so no signed certificate is ever transmitted or verified.  Two drones
derive the same static secret K = x_a * X_b = x_b * X_a = x_a * x_b * G.
Because D is fixed, each drone stores x*D once at issuance; the static
secret then costs one scalar multiplication plus one addition instead of
three multiplications.

An ephemeral handshake on top contributes fresh randomness per session:
each side sends its identity record plus T = t*G (optionally from a
precomputed table, making the online cost pure additions) and the
session key is derived from both the static and the ephemeral shared
points bound to a transcript hash of the two messages.

File formats (magic | group id byte | payload, little-endian lengths)::

    system public key  "IODCSYSP" | group | D (32B)
    KGC master secret  "IODCKGCS" | group | d (32B) | D (32B)
    drone private key  "IODCDRNK" | group | id_len (1B) | id | x (32B)
                       | U (32B) | x*D (32B)
    identity record         id_len (1B) | id | U (32B)   (no magic; embeds
                            in handshake messages and signature files)
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .bpv import PrecompTable, bpv_online
from .errors import InvalidEphemeral, InvalidIdentity, TruncatedFile
from .group import (
    DOMAIN_KEY,
    G,
    GROUP_ID,
    GroupElement,
    OpCounter,
    Scalar,
    _check_header,
    decode_element,
    decode_scalar,
    hash_to_scalar,
    point_add,
    random_scalar,
    scalar_mult,
)

MAGIC_SYSTEM = b"IODCSYSP"
MAGIC_KGC = b"IODCKGCS"
MAGIC_DRONE = b"IODCDRNK"

_HANG_INFO = b"IODCRYPT-HANG-v1"


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KgcKeypair:
    """KGC master secret d and system public key D = d*G."""

    secret: Scalar = field(repr=False)
    public: GroupElement


@dataclass(frozen=True)
class IdentityRecord:
    """Public (identity, commitment) pair acting as an implicit certificate."""

    drone_id: bytes
    commitment: GroupElement

    def __post_init__(self):
        _check_identity(self.drone_id)

    def wire(self) -> bytes:
        """id_len (1B) | id | commitment (32B)."""
        return bytes([len(self.drone_id)]) + self.drone_id + self.commitment.encode()

    def binding(self) -> bytes:
        """32-byte hash of the wire form; names this record in other files."""
        return hashlib.sha256(self.wire()).digest()

    def key_hash(self) -> Scalar:
        """The record's hash coefficient H(id, U) used in reconstruction."""
        return hash_to_scalar(DOMAIN_KEY, [self.drone_id, self.commitment.encode()])


@dataclass(frozen=True)
class SelfCertKeypair:
    """A drone's issued key material.

    ``cached_term`` stores x*D, fixed at issuance, which collapses the
    static shared-secret computation to one multiplication plus one
    addition.  It may be None for keys imported from systems that do not
    carry the cache; shared-secret derivation then recomputes from the
    system public key.
    """

    record: IdentityRecord
    secret: Scalar = field(repr=False)
    cached_term: GroupElement | None = field(repr=False)


@dataclass(frozen=True)
class HangState:
    """Initiator-side state between the two handshake halves."""

    ephemeral_secret: Scalar = field(repr=False)
    message: bytes


@dataclass(frozen=True)
class SessionKey:
    """Handshake output: 32-byte key bound to the message transcript."""

    key: bytes = field(repr=False)
    transcript_hash: bytes

    def fingerprint(self) -> str:
        """Short public hex fingerprint, safe to compare out loud."""
        return hashlib.sha256(self.key).hexdigest()[:16]


def _check_identity(drone_id: bytes) -> None:
    if not isinstance(drone_id, (bytes, bytearray)):
        raise InvalidIdentity("identity must be bytes")
    if not 1 <= len(drone_id) <= 255:
        raise InvalidIdentity(f"identity length must be 1..255 bytes, got {len(drone_id)}")


# ---------------------------------------------------------------------------
# Key issuance
# ---------------------------------------------------------------------------


def kgc_setup(rng, ctr: OpCounter | None = None) -> KgcKeypair:
    """Create a fresh KGC master pair (one scalar multiplication)."""
    d = random_scalar(rng)
    return KgcKeypair(secret=d, public=scalar_mult(d, G, ctr))


def aq_kg(kgc: KgcKeypair, drone_id: bytes, rng, ctr: OpCounter | None = None) -> SelfCertKeypair:
    """Issue a self-certified keypair for ``drone_id`` (two scalar mults)."""
    _check_identity(drone_id)
    b = random_scalar(rng)
    commitment = scalar_mult(b, G, ctr)
    record = IdentityRecord(drone_id=bytes(drone_id), commitment=commitment)
    x = record.key_hash() * b + kgc.secret
    return SelfCertKeypair(
        record=record,
        secret=x,
        cached_term=scalar_mult(x, kgc.public, ctr),
    )


def reconstruct_pub(
    record: IdentityRecord, system_public: GroupElement, ctr: OpCounter | None = None
) -> GroupElement:
    """X = H(id, U)*U + D, the implicitly certified public key."""
    return point_add(scalar_mult(record.key_hash(), record.commitment, ctr), system_public, ctr)


def key_ver(
    record: IdentityRecord,
    secret: Scalar,
    system_public: GroupElement,
    ctr: OpCounter | None = None,
) -> bool:
    """True iff ``secret`` matches the key reconstructed from ``record``.

    False whenever the identity, commitment, system key, or private
    scalar was altered; never raises on well-formed inputs.
    """
    return scalar_mult(secret, G, ctr) == reconstruct_pub(record, system_public, ctr)


# ---------------------------------------------------------------------------
# Static shared secret
# ---------------------------------------------------------------------------


def aq_shared_static(
    own: SelfCertKeypair,
    peer: IdentityRecord,
    system_public: GroupElement | None = None,
    ctr: OpCounter | None = None,
) -> GroupElement:
    """Static Diffie-Hellman secret x_own * X_peer = x_own * x_peer * G.

    When the keypair carries its cached x*D term (the default for issued
    keys), the secret is K = (x * H(id_p, U_p)) * U_p + x*D: one
    multiplication plus one addition.  Without the cache the peer key is
    reconstructed from ``system_public`` first (two multiplications, one
    addition).  Both paths return the identical point.
    """
    if peer.commitment.is_identity():
        raise InvalidIdentity("peer commitment must not be the identity point")
    if own.cached_term is not None:
        combined = own.secret * peer.key_hash()
        return point_add(scalar_mult(combined, peer.commitment, ctr), own.cached_term, ctr)
    if system_public is None:
        raise ValueError("system_public is required when the cached term is not used")
    return scalar_mult(own.secret, reconstruct_pub(peer, system_public, ctr), ctr)


# ---------------------------------------------------------------------------
# Ephemeral handshake
# ---------------------------------------------------------------------------


def aq_hang_initiate(
    own: SelfCertKeypair,
    rng,
    table: PrecompTable | None = None,
    ctr: OpCounter | None = None,
) -> HangState:
    """First handshake half: build the outgoing message record | T.

    With ``table`` the ephemeral point comes from the subset-sum
    precomputation (additions only); otherwise it costs one scalar
    multiplication.
    """
    if table is not None:
        t, big_t = bpv_online(table, rng, ctr)
    else:
        t = random_scalar(rng)
        big_t = scalar_mult(t, G, ctr)
    return HangState(ephemeral_secret=t, message=own.record.wire() + big_t.encode())


def aq_hang_finalize(
    own: SelfCertKeypair,
    state: HangState,
    peer_message: bytes,
    system_public: GroupElement | None = None,
    ctr: OpCounter | None = None,
) -> SessionKey:
    """Second handshake half: derive the session key from a peer message.

    The key mixes the static secret (implicit mutual authentication),
    the ephemeral secret t_a * t_b * G (forward secrecy), and the hash
    of both messages in a fixed order (transcript binding).
    """
    peer_record, off = parse_record(peer_message)
    if len(peer_message) != off + 32:
        raise InvalidEphemeral(
            f"handshake message must carry exactly one ephemeral point "
            f"(got {len(peer_message) - off} trailing bytes)"
        )
    peer_ephemeral = decode_element(peer_message[off:])
    if peer_ephemeral.is_identity():
        raise InvalidEphemeral("peer ephemeral point is the identity")
    static_point = aq_shared_static(own, peer_record, system_public, ctr)
    ephemeral_point = scalar_mult(state.ephemeral_secret, peer_ephemeral, ctr)
    first, second = sorted((state.message, peer_message))
    transcript = hashlib.sha256(first + second).digest()
    ikm = static_point.encode() + ephemeral_point.encode() + transcript
    key = HKDF(algorithm=SHA256(), length=32, salt=None, info=_HANG_INFO).derive(ikm)
    return SessionKey(key=key, transcript_hash=transcript)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_system_public(public: GroupElement) -> bytes:
    return MAGIC_SYSTEM + bytes([GROUP_ID]) + public.encode()


def deserialize_system_public(data: bytes) -> GroupElement:
    total = len(MAGIC_SYSTEM) + 1 + 32
    off = _check_header(data, MAGIC_SYSTEM, total, total)
    return decode_element(data[off:])


def serialize_kgc_keypair(kgc: KgcKeypair) -> bytes:
    return MAGIC_KGC + bytes([GROUP_ID]) + kgc.secret.encode() + kgc.public.encode()


def deserialize_kgc_keypair(data: bytes) -> KgcKeypair:
    total = len(MAGIC_KGC) + 1 + 64
    off = _check_header(data, MAGIC_KGC, total, total)
    return KgcKeypair(
        secret=decode_scalar(data[off : off + 32]),
        public=decode_element(data[off + 32 :]),
    )


def serialize_drone_keypair(keypair: SelfCertKeypair) -> bytes:
    if keypair.cached_term is None:
        raise ValueError("drone key files always carry the cached x*D term")
    drone_id = keypair.record.drone_id
    return (
        MAGIC_DRONE
        + bytes([GROUP_ID])
        + bytes([len(drone_id)])
        + drone_id
        + keypair.secret.encode()
        + keypair.record.commitment.encode()
        + keypair.cached_term.encode()
    )


def _id_file(data: bytes, magic: bytes, tail: int) -> tuple[bytes, int]:
    """Check a file magic | group id | id_len (1B) | id | ``tail`` bytes.

    Returns (id, offset of the tail).  The one header rule applies, with
    id_len 0 raising InvalidIdentity before the length is checked.
    """
    head = len(magic) + 2

    def total_len(data: bytes) -> int:
        if data[head - 1] == 0:
            raise InvalidIdentity("identity length must be at least 1")
        return head + data[head - 1] + tail

    _check_header(data, magic, head, total_len)
    end = head + data[head - 1]
    return data[head:end], end


def deserialize_drone_keypair(data: bytes) -> SelfCertKeypair:
    drone_id, off = _id_file(data, MAGIC_DRONE, 96)
    secret = decode_scalar(data[off : off + 32])
    commitment = decode_element(data[off + 32 : off + 64])
    cached_term = decode_element(data[off + 64 : off + 96])
    return SelfCertKeypair(
        record=IdentityRecord(drone_id=drone_id, commitment=commitment),
        secret=secret,
        cached_term=cached_term,
    )


def parse_record(data: bytes) -> tuple[IdentityRecord, int]:
    """Parse an identity record prefix; returns (record, bytes consumed)."""
    if len(data) < 1:
        raise TruncatedFile("empty identity record")
    id_len = data[0]
    if id_len == 0:
        raise InvalidIdentity("identity length must be at least 1")
    if len(data) < 1 + id_len + 32:
        raise TruncatedFile("identity record truncated")
    record = IdentityRecord(
        drone_id=data[1 : 1 + id_len],
        commitment=decode_element(data[1 + id_len : 1 + id_len + 32]),
    )
    return record, 1 + id_len + 32


def serialize_record(record: IdentityRecord) -> bytes:
    return record.wire()


def deserialize_record(data: bytes) -> IdentityRecord:
    record, off = parse_record(data)
    if off != len(data):
        raise TruncatedFile(f"trailing bytes after identity record ({len(data) - off})")
    return record
