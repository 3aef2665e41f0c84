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
session key is derived from the static point and u(t_a * T_b), bound to
a transcript hash of both messages.  T travels as its Montgomery u (RFC
7748 section 5), since it is only multiplied; U, which is added, does not.

File formats (magic | group id byte | payload, little-endian lengths)::

    system public key  "IODCSYSP" | group | D (32B)
    KGC master secret  "IODCKGCS" | group | d (32B) | D (32B)
    drone private key  "IODCDRNK" | group | id_len (1B) | id | x (32B)
                       | U (32B) | x*D (32B)
    identity record         id_len (1B) | id | U (32B)   (no magic; embeds
                            in handshake messages and signature files)
    handshake message       identity record | u(T) (32B)
"""

from __future__ import annotations

from collections import OrderedDict

from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .bpv import PrecompTable, bpv_online
from .errors import InvalidEphemeral, InvalidIdentity, TruncatedFile
from .group import (
    DOMAIN_KEY,
    G,
    GroupElement,
    OpCounter,
    Scalar,
    _UNBOUND,
    _check_header,
    _frame,
    decode_element,
    decode_scalar,
    decode_u,
    digest,
    hash_to_scalar,
    montgomery_u,
    mul_u,
    point_add,
    random_scalar,
    record,
    scalar_mult,
)

MAGIC_SYSTEM = b"IODCSYSP"
MAGIC_KGC = b"IODCKGCS"
MAGIC_DRONE = b"IODCDRNK"

_HANG_INFO = b"IODCRYPT-HANG-v2"
_KNOWN_PEERS = 256  # static points a keypair keeps; the least recently used goes first


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------


@record(hidden=("secret",))
class KgcKeypair:
    """KGC master secret d and system public key D = d*G."""

    secret: Scalar
    public: GroupElement


@record
class IdentityRecord:
    """Public (identity, commitment) pair acting as an implicit certificate."""

    drone_id: bytes
    commitment: GroupElement

    def __post_init__(self):
        _check_identity(self.drone_id)

    def binding(self) -> bytes:
        """32-byte hash of the wire form; names this record in other files."""
        return digest(serialize_record(self))

    def key_hash(self) -> Scalar:
        """The record's hash coefficient H(id, U) used in reconstruction."""
        return hash_to_scalar(DOMAIN_KEY, [self.drone_id, self.commitment.encode()])


@record(hidden=("secret", "cached_term"))
class SelfCertKeypair:
    """A drone's issued key material.

    ``cached_term`` stores x*D, fixed at issuance, which collapses the
    static shared-secret computation to one multiplication plus one
    addition.

    Each keypair also keeps, outside its fields and its repr, the encoded
    static point of the last 256 peers it finalized a handshake with, keyed
    by the peer record's exact bytes.
    """

    record: IdentityRecord
    secret: Scalar
    cached_term: GroupElement

    def __post_init__(self):
        object.__setattr__(self, "_known_peers", OrderedDict())


@record(hidden=("secret",))
class DroneKey:
    """What ``sign`` and ``decrypt`` read of a drone key file: the id and x.

    :func:`read_drone_key` gives one.  Signing (``SignerContext``) and
    ``decrypt`` read only a keypair's ``secret``, so either takes a
    ``DroneKey`` in place of a :class:`SelfCertKeypair`.
    """

    drone_id: bytes
    secret: Scalar


@record(hidden=("ephemeral_secret",))
class HangState:
    """Initiator-side state between the two handshake halves."""

    ephemeral_secret: Scalar
    message: bytes


@record(hidden=("key",))
class SessionKey:
    """Handshake output: 32-byte key bound to the message transcript."""

    key: bytes
    transcript_hash: bytes

    def fingerprint(self) -> str:
        """Short public hex fingerprint, safe to compare out loud."""
        return digest(self.key).hex()[:16]


def _check_identity(drone_id: bytes) -> None:
    if not isinstance(drone_id, (bytes, bytearray)):
        raise InvalidIdentity("identity must be bytes")
    if not 1 <= len(drone_id) <= 255:
        raise InvalidIdentity(f"identity length must be 1..255 bytes, got {len(drone_id)}")


# ---------------------------------------------------------------------------
# Key issuance
# ---------------------------------------------------------------------------


def kgc_setup(rng) -> KgcKeypair:
    """Create a fresh KGC master pair (one scalar multiplication)."""
    d = random_scalar(rng)
    return KgcKeypair(secret=d, public=scalar_mult(d, G))


def aq_kg(kgc: KgcKeypair, drone_id: bytes, rng) -> SelfCertKeypair:
    """Issue a self-certified keypair for ``drone_id`` (two scalar mults)."""
    _check_identity(drone_id)
    b = random_scalar(rng)
    commitment = scalar_mult(b, G)
    record = IdentityRecord(drone_id=bytes(drone_id), commitment=commitment)
    x = record.key_hash() * b + kgc.secret
    return SelfCertKeypair(record=record, secret=x, cached_term=scalar_mult(x, kgc.public))


def reconstruct_pub(record: IdentityRecord, system_public: GroupElement) -> GroupElement:
    """X = H(id, U)*U + D, the implicitly certified public key."""
    return point_add(scalar_mult(record.key_hash(), record.commitment), system_public)


def key_ver(record: IdentityRecord, secret: Scalar, system_public: GroupElement) -> bool:
    """True iff ``secret`` matches the key reconstructed from ``record``.

    False whenever the identity, commitment, system key, or private
    scalar was altered; never raises on well-formed inputs.
    """
    return scalar_mult(secret, G) == reconstruct_pub(record, system_public)


# ---------------------------------------------------------------------------
# Static shared secret
# ---------------------------------------------------------------------------


def aq_shared_static(own: SelfCertKeypair, peer: IdentityRecord) -> GroupElement:
    """Static Diffie-Hellman secret x_own * X_peer = x_own * x_peer * G.

    From the keypair's x*D term, K = (x * H(id_p, U_p)) * U_p + x*D: one
    multiplication plus one addition, with no reconstruction of X_peer.
    """
    if peer.commitment.is_identity():
        raise InvalidIdentity("peer commitment must not be the identity point")
    combined = own.secret * peer.key_hash()
    return point_add(scalar_mult(combined, peer.commitment), own.cached_term)


# ---------------------------------------------------------------------------
# Ephemeral handshake
# ---------------------------------------------------------------------------


def aq_hang_initiate(
    own: SelfCertKeypair,
    rng,
    table: PrecompTable | None = None,
    ctr: OpCounter | None = None,
) -> HangState:
    """First handshake half: build the outgoing message record | u(T).

    With ``table`` the ephemeral point comes from the subset-sum
    precomputation (additions only); otherwise it costs one scalar
    multiplication.  Both handshake halves still take a trailing ``ctr``,
    bound for the call as in :func:`~iodcrypt.sign.sign`.
    """
    with ctr or _UNBOUND:
        if table is not None:
            t, big_t = bpv_online(table, rng)
        else:
            t = random_scalar(rng)
            big_t = scalar_mult(t, G)
        message = serialize_record(own.record) + montgomery_u([big_t])[0].to_bytes(32, "little")
        return HangState(ephemeral_secret=t, message=message)


def aq_hang_finalize(
    own: SelfCertKeypair,
    state: HangState,
    peer_message: bytes,
    system_public: GroupElement | None = None,
    ctr: OpCounter | None = None,
) -> SessionKey:
    """Second handshake half: derive the session key from a peer message.

    The key mixes the static secret (implicit mutual authentication),
    the ephemeral secret u(t_a * t_b * G) (forward secrecy), and the
    hash of both messages in a fixed order (transcript binding).

    A peer record whose exact bytes ``own`` finalized before reuses that
    static point: one multiplication, u(t_a * T_b), and no addition.  Any
    other record is parsed and checked afresh; the length check and the
    check of u(T) run on every message.

    ``system_public`` is read by nothing: ``own`` carries x*D.  The slot
    stays because callers pass ``ctr`` after it by position, and goes with
    ``ctr`` (ROADMAP item 0).
    """
    with ctr or _UNBOUND:
        peers = own._known_peers
        off = 1 + peer_message[0] + 32 if peer_message else 0
        known = bytes(peer_message[:off])
        static = peers.get(known)
        if static is None:
            peer_record, off = parse_record(peer_message)
        if len(peer_message) != off + 32:
            raise InvalidEphemeral(
                f"handshake message must carry exactly one ephemeral point "
                f"(got {len(peer_message) - off} trailing bytes)"
            )
        peer_u = decode_u(peer_message[off:])
        if static is None:
            static = peers[known] = aq_shared_static(own, peer_record).encode()
            if len(peers) > _KNOWN_PEERS:
                peers.popitem(last=False)
        else:
            peers[known] = peers.pop(known, static)  # now the most recent
        ephemeral_u = mul_u(state.ephemeral_secret, peer_u)
        first, second = sorted((state.message, peer_message))
        transcript = digest(first + second)
        ikm = static + ephemeral_u.to_bytes(32, "little") + transcript
        key = HKDF(algorithm=SHA256(), length=32, salt=None, info=_HANG_INFO).derive(ikm)
        return SessionKey(key=key, transcript_hash=transcript)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_system_public(public: GroupElement) -> bytes:
    return _frame(MAGIC_SYSTEM, public.encode())


def deserialize_system_public(data: bytes) -> GroupElement:
    return decode_element(_check_header(data, MAGIC_SYSTEM, 32, 32))


def serialize_kgc_keypair(kgc: KgcKeypair) -> bytes:
    return _frame(MAGIC_KGC, kgc.secret.encode(), kgc.public.encode())


def deserialize_kgc_keypair(data: bytes) -> KgcKeypair:
    body = _check_header(data, MAGIC_KGC, 64, 64)
    return KgcKeypair(secret=decode_scalar(body[:32]), public=decode_element(body[32:]))


def serialize_drone_keypair(keypair: SelfCertKeypair) -> bytes:
    drone_id = keypair.record.drone_id
    return _frame(MAGIC_DRONE, bytes([len(drone_id)]), drone_id, keypair.secret.encode(),
                  keypair.record.commitment.encode(), keypair.cached_term.encode())


def _id_file(data: bytes, magic: bytes, tail: int) -> tuple[bytes, bytes]:
    """Check a file magic | group id | id_len (1B) | id | ``tail`` bytes.

    Returns (id, the ``tail`` bytes).  The one header rule applies, with
    id_len 0 raising InvalidIdentity before the length is checked.
    """

    def body_len(body: bytes) -> int:
        if body[0] == 0:
            raise InvalidIdentity("identity length must be at least 1")
        return 1 + body[0] + tail

    body = _check_header(data, magic, 1, body_len)
    return body[1 : 1 + body[0]], body[1 + body[0] :]


def read_drone_key(data: bytes) -> DroneKey:
    """The id and x of a drone key file, without decoding its U or x*D.

    Applies every check of :func:`deserialize_drone_keypair` that comes
    before its decode of U: the one header rule, the length, the id and
    x.  So it accepts a file whose U or x*D is malformed.
    """
    drone_id, tail = _id_file(data, MAGIC_DRONE, 96)
    return DroneKey(drone_id, decode_scalar(tail[:32]))


def deserialize_drone_keypair(data: bytes) -> SelfCertKeypair:
    key = read_drone_key(data)
    record = IdentityRecord(key.drone_id, decode_element(data[-64:-32]))
    return SelfCertKeypair(record, key.secret, decode_element(data[-32:]))


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
    """id_len (1B) | id | commitment (32B)."""
    return bytes([len(record.drone_id)]) + record.drone_id + record.commitment.encode()


def deserialize_record(data: bytes) -> IdentityRecord:
    record, off = parse_record(data)
    if off != len(data):
        raise TruncatedFile(f"trailing bytes after identity record ({len(data) - off})")
    return record
