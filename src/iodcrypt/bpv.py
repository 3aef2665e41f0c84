"""Subset-sum precomputation that trades table storage for online speed.

One table type serves signing, the handshake and encryption.  The
offline phase fixes k random scalars r_i and their products r_i*B over a
tuple of bases: ``(G,)`` for signing and the handshake, ``(G, X)`` for
encryption to a receiver key X.  A table holds each product once, in the
form that :func:`~iodcrypt.group.subset_sum` adds.  The online phase
sums a secret random v-subset of the entries, producing a fresh r with
r*B for every base at a cost of v-1 point additions per base and no
scalar multiplication.

Security rests on the hardness of recovering the hidden subset from the
outputs, so subset indices are sampled fresh per call from the caller's
randomness source and are never logged or serialized.

Two table file formats exist (all integers little-endian).  The open
format, ``IODCBPV3``, is what :func:`serialize_table` writes without a
seal key, and stores no r_i*B::

    magic "IODCBPV3" | group_id (1B) | kind (1B: number of bases - 1)
    | k (4B) | v (4B)
    | [kind 0x01 only: X (32B) | owner_binding (32B)]
    | k scalars (32B each)
    | sha256 of all preceding bytes (32B)

Deserialization checks the trailing hash before anything else, so any
bit-level corruption surfaces as :class:`IntegrityMismatch`; then the
header by the one header rule (``IODCBPV1`` files, which also stored
every r_i*B, raise :class:`UnsupportedVersion`), X
(:class:`MalformedElement`, or :class:`InvalidDesignatedPoint` for the
identity) and each scalar.  It computes every point from its scalar
with :func:`~iodcrypt.group.scalar_mult`, one shared inversion per base:
k scalar multiplications per base, on the process-wide comb of G for
r_i*G and on X25519 for r_i*X, so a loaded open table is correct by
construction.  :func:`verify_table` recomputes the points of a table
held in memory, against the stored points that the online phase sums.

The sealed format, ``IODCBPV2``, is what it writes given a 32-byte seal
key.  The clear header is authenticated as associated data, and the
rest is sealed with ChaCha20-Poly1305 (RFC 8439) under the seal key::

    clear:  magic "IODCBPV2" | group_id (1B) | kind (1B) | k (4B) | v (4B)
            | [kind 0x01 only: owner_binding (32B)] | nonce (12B)
    sealed: [kind 0x01 only: X (64B)]
            | k entries of scalar (32B) | r_i*G (64B) [| r_i*X (64B)]
            | tag (16B)

Points are stored affine as x (32B) | y (32B), so a load needs neither a
square root nor a product: the header is checked by the one header rule,
then one AEAD open (a wrong key or any changed byte after the header
raises :class:`IntegrityMismatch`), then each scalar must be below N and
each point must have both coordinates below P and satisfy the curve
equation (:class:`MalformedElement`); the stored form is then built
from the checked x, y and x*y, and only the base X becomes a
:class:`~iodcrypt.group.GroupElement`.  A k=256 table is about 24 KiB
(40 KiB designated), against 8 242 B (8 306 B) in the open format.

Threat model of the seal.  Whoever can read an open table learns every
nonce scalar and so, from one signature, the signing key
(s = r - e*x); whoever can write one can plant scalars of their choice,
which the load accepts.  The seal stops both, and any corruption:
without the key a sealed table can be neither read nor replaced by
another that opens.  A load given the key reads no open table, so one
planted in place of a sealed table is refused.  With the seal key the
stored points are exactly the ones written, so recomputing them from
their scalars would prove nothing more, and the sealed load skips it.
The seal does not help against an attacker who can read the key itself,
which is stored next to the signing keys; :func:`verify_table` remains
as an explicit deep check.
"""

from __future__ import annotations

import hashlib
import math

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .errors import (
    IntegrityMismatch,
    InvalidDesignatedPoint,
    InvalidOwnerBinding,
    MalformedElement,
    TableIntegrity,
    TruncatedFile,
    UnsupportedParams,
    UnsupportedVersion,
)
from .group import (
    G,
    GROUP_ID,
    P,
    GroupElement,
    OpCounter,
    Scalar,
    _2D,
    _D,
    _check_header,
    _normalize,
    addends,
    decode_element,
    decode_scalar,
    random_scalar,
    record,
    scalar_mult,
    subset_sum,
)

MAGIC = b"IODCBPV3"
MAGIC_SEALED = b"IODCBPV2"
KIND_STANDARD = 0x00
KIND_DESIGNATED = 0x01
SEAL_KEY_LEN = 32

# magic, group id, kind, k, v
_HEADER_LEN = len(MAGIC) + 1 + 1 + 4 + 4
_NONCE_LEN = 12
_TAG_LEN = 16

# Vetted (v, k) pairs: 2^123.8 nonce subsets for (28, 256), 2^127.3 for (18, 1024).
SUPPORTED_PARAMS = ((28, 256), (18, 1024))

_HALF = (P + 1) // 2  # 1/2 mod P


@record(uncompared=("allow_unsafe",))
class BpvParams:
    """Precomputation sizing: k stored pairs, v of them summed per output.

    Only the vetted (v, k) pairs are accepted unless ``allow_unsafe`` is
    set; toy sizes are useful in tests but give no meaningful security.
    """

    v: int
    k: int
    allow_unsafe: bool = False

    def __post_init__(self):
        if self.allow_unsafe:
            if not (1 <= self.v <= self.k):
                raise UnsupportedParams(f"need 1 <= v <= k, got v={self.v}, k={self.k}")
        elif (self.v, self.k) not in SUPPORTED_PARAMS:
            raise UnsupportedParams(
                f"(v={self.v}, k={self.k}) not in the supported set "
                f"{SUPPORTED_PARAMS}; pass allow_unsafe=True to override"
            )


@record(frozen=False, hidden=("scalars", "stored"))
class PrecompTable:
    """k nonce scalars r_i and their products r_i * B over a tuple of bases B.

    ``bases`` is ``(G,)`` for signing and the handshake, or ``(G, X)``
    for encryption to a receiver key X; ``owner_binding`` is then the
    32-byte hash of that receiver's identity record, so a loaded table
    can be matched to the receiver it was built for, and is empty for a
    ``(G,)`` table.  Any other length raises :class:`InvalidOwnerBinding`
    when the table is made, since the file has room for exactly that.
    A base X that is the identity raises :class:`InvalidDesignatedPoint`.

    ``stored[c][i]`` is r_i * bases[c] in the form of
    :func:`~iodcrypt.group.addends`, the one form that
    :func:`~iodcrypt.group.subset_sum` adds, the sealed format writes and
    :func:`verify_table` checks; it is reduced mod P, so equal tables
    compare equal.  Anything but k scalars and one k-long column per
    base raises :class:`TableIntegrity`.  The repr leaves out the
    scalars, which are secret nonces, and the points.
    """

    params: BpvParams
    bases: tuple[GroupElement, ...]
    scalars: list[Scalar]
    stored: list[list]
    owner_binding: bytes = b""

    def __post_init__(self):
        if any(base.is_identity() for base in self.bases[1:]):
            raise InvalidDesignatedPoint("designated point must not be the identity")
        expected = 32 * (len(self.bases) - 1)
        if len(self.owner_binding) != expected:
            raise InvalidOwnerBinding(
                f"owner binding must be {expected} bytes over {len(self.bases)} "
                f"base(s), got {len(self.owner_binding)}"
            )
        k = self.params.k
        if len(self.scalars) != k or [len(c) for c in self.stored] != [k] * len(self.bases):
            raise TableIntegrity(f"table needs k={k} scalars and a column of k points per base")

    @property
    def entry_bytes(self) -> int:
        return self.params.k * 32 * (1 + len(self.bases))


def _columns(bases, scalars, ctr):
    """The stored column r_i*B of each base B: k scalar mults and one inversion per base."""
    return [addends([scalar_mult(k, base, ctr) for k in scalars]) for base in bases]


def sample_subset(params: BpvParams, rng) -> tuple[int, ...]:
    """Uniform random v-subset of [0, k-1] as distinct indices, by rejection of repeats."""
    chosen: set[int] = set()
    while len(chosen) < params.v:
        chosen.add(rng.randrange(params.k))
    return tuple(chosen)


def _build(params, bases, owner_binding, rng, ctr) -> PrecompTable:
    scalars = [random_scalar(rng) for _ in range(params.k)]
    return PrecompTable(params, bases, scalars, _columns(bases, scalars, ctr), owner_binding)


def _draw(table: PrecompTable, stored: list, rng, ctr) -> tuple:
    """(r, then the sum of each column of ``stored``) over one fresh v-subset."""
    indices = sample_subset(table.params, rng)
    r = Scalar(sum(table.scalars[i].v for i in indices))
    return (r, *(subset_sum(column, indices, ctr) for column in stored))


def bpv_offline(params: BpvParams, rng, ctr: OpCounter | None = None) -> PrecompTable:
    """Build a fresh table over (G,): k scalar mults."""
    return _build(params, (G,), b"", rng, ctr)


def bpv_online(table: PrecompTable, rng, ctr: OpCounter | None = None) -> tuple[Scalar, GroupElement]:
    """Fresh (r, R = r*G) from a secret v-subset sum: v-1 adds, no mults."""
    return _draw(table, table.stored[:1], rng, ctr)


def dbpv_offline(
    params: BpvParams,
    designated_point: GroupElement,
    owner_binding: bytes,
    rng,
    ctr: OpCounter | None = None,
) -> PrecompTable:
    """Build a receiver-bound table over (G, designated_point): 2k scalar mults."""
    return _build(params, (G, designated_point), bytes(owner_binding), rng, ctr)


def dbpv_online(
    table: PrecompTable, rng, ctr: OpCounter | None = None
) -> tuple[Scalar, GroupElement, GroupElement]:
    """Fresh (r, r*G, r*X) from a (G, X) table by subset sums: 2(v-1) adds, no mults."""
    return _draw(table, table.stored, rng, ctr)


def verify_table(table: PrecompTable, ctr: OpCounter | None = None) -> None:
    """Recompute every stored point from its scalar; raise TableIntegrity on drift.

    Checks the very points that the online phase sums, at a cost of k
    scalar multiplications (:func:`~iodcrypt.group.scalar_mult`) and one
    shared inversion per base.  An open load computes every point afresh;
    a sealed load reads the stored points, and relies on the seal instead.
    """
    fresh = _columns(table.bases, table.scalars, ctr)
    for name, stored, recomputed in zip(("generator", "designated"), table.stored, fresh):
        for idx, (point, expected) in enumerate(zip(stored, recomputed)):
            if point != expected:
                raise TableIntegrity(f"entry {idx}: {name} point does not match its scalar")


def subset_space_bits(params: BpvParams) -> float:
    """log2 of the number of distinct v-subsets of k elements.

    The binomial coefficient is computed exactly over the integers before
    taking the logarithm, so the result is accurate to floating-point
    precision (far below the 1e-6 relative tolerance this library
    promises).
    """
    return math.log2(math.comb(params.k, params.v))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _header(magic: bytes, table: PrecompTable) -> bytes:
    return (magic + bytes([GROUP_ID, len(table.bases) - 1])
            + table.params.k.to_bytes(4, "little") + table.params.v.to_bytes(4, "little"))


def _affine(column) -> list[tuple[int, int]]:
    """Affine (x, y) of each stored point (y+x, y-x, 2d*x*y): no inversion."""
    return [((yp - ym) * _HALF % P, (yp + ym) * _HALF % P) for yp, ym, _ in column]


def _xy(x: int, y: int) -> bytes:
    return x.to_bytes(32, "little") + y.to_bytes(32, "little")


def _sealed_body(table: PrecompTable) -> bytes:
    """The extra bases, then every entry, each point written as its affine x | y."""
    bases = b"".join(_xy(x, y) for x, y in _normalize([base.coords for base in table.bases[1:]]))
    columns = [[_xy(x, y) for x, y in _affine(column)] for column in table.stored]
    return bases + b"".join(r.encode() + b"".join(xys) for r, *xys in zip(table.scalars, *columns))


def _affine_point(data: bytes, at: int) -> tuple[int, int, int]:
    """(x, y, x*y) of the point stored as x | y at ``at``: below P and on the curve, nothing more.

    With t = x*y, the curve equation is y^2 - x^2 = 1 + d*t^2, so the
    check and the point's T share one reduction.
    """
    x = int.from_bytes(data[at : at + 32], "little")
    y = int.from_bytes(data[at + 32 : at + 64], "little")
    if x >= P or y >= P:
        raise MalformedElement("non-canonical affine coordinate")
    t = x * y % P
    if (y * y - x * x - 1 - _D * t * t) % P:
        raise MalformedElement("not a curve point")
    return x, y, t


def _aead(seal_key: bytes) -> ChaCha20Poly1305:
    if len(seal_key) != SEAL_KEY_LEN:
        raise IntegrityMismatch(f"seal key must be {SEAL_KEY_LEN} bytes, got {len(seal_key)}")
    return ChaCha20Poly1305(bytes(seal_key))


def serialize_table(table: PrecompTable, *, seal_key: bytes | None = None, rng=None) -> bytes:
    """Serialize to one of the two layouts described above.

    Without ``seal_key`` the open, integrity-hashed ``IODCBPV3``, with no
    r_i*B; with it the sealed ``IODCBPV2``, under a nonce drawn from
    ``rng``.  Each point's affine (x, y) comes from its stored form with
    no inversion.
    """
    if seal_key is None:
        bases = b"".join(base.encode() for base in table.bases[1:])
        out = (_header(MAGIC, table) + bases + table.owner_binding
               + b"".join(r.encode() for r in table.scalars))
        return out + hashlib.sha256(out).digest()
    nonce = rng.randrange(1 << (8 * _NONCE_LEN)).to_bytes(_NONCE_LEN, "little")
    clear = _header(MAGIC_SEALED, table) + table.owner_binding + nonce
    return clear + _aead(seal_key).encrypt(nonce, _sealed_body(table), clear)


def _fields(data: bytes) -> tuple[int, int, int]:
    """(kind, k, v) from a table header; an unknown kind raises UnsupportedVersion."""
    at = len(MAGIC) + 1
    kind = data[at]
    if kind not in (KIND_STANDARD, KIND_DESIGNATED):
        raise UnsupportedVersion(f"unknown table kind {kind:#x}")
    k, v = (int.from_bytes(data[i : i + 4], "little") for i in (at + 1, at + 5))
    return kind, k, v


def _table_len(data: bytes) -> int:
    kind, k, _ = _fields(data)
    return _HEADER_LEN + 64 * kind + 32 * k + 32


def _sealed_len(data: bytes) -> int:
    kind, k, _ = _fields(data)
    return _HEADER_LEN + 32 * kind + _NONCE_LEN + 64 * kind + k * (32 + 64 * (1 + kind)) + _TAG_LEN


def _open(data: bytes, seal_key: bytes) -> PrecompTable:
    _check_header(data, MAGIC_SEALED, _HEADER_LEN, _sealed_len)
    kind, k, v = _fields(data)
    off = _HEADER_LEN + 32 * kind
    owner_binding = data[_HEADER_LEN:off]
    nonce = data[off : off + _NONCE_LEN]
    off += _NONCE_LEN
    try:
        body = _aead(seal_key).decrypt(nonce, data[off:], data[:off])
    except InvalidTag:
        raise IntegrityMismatch("sealed table does not open under this seal key") from None
    params = BpvParams(v=v, k=k, allow_unsafe=True)
    bases = (G,)
    if kind:
        x, y, t = _affine_point(body, 0)
        bases += (GroupElement((x, y, 1, t)),)
    width = 32 + 64 * len(bases)
    starts = range(64 * kind, len(body), width)
    scalars = [decode_scalar(body[s : s + 32]) for s in starts]
    columns = ((_affine_point(body, s + c) for s in starts) for c in range(32, width, 64))
    stored = [[((y + x) % P, (y - x) % P, t * _2D % P) for x, y, t in column] for column in columns]
    return PrecompTable(params, bases, scalars, stored, owner_binding)


def deserialize_table(
    data: bytes, ctr: OpCounter | None = None, *, seal_key: bytes | None = None
) -> PrecompTable:
    """Parse table bytes; the caller's key, not the version byte, picks the format.

    Given ``seal_key``, only the sealed format is read: the header rule
    first (so open bytes raise UnsupportedVersion), then the AEAD open
    (IntegrityMismatch), then the range and curve checks of each scalar
    (MalformedScalar) and point (MalformedElement), with no group
    operation counted.  Without it, only the open format is read, and
    sealed bytes raise IntegrityMismatch.

    In the open format the trailing hash is checked before any field,
    then the header (``IODCBPV1`` bytes raise UnsupportedVersion), the
    length, X and every scalar; then r_i*B is computed for each base B,
    counting k scalar multiplications per base.  Raises TruncatedFile,
    IntegrityMismatch, BadMagic, UnsupportedVersion or MalformedScalar
    for a bad file, MalformedElement for a malformed X, and, in either
    format, InvalidDesignatedPoint for an identity X.
    """
    if seal_key is not None:
        return _open(data, seal_key)
    min_len = _HEADER_LEN + 32
    if len(data) < min_len:
        raise TruncatedFile(f"table file shorter than header ({len(data)} bytes)")
    if hashlib.sha256(data[:-32]).digest() != data[-32:]:
        sealed = data.startswith(MAGIC_SEALED)
        raise IntegrityMismatch("a sealed table needs its seal key" if sealed
                                else "table integrity hash mismatch")
    _check_header(data, MAGIC, min_len, _table_len)
    kind, k, v = _fields(data)
    off = _HEADER_LEN
    params = BpvParams(v=v, k=k, allow_unsafe=True)
    bases, owner_binding = (G,), b""
    if kind == KIND_DESIGNATED:
        bases += (decode_element(data[off : off + 32]),)
        owner_binding = data[off + 32 : off + 64]
        off += 64
    scalars = [decode_scalar(data[s : s + 32]) for s in range(off, off + 32 * k, 32)]
    return PrecompTable(params, bases, scalars, _columns(bases, scalars, ctr), owner_binding)
