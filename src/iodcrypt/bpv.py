"""Subset-sum precomputation that trades table storage for online speed.

One table type serves signing and encryption.  The offline phase fixes
k random scalars r_i and their products r_i*B over a tuple of bases:
``(G,)`` for signing, ``(G, X)`` for encryption to a receiver key X.  A
table holds each product once, in the form that
:func:`~iodcrypt.group.subset_sum` adds.  The online phase sums a secret
random v-subset of the entries, producing a fresh r with r*B for every
base at a cost of v-1 point additions per base and no scalar
multiplication.

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
identity, before any product) and each scalar.  It computes every point
from its scalar with :func:`~iodcrypt.group.table_columns`, counting k
scalar multiplications per base: two X25519 keys per scalar serve every
base, G from each key's own public key and X with one exchange per key,
never the comb of G, so a loaded open table is correct by construction.
:func:`verify_table` recomputes the points of a table held in memory,
against the stored points that the online phase sums.

The sealed format, ``IODCBPV2``, is what it writes given a 32-byte seal
key.  The clear header is authenticated as associated data, and the
rest is sealed with ChaCha20-Poly1305 (RFC 8439) under the seal key::

    clear:  magic "IODCBPV2" | group_id (1B) | kind (1B) | k (4B) | v (4B)
            | [kind 0x01 only: owner_binding (32B)] | nonce (12B)
    sealed: [kind 0x01 only: X (64B)]
            | k entries of scalar (32B) | r_i*G (64B) [| r_i*X (64B)]
            | tag (16B)

Points are stored affine as x (32B) | y (32B), which ``group`` writes
from the stored form and reads back into it, so a load needs neither a
square root nor a product: the header is checked by the one header rule,
then one AEAD open (a wrong key or any changed byte after the header
raises :class:`IntegrityMismatch`), then each scalar must be below N and
each point must have both coordinates below P and satisfy the curve
equation (:class:`MalformedElement`), and only the base X becomes a
:class:`~iodcrypt.group.GroupElement`.  This module does no curve
arithmetic of its own.  A k=256 table is about 24 KiB
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

import math

from cryptography.exceptions import InvalidTag

from .errors import (
    IntegrityMismatch,
    InvalidDesignatedPoint,
    InvalidOwnerBinding,
    TableIntegrity,
    TruncatedFile,
    UnsupportedParams,
    UnsupportedVersion,
)
from .group import (
    ChaCha20Poly1305,
    G,
    GroupElement,
    Scalar,
    _check_header,
    _frame,
    _read_xy,
    _write_xy,
    addends,
    decode_element,
    decode_scalar,
    digest,
    random_scalar,
    record,
    subset_sum,
    table_columns,
)

MAGIC = b"IODCBPV3"
MAGIC_SEALED = b"IODCBPV2"
KIND_STANDARD = 0x00
KIND_DESIGNATED = 0x01
SEAL_KEY_LEN = 32

_FIELDS_LEN = 9  # kind, k, v: the body's first bytes in either format
_NONCE_LEN = 12
_TAG_LEN = 16

# Vetted (v, k) pairs: 2^123.8 nonce subsets for (28, 256), 2^127.3 for (18, 1024).
SUPPORTED_PARAMS = ((28, 256), (18, 1024))


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

    ``bases`` is ``(G,)`` for signing, or ``(G, X)`` for encryption to a
    receiver key X; ``owner_binding`` is then the 32-byte hash of that
    receiver's identity record, so a loaded table can be matched to the
    receiver it was built for, and is empty for a ``(G,)`` table.  Any
    other length raises :class:`InvalidOwnerBinding` when the table is
    made, since the file has room for exactly that.
    Any other tuple of bases raises :class:`UnsupportedParams`, since
    the file's kind byte names one of these two, and a base X that is the
    identity raises :class:`InvalidDesignatedPoint`.

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
        if self.bases[:1] != (G,) or len(self.bases) > 2:
            raise UnsupportedParams("a table's bases are (G,) or (G, X)")
        if self.bases[1:] and self.bases[1].is_identity():
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


def sample_subset(params: BpvParams, rng) -> tuple[int, ...]:
    """Uniform random v-subset of [0, k-1] as distinct indices, by rejection of repeats."""
    chosen: set[int] = set()
    while len(chosen) < params.v:
        chosen.add(rng.randrange(params.k))
    return tuple(chosen)


def _build(params, bases, owner_binding, rng) -> PrecompTable:
    scalars = [random_scalar(rng) for _ in range(params.k)]
    return PrecompTable(params, bases, scalars, table_columns(bases, scalars), owner_binding)


def _draw(table: PrecompTable, rng) -> tuple:
    """(r, then the sum of each stored column of ``table``) over one fresh v-subset."""
    indices = sample_subset(table.params, rng)
    r = Scalar(sum(table.scalars[i].v for i in indices))
    return (r, *(subset_sum(column, indices) for column in table.stored))


def bpv_offline(params: BpvParams, rng) -> PrecompTable:
    """Build a fresh table over (G,): k scalar mults."""
    return _build(params, (G,), b"", rng)


def bpv_online(table: PrecompTable, rng) -> tuple[Scalar, GroupElement]:
    """Fresh (r, R = r*G) from a secret v-subset sum: v-1 adds, no mults.

    A designated table, over more bases than G, raises UnsupportedParams:
    its draws are for :func:`dbpv_online`.
    """
    if len(table.bases) != 1:
        raise UnsupportedParams("needs a standard (G,) table, not a designated one")
    return _draw(table, rng)


def dbpv_offline(
    params: BpvParams, designated_point: GroupElement, owner_binding: bytes, rng
) -> PrecompTable:
    """Build a receiver-bound table over (G, designated_point): 2k scalar mults."""
    return _build(params, (G, designated_point), bytes(owner_binding), rng)


def dbpv_online(table: PrecompTable, rng) -> tuple[Scalar, GroupElement, GroupElement]:
    """Fresh (r, r*G, r*X) from a (G, X) table by subset sums: 2(v-1) adds, no mults.

    A standard (G,) table raises UnsupportedParams: its draws are for :func:`bpv_online`.
    """
    if len(table.bases) != 2:
        raise UnsupportedParams("needs a designated (G, X) table, not a standard one")
    return _draw(table, rng)


def verify_table(table: PrecompTable) -> None:
    """Recompute every stored point from its scalar; raise TableIntegrity on drift.

    Checks the very points that the online phase sums, at a cost of k
    scalar multiplications per base, computed as an open load computes
    them (:func:`~iodcrypt.group.table_columns`: two X25519 keys per
    scalar for all the bases).  An open load computes every point afresh;
    a sealed load reads the stored points, and relies on the seal instead.
    """
    fresh = table_columns(table.bases, table.scalars)
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


def _header(magic: bytes, table: PrecompTable, *parts: bytes) -> bytes:
    """The framed kind, k and v, then ``parts``."""
    return _frame(magic, bytes([len(table.bases) - 1]), table.params.k.to_bytes(4, "little"),
                  table.params.v.to_bytes(4, "little"), *parts)


def _sealed_body(table: PrecompTable) -> bytes:
    """The extra bases, then every entry, each point as ``group`` writes it: affine x | y."""
    bases = b"".join(_write_xy(addends(table.bases[1:])))
    columns = [_write_xy(column) for column in table.stored]
    return bases + b"".join(r.encode() + b"".join(xys) for r, *xys in zip(table.scalars, *columns))


def _aead(seal_key: bytes) -> ChaCha20Poly1305:
    if len(seal_key) != SEAL_KEY_LEN:
        raise IntegrityMismatch(f"seal key must be {SEAL_KEY_LEN} bytes, got {len(seal_key)}")
    return ChaCha20Poly1305(bytes(seal_key))


def serialize_table(table: PrecompTable, *, seal_key: bytes | None = None, rng=None) -> bytes:
    """Serialize to one of the two layouts described above.

    Without ``seal_key`` the open, integrity-hashed ``IODCBPV3``, with no
    r_i*B, and ``rng`` is not read; with it the sealed ``IODCBPV2``, under
    a nonce drawn from ``rng``, which sealing requires (``TypeError``
    without it).  Each point's affine x | y comes from its stored form with
    no inversion.
    """
    if seal_key is None:
        out = _header(MAGIC, table, *(base.encode() for base in table.bases[1:]),
                      table.owner_binding, b"".join(r.encode() for r in table.scalars))
        return out + digest(out)
    if rng is None:
        raise TypeError("sealing a table needs an rng for its nonce")
    nonce = rng.randrange(1 << (8 * _NONCE_LEN)).to_bytes(_NONCE_LEN, "little")
    clear = _header(MAGIC_SEALED, table, table.owner_binding, nonce)
    return clear + _aead(seal_key).encrypt(nonce, _sealed_body(table), clear)


def _fields(body: bytes) -> tuple[int, int, int]:
    """(kind, k, v) from a table's body; an unknown kind raises UnsupportedVersion."""
    kind = body[0]
    if kind not in (KIND_STANDARD, KIND_DESIGNATED):
        raise UnsupportedVersion(f"unknown table kind {kind:#x}")
    return kind, int.from_bytes(body[1:5], "little"), int.from_bytes(body[5:9], "little")


def _table_len(body: bytes) -> int:
    kind, k, _ = _fields(body)
    return _FIELDS_LEN + 64 * kind + 32 * k + 32


def _sealed_len(body: bytes) -> int:
    kind, k, _ = _fields(body)
    return _FIELDS_LEN + 32 * kind + _NONCE_LEN + 64 * kind + k * (32 + 64 * (1 + kind)) + _TAG_LEN


def _open(data: bytes, seal_key: bytes) -> PrecompTable:
    body = _check_header(data, MAGIC_SEALED, _FIELDS_LEN, _sealed_len)
    kind, k, v = _fields(body)
    off = _FIELDS_LEN + 32 * kind
    owner_binding = body[_FIELDS_LEN:off]
    nonce = body[off : off + _NONCE_LEN]
    off += _NONCE_LEN
    try:  # the clear header, framed again as the writer framed it, is the associated data
        plain = _aead(seal_key).decrypt(nonce, body[off:], _frame(MAGIC_SEALED, body[:off]))
    except InvalidTag:
        raise IntegrityMismatch("sealed table does not open under this seal key") from None
    params = BpvParams(v=v, k=k, allow_unsafe=True)
    bases = (G,)
    if kind:
        bases += (subset_sum([_read_xy(plain, 0)], [0]),)
    width = 32 + 64 * len(bases)
    starts = range(64 * kind, len(plain), width)
    scalars = [decode_scalar(plain[s : s + 32]) for s in starts]
    stored = [[_read_xy(plain, s + c) for s in starts] for c in range(32, width, 64)]
    return PrecompTable(params, bases, scalars, stored, owner_binding)


def deserialize_table(data: bytes, *, seal_key: bytes | None = None) -> PrecompTable:
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
    if len(data) < len(_frame(MAGIC)) + _FIELDS_LEN + 32:
        raise TruncatedFile(f"table file shorter than header ({len(data)} bytes)")
    if digest(data[:-32]) != data[-32:]:
        sealed = data.startswith(MAGIC_SEALED)
        raise IntegrityMismatch("a sealed table needs its seal key" if sealed
                                else "table integrity hash mismatch")
    body = _check_header(data, MAGIC, _FIELDS_LEN + 32, _table_len)
    kind, k, v = _fields(body)
    off = _FIELDS_LEN
    params = BpvParams(v=v, k=k, allow_unsafe=True)
    bases, owner_binding = (G,), b""
    if kind == KIND_DESIGNATED:
        bases += (decode_element(body[off : off + 32]),)
        owner_binding = body[off + 32 : off + 64]
        off += 64
    scalars = [decode_scalar(body[s : s + 32]) for s in range(off, off + 32 * k, 32)]
    return PrecompTable(params, bases, scalars, table_columns(bases, scalars), owner_binding)
