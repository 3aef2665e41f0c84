"""Subset-sum precomputation that trades table storage for online speed.

The offline phase fixes k random (scalar, point) pairs with each point
being scalar * G.  The online phase sums a secret random v-subset of the
pairs, producing a fresh (r, R = r*G) with only v-1 point additions and
no scalar multiplication.  The designated variant additionally stores
each scalar multiplied by one fixed receiver point, so hybrid encryption
can also obtain S = r * receiver_point by pure addition.

Security rests on the hardness of recovering the hidden subset from the
outputs, so subset indices are sampled fresh per call from the caller's
randomness source and are never logged or serialized.

Table file layout (all integers little-endian)::

    magic "IODCBPV1" | group_id (1B) | kind (1B: 0x00 plain, 0x01 designated)
    | k (4B) | v (4B)
    | [designated only: designated_point (32B) | owner_binding (32B)]
    | k entries of scalar (32B) | R_i (32B) [| S_i (32B)]
    | sha256 of all preceding bytes (32B)

Deserialization checks the trailing hash before anything else, so any
bit-level corruption surfaces as :class:`IntegrityMismatch`.  It then
recomputes every stored point from its scalar (r_i*G, and r_i*X for a
designated table) through the batched fixed-base engine and compares the
canonical encodings byte for byte, so a loaded table is already verified:
an entry that is well formed but wrong raises :class:`TableIntegrity`, and
bytes that are malformed, non-canonical or carry a torsion component
raise :class:`MalformedElement`.  This costs k scalar multiplications for
a plain table and 2k for a designated one, each at most 64 additions on a
comb of G (or X) built once per load; no stored point is decompressed
unless it fails to match.  :func:`verify_table` runs the same
recomputation for tables held in memory.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .errors import (
    BadMagic,
    IntegrityMismatch,
    InvalidDesignatedPoint,
    TableIntegrity,
    TruncatedFile,
    UnsupportedParams,
    UnsupportedVersion,
)
from .group import (
    G,
    GROUP_ID,
    GroupElement,
    OpCounter,
    Scalar,
    addends,
    batch_scalar_mult,
    decode_element,
    decode_scalar,
    encode_batch,
    random_scalar,
    subset_sum,
)

MAGIC = b"IODCBPV1"
KIND_STANDARD = 0x00
KIND_DESIGNATED = 0x01

# (v, k) pairs vetted for ~128-bit subset-space security.
SUPPORTED_PARAMS = ((28, 256), (18, 1024))


@dataclass(frozen=True)
class BpvParams:
    """Precomputation sizing: k stored pairs, v of them summed per output.

    Only the vetted (v, k) pairs are accepted unless ``allow_unsafe`` is
    set; toy sizes are useful in tests but give no meaningful security.
    """

    v: int
    k: int
    allow_unsafe: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.allow_unsafe:
            if not (1 <= self.v <= self.k):
                raise UnsupportedParams(f"need 1 <= v <= k, got v={self.v}, k={self.k}")
        elif (self.v, self.k) not in SUPPORTED_PARAMS:
            raise UnsupportedParams(
                f"(v={self.v}, k={self.k}) not in the supported set "
                f"{SUPPORTED_PARAMS}; pass allow_unsafe=True to override"
            )


@dataclass(frozen=True)
class SubsetSelection:
    """A secret choice of v distinct table indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("subset indices must be distinct")


@dataclass
class PrecompTable:
    """k pairs (r_i, R_i) with R_i = r_i * G.

    The points are also held in the stored form of
    :func:`~iodcrypt.group.subset_sum`, taken once when the table is
    made, so the entries are not to be changed after that.
    """

    params: BpvParams
    entries: list[tuple[Scalar, GroupElement]]
    stored: list = field(init=False, repr=False)

    def __post_init__(self):
        self.stored = addends([entry[1] for entry in self.entries])

    @property
    def entry_bytes(self) -> int:
        return self.params.k * 64

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrecompTable)
            and self.params == other.params
            and self.entries == other.entries
        )


@dataclass
class DesignatedTable:
    """k triples (r_i, R_i, S_i) with R_i = r_i * G and S_i = r_i * designated_point.

    ``owner_binding`` is the 32-byte hash of the receiver's identity
    record, so a loaded table can be matched to the receiver it was
    built for.
    """

    params: BpvParams
    designated_point: GroupElement
    owner_binding: bytes
    entries: list[tuple[Scalar, GroupElement, GroupElement]]
    stored: list = field(init=False, repr=False)
    stored_designated: list = field(init=False, repr=False)

    def __post_init__(self):
        self.stored = addends([entry[1] for entry in self.entries])
        self.stored_designated = addends([entry[2] for entry in self.entries])

    @property
    def entry_bytes(self) -> int:
        return self.params.k * 96

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DesignatedTable)
            and self.params == other.params
            and self.designated_point == other.designated_point
            and self.owner_binding == other.owner_binding
            and self.entries == other.entries
        )


def _recompute(scalars, designated_point, ctr):
    """Table columns from the scalars: the scalars, r_i*G, then r_i*X if designated."""
    columns = [scalars, batch_scalar_mult(G, scalars, ctr)]
    if designated_point is not None:
        columns.append(batch_scalar_mult(designated_point, scalars, ctr))
    return columns


def _mismatch(idx: int, column: int) -> TableIntegrity:
    kind = "generator" if column == 1 else "designated"
    return TableIntegrity(f"entry {idx}: {kind} point does not match its scalar")


def sample_subset(params: BpvParams, rng) -> SubsetSelection:
    """Uniform random v-subset of [0, k-1], by rejection of repeats."""
    chosen: set[int] = set()
    while len(chosen) < params.v:
        chosen.add(rng.randrange(params.k))
    return SubsetSelection(tuple(chosen))


def bpv_offline(params: BpvParams, rng, ctr: OpCounter | None = None) -> PrecompTable:
    """Build a fresh table of k (scalar, scalar * G) pairs: k scalar mults."""
    scalars = [random_scalar(rng) for _ in range(params.k)]
    return PrecompTable(params=params, entries=list(zip(*_recompute(scalars, None, ctr))))


def bpv_online(table: PrecompTable, rng, ctr: OpCounter | None = None) -> tuple[Scalar, GroupElement]:
    """Fresh (r, R = r*G) from a secret v-subset sum: v-1 adds, no mults."""
    indices = sample_subset(table.params, rng).indices
    r = Scalar(sum(table.entries[i][0].v for i in indices))
    return r, subset_sum(table.stored, indices, ctr)


def dbpv_offline(
    params: BpvParams,
    designated_point: GroupElement,
    owner_binding: bytes,
    rng,
    ctr: OpCounter | None = None,
) -> DesignatedTable:
    """Build a receiver-bound table of k triples: 2k scalar mults."""
    if designated_point.is_identity():
        raise InvalidDesignatedPoint("designated point must not be the identity")
    scalars = [random_scalar(rng) for _ in range(params.k)]
    return DesignatedTable(
        params=params,
        designated_point=designated_point,
        owner_binding=bytes(owner_binding),
        entries=list(zip(*_recompute(scalars, designated_point, ctr))),
    )


def dbpv_online(
    table: DesignatedTable, rng, ctr: OpCounter | None = None
) -> tuple[Scalar, GroupElement, GroupElement]:
    """Fresh (r, r*G, r*designated_point) by subset sums: 2(v-1) adds, no mults."""
    indices = sample_subset(table.params, rng).indices
    r = Scalar(sum(table.entries[i][0].v for i in indices))
    return (
        r,
        subset_sum(table.stored, indices, ctr),
        subset_sum(table.stored_designated, indices, ctr),
    )


def verify_table(table: PrecompTable | DesignatedTable, ctr: OpCounter | None = None) -> None:
    """Recompute every entry's points from its scalar; raise TableIntegrity on drift.

    Costs k (or 2k) scalar multiplications through the batched fixed-base
    engine.  Loading a table file already runs this check, so it is for
    tables held in memory.
    """
    designated_point = table.designated_point if isinstance(table, DesignatedTable) else None
    columns = _recompute([entry[0] for entry in table.entries], designated_point, ctr)
    for idx, (entry, fresh) in enumerate(zip(table.entries, zip(*columns))):
        for column in range(1, len(fresh)):
            if entry[column] != fresh[column]:
                raise _mismatch(idx, column)


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


def serialize_table(table: PrecompTable | DesignatedTable) -> bytes:
    """Serialize to the integrity-hashed binary layout described above.

    All points of the table are encoded together with one field inversion.
    """
    designated = isinstance(table, DesignatedTable)
    head = [table.designated_point] if designated else []
    codes = iter(encode_batch(head + [point for entry in table.entries for point in entry[1:]]))
    out = bytearray(MAGIC)
    out.append(GROUP_ID)
    out.append(KIND_DESIGNATED if designated else KIND_STANDARD)
    out += table.params.k.to_bytes(4, "little")
    out += table.params.v.to_bytes(4, "little")
    if designated:
        out += next(codes)
        out += table.owner_binding
    for entry in table.entries:
        out += entry[0].encode()
        for _ in entry[1:]:
            out += next(codes)
    out += hashlib.sha256(out).digest()
    return bytes(out)


def deserialize_table(data: bytes, ctr: OpCounter | None = None) -> PrecompTable | DesignatedTable:
    """Parse table bytes and recompute every stored point from its scalar.

    The trailing hash is checked before any field, then the header, the
    length and every scalar; then r_i*G (and r_i*X for a designated
    table) is recomputed and compared byte for byte with the stored
    point, counting k (or 2k) scalar multiplications.  Raises
    TruncatedFile, IntegrityMismatch, BadMagic, UnsupportedVersion or
    MalformedScalar for a bad file, MalformedElement for a stored point
    that does not decode to a group element, and TableIntegrity for one
    that decodes but is not its scalar's product.
    """
    min_len = len(MAGIC) + 1 + 1 + 4 + 4 + 32
    if len(data) < min_len:
        raise TruncatedFile(f"table file shorter than header ({len(data)} bytes)")
    if hashlib.sha256(data[:-32]).digest() != data[-32:]:
        raise IntegrityMismatch("table integrity hash mismatch")
    if data[: len(MAGIC) - 1] != MAGIC[:-1]:
        raise BadMagic("not a precomputation table file")
    if data[len(MAGIC) - 1] != MAGIC[-1]:
        raise UnsupportedVersion(f"unknown table version byte {data[len(MAGIC) - 1]:#x}")
    off = len(MAGIC)
    group_id, kind = data[off], data[off + 1]
    if group_id != GROUP_ID:
        raise UnsupportedVersion(f"unknown group id {group_id:#x}")
    if kind not in (KIND_STANDARD, KIND_DESIGNATED):
        raise UnsupportedVersion(f"unknown table kind {kind:#x}")
    off += 2
    k = int.from_bytes(data[off : off + 4], "little")
    v = int.from_bytes(data[off + 4 : off + 8], "little")
    off += 8
    params = BpvParams(v=v, k=k, allow_unsafe=True)
    designated_point = None
    if kind == KIND_DESIGNATED:
        if len(data) < off + 64 + 32:
            raise TruncatedFile("designated header incomplete")
        designated_point = decode_element(data[off : off + 32])
        owner_binding = data[off + 32 : off + 64]
        off += 64
    entry_len = 64 if designated_point is None else 96
    expected = off + k * entry_len + 32
    if len(data) != expected:
        raise TruncatedFile(f"expected {expected} bytes for k={k}, got {len(data)}")
    starts = range(off, off + k * entry_len, entry_len)
    columns = _recompute([decode_scalar(data[s : s + 32]) for s in starts], designated_point, ctr)
    for column in range(1, len(columns)):
        for idx, (start, code) in enumerate(zip(starts, encode_batch(columns[column]))):
            stored = data[start + 32 * column : start + 32 * (column + 1)]
            if stored != code:
                decode_element(stored)  # malformed or torsion bytes raise MalformedElement
                raise _mismatch(idx, column)
    entries = list(zip(*columns))
    if designated_point is None:
        return PrecompTable(params=params, entries=entries)
    return DesignatedTable(
        params=params,
        designated_point=designated_point,
        owner_binding=owner_binding,
        entries=entries,
    )
