"""Prime-order elliptic-curve group with instrumented operation counters.

The one concrete backend is the prime-order subgroup of Ed25519 (twisted
Edwards curve -x^2 + y^2 = 1 + d*x^2*y^2 over GF(2^255 - 19), ~128-bit
security).  Points are kept in extended coordinates (X, Y, Z, T) with
T = X*Y/Z, where the unified addition law is complete: it is correct for
doubling and for identity operands alike.

Two layers of API:

* ``GroupElement`` / ``Scalar`` support plain operators (``P + Q``,
  ``k * P``) for oracles, tests, and internal use.  These are never
  counted.
* :func:`scalar_mult`, :func:`mul_u` and :func:`point_add` are the
  counted entry points used by the protocol layers, and
  :func:`subset_sum` is the counted sum of stored points (the online
  phase of the precomputation tables); :func:`addends` turns a table's
  products, taken one :func:`scalar_mult` each, into that stored form.
  Each ticks whichever :class:`OpCounter` its caller bound with
  ``with OpCounter() as ctr:``, so no counter is passed down the call
  chain and per-operation group-op budgets can be asserted exactly.

Products run on two paths:

* **G**: a signed Lim-Lee comb (4 tables of 128 affine points), built on
  first use and kept for the life of the process; a product is 7
  doublings and 31 mixed additions.
* **any other base**: two calls of the X25519 Montgomery ladder (RFC 7748,
  in C in ``cryptography``, imported on first use) give u(k*B) and
  u((k+1)*B), or u((k-1)*B) for k = N-1; the Okeya-Sakurai formula
  recovers v.  The base keeps its Montgomery (u, v) and X25519 public key
  from its first product on, so a table column, or every verify against
  one verifier's key, maps it once.  These products assume a base in the
  prime-order subgroup, as every decoded element is; the subgroup check of
  :func:`decode_element` (one X25519 call) does not rely on them.

One routine makes every X25519 call, for products, :func:`mul_u` and the
check alike; a scalar 8j that X25519 cannot take (|j| <= N - 2^252) is
u(j*B) and three x-only doublings.

``GroupElement.__rmul__`` alone chooses between the two; every counted
product goes through it.  Points only ever multiplied travel as
Montgomery u (RFC 7748 section 5): :func:`decode_u` and :func:`mul_u` take no square root.

Elements decode from/encode to the canonical 32-byte little-endian form
(y with the sign of x in the top bit).  Decoding rejects non-canonical
bytes, off-curve points, and points outside the prime-order subgroup, so
every live ``GroupElement`` behaves as a member of a group of prime
order ``N``.  Sealed table files keep points in a third encoding, the
64-byte affine x | y: :func:`_write_xy` writes it from the stored form of
:func:`addends` with no inversion, and :func:`_read_xy` checks it and
reads it back into that form with no square root.

Importing the module takes no exponentiation, inversion or square root:
d, 2d, 1/d, sqrt(-1), G and 1/8 mod N are written out.  Every SHA-256 and
SHA-512 of the package is :func:`digest`, on the OpenSSL inside
``cryptography``, so no process loads ``hashlib``'s as a second one.
X25519, and with it ``cryptography``'s OpenSSL backend module, loads on
the first decode or the first product of a base other than G, so a
process that signs from a sealed table loads neither.
"""

from __future__ import annotations

from _contextvars import ContextVar  # what ``contextvars`` re-exports, at half its import cost
from collections.abc import Callable
from contextlib import nullcontext
from functools import lru_cache
from operator import attrgetter

from cryptography.hazmat.primitives.hashes import SHA256, SHA512, Hash

from .errors import BadMagic, MalformedElement, MalformedScalar, TruncatedFile, UnsupportedVersion

# Field prime, curve constants, and prime subgroup order for Ed25519: d = -121665/121666,
# 2d, 1/d and sqrt(-1) = 2^((P-1)/4), written out (RFC 8032 section 5.1); the tests
# derive each.
P = 2**255 - 19
_D = 37095705934669439343138083508754565189542113879843219016388785533085940283555
_2D = 16295367250680780974490674513165176452449235426866156013048779062215315747161
_INV_D = 29203323570479832313932222820853031755424015489030106335172286495629888845891
N = 2**252 + 27742317777372353535851937790883648493
_SQRT_M1 = 19681161376707505956807079304988542015446066515923890162744021073123829784752

ELEMENT_LEN = 32
SCALAR_LEN = 32
GROUP_ID = 0x01


def _frame(magic: bytes, *parts: bytes) -> bytes:
    """``magic``, the group id, then ``parts``: the one writer of every file header.

    Each magic-prefixed format is written here and read back by
    :func:`_check_header`, so no other module knows the header's layout.
    """
    return b"".join((magic, bytes([GROUP_ID]), *parts))


def _check_header(
    data: bytes, magic: bytes, min_body: int, body_len: int | Callable[[bytes], int]
) -> bytes:
    """The one reader of every file header: check it and return the body after it.

    The body is what :func:`_frame` wrote after ``magic`` and the group
    id.  Every file format applies the same checks in this order: a body
    shorter than ``min_body`` bytes raises TruncatedFile; bytes 0-6 other
    than the family of ``magic`` raise BadMagic; a version byte (byte 7)
    other than ``magic``'s or an unknown group id (byte 8) raises
    UnsupportedVersion; and a body length other than ``body_len`` raises
    TruncatedFile.  ``body_len`` is the exact length, or a function that
    computes it from the body once the checks before it have passed
    (reading only its first ``min_body`` bytes).
    """
    head = len(magic) + 1
    if len(data) < head + min_body:
        raise TruncatedFile(f"file shorter than its header ({len(data)} bytes)")
    family = len(magic) - 1
    if data[:family] != magic[:family]:
        raise BadMagic(f"expected magic {magic!r}")
    if data[family] != magic[family]:
        raise UnsupportedVersion(f"unknown version byte {data[family]:#x} for {magic!r}")
    if data[family + 1] != GROUP_ID:
        raise UnsupportedVersion(f"unknown group id {data[family + 1]:#x}")
    body = data[head:]
    expected = body_len(body) if callable(body_len) else body_len
    if len(body) != expected:
        raise TruncatedFile(f"expected {head + expected} bytes, got {len(data)}")
    return body


def record(cls=None, *, frozen=True, hidden=(), uncompared=()):
    """Give a value class what ``dataclass`` gave it, without importing ``dataclasses``.

    The fields are the annotated names, in order, with class attributes
    as defaults.  Adds ``__init__`` (by position or keyword, then any
    ``__post_init__``), ``__repr__`` without the ``hidden`` fields,
    ``__eq__`` within one class over the fields not ``uncompared`` and,
    if frozen, ``__hash__`` over those and a refusal to set or delete
    attributes; a mutable record is unhashable.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, hidden=hidden, uncompared=uncompared)
    names = list(cls.__annotations__)
    params = "".join(f", {n}=_cls.{n}" if n in cls.__dict__ else f", {n}" for n in names)
    body = "".join(f"\n _set(self, {n!r}, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n self.__post_init__()"
    scope = {"_cls": cls, "_set": object.__setattr__}
    exec(f"def __init__(self{params}):{body}", scope)
    key = attrgetter(*(n for n in names if n not in uncompared))
    cls.__init__ = scope["__init__"]
    cls.__repr__ = lambda self: "%s(%s)" % (type(self).__name__, ", ".join(
        f"{n}={getattr(self, n)!r}" for n in names if n not in hidden))
    cls.__eq__ = lambda self, other: (
        key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented)
    cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    if frozen:
        def refuse(self, name, value=None):
            raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")
        cls.__setattr__ = cls.__delattr__ = refuse
    return cls


# Domain-separation tags for hash_to_scalar.
DOMAIN_KEY = 0x01  # identity-record hashing during key issuance / reconstruction
DOMAIN_SIG = 0x02  # signature challenge hashing


# ---------------------------------------------------------------------------
# Raw extended-coordinate arithmetic (uncounted; tuples for speed)
# ---------------------------------------------------------------------------
#
# Two formula bodies: the unified law _add_raw and its mixed form _madd_raw
# for affine operands.

_IDENT_COORDS = (0, 1, 1, 0)


def _add_raw(p1, p2):
    # The unified law, complete on Ed25519 (d is a non-square), so it also
    # doubles and adds the identity.
    x1, y1, z1, t1 = p1
    x2, y2, z2, t2 = p2
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = t1 * t2 % P * _2D % P
    d = 2 * z1 * z2 % P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _normalize(coords_list):
    # Affine (x, y) of every point with a single field inversion
    # (Montgomery's simultaneous-inversion trick).  Z is never 0 on
    # this curve, so the running product is invertible.
    prefix = []
    acc = 1
    for coords in coords_list:
        prefix.append(acc)
        acc = acc * coords[2] % P
    inv = pow(acc, -1, P)
    out = [None] * len(coords_list)
    for i in range(len(coords_list) - 1, -1, -1):
        x, y, z, _ = coords_list[i]
        zi = inv * prefix[i] % P
        inv = inv * z % P
        out[i] = (x * zi % P, y * zi % P)
    return out


def _cached(affine):
    # (y+x, y-x, 2d*x*y) of each affine point: the form in which
    # _madd_raw takes its second operand.
    return [((y + x) % P, (y - x) % P, x * y % P * _2D % P) for x, y in affine]


def _madd_raw(p1, cached):
    # Mixed addition: the unified law of _add_raw with an affine second
    # operand (Z2 = 1) given in the form of _cached, one product fewer.
    x1, y1, z1, t1 = p1
    yp, ym, t2d = cached
    a = (y1 - x1) * ym % P
    b = (y1 + x1) * yp % P
    c = t1 * t2d % P
    d = 2 * z1
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


# The comb of G (Lim-Lee, CRYPTO 1994, with the signed recoding of Hedabou, Pinel
# and Beneteau, 2005).  An odd k < 2^255 is the sum of s_b * 2^b over b < 256 with
# every s_b = +-1: s_b = 2c_b - 1 for c = (k + 2^256 - 1) / 2 = (k >> 1) + 2^255.
# Column i = 8t + r (t < 4, r < 8) takes the 8 teeth at bits i + 32j, so its sum is
# 2^r times 2^(8t) * sum(s_(i+32j) * 2^(32j)).  Table t keeps the 128 of these with
# top tooth +1, 2^(8t) * (2^224 + sum(+-2^(32j) for j < 7)) * G, entry p with +
# where bit j of p is set; a column with top tooth -1 is the negation of the entry
# for its other teeth negated.
_G_COMB = None


def _g_comb():
    # Built on first use and kept for the life of the process: 2^b * G for b <= 248
    # by doubling; then each table's entry 0 (its 7 low teeth -1) with 7 additions
    # and the other 127 by a Gray-code walk, one addition of +-2^(8t + 32j + 1) * G
    # each to flip tooth j; one batch normalisation for all 512.  About 12 ms on a
    # 2-core Python 3.11 host, for 512 entries in the form of _cached, about 125 KiB.
    global _G_COMB
    if _G_COMB is None:
        powers = [G.coords]
        for _ in range(248):
            powers.append(_add_raw(powers[-1], powers[-1]))
        points = []
        for shift in range(0, 32, 8):
            cur = powers[shift + 224]
            for x, y, z, w in powers[shift : shift + 224 : 32]:
                cur = _add_raw(cur, (-x, y, z, -w))
            walk = [cur] * 128
            for n in range(1, 128):
                j, gray = (n & -n).bit_length() - 1, n ^ n >> 1
                x, y, z, w = powers[shift + 32 * j + 1]
                cur = _add_raw(cur, (x, y, z, w) if gray >> j & 1 else (-x, y, z, -w))
                walk[gray] = cur
            points += walk
        entries = _cached(_normalize(points))
        _G_COMB = [entries[i : i + 128] for i in range(0, 512, 128)]
    return _G_COMB


# _SPREAD[c] puts bit r of the byte c at bit 32(7 - r).  Byte q of the 32-bit chunk
# j of c holds tooth j of columns 8q to 8q + 7; spread and shifted by j + 8q, it puts
# that of column 8q + r at bit j of byte 4(7 - r) + q.  So the column bytes come in
# the order of _comb_mul's rounds, each round's 4 in the order of the tables.
_SPREAD = [0]
for _shift in range(224, -1, -32):
    _SPREAD += [spread | 1 << _shift for spread in _SPREAD]
_SHIFTS = [j + 8 * q for j in range(8) for q in range(4)]


def _comb_mul(k):
    # k * G for 0 <= k < N, from k or, if k is even, the odd k + N < 2^254: 8 rounds,
    # for r = 7 down to 0, each adding the entries of columns r, 8 + r, 16 + r and
    # 24 + r, with a doubling between rounds: 7 doublings and 31 mixed additions.
    # In the form of _cached, -(x, y) is (y - x, y + x, -2dxy).
    c = ((k if k & 1 else k + N) >> 1 | 1 << 255).to_bytes(32, "little")
    cols = sum(_SPREAD[b] << s for b, s in zip(c, _SHIFTS)).to_bytes(32, "little")
    entries = []
    for table, b in zip(_g_comb() * 8, cols):
        if b >> 7:
            entries.append(table[b & 127])
        else:
            yp, ym, t2d = table[b ^ 127]
            entries.append((ym, yp, -t2d))
    acc = _sum_cached(entries[:4])
    for i in range(4, 32, 4):
        acc = _add_raw(acc, acc)
        for entry in entries[i : i + 4]:
            acc = _madd_raw(acc, entry)
    return acc


def _sum_cached(entries):
    # The sum of points in the form of _cached: the first converted to
    # (2x, 2y, 2, 2xy) with one product, then one mixed addition per entry.
    if not entries:
        return _IDENT_COORDS
    yp, ym, t2d = entries[0]
    acc = ((yp - ym) % P, (yp + ym) % P, 2, t2d * _INV_D % P)
    for i in range(1, len(entries)):
        acc = _madd_raw(acc, entries[i])
    return acc


# Other bases: X25519 (RFC 7748) on the Montgomery form v^2 = u^3 + A*u^2 + u,
# (u, v) = ((1+y)/(1-y), sqrt(-486664)*u/x).  It returns u alone and takes
# only scalars of the clamp form 2^254 + 8m, m < 2^251.
_A = 486662
# The root of -486664 that maps G to the v of RFC 7748 section 4.1.
_SQRT_M486664 = 51042569399160536130206135233146329284152202253034631822681833788666877215207
# 1/8 mod N, written out; the tests derive it.
_INV_8 = 2713877091499598330239944961141122840321418634767465352250731601857045344121


def _clamp_form(k):
    # The scalar 8u = +-k (mod N) with u in [2^251, 2^252), which X25519's
    # clamp leaves unchanged; None for exactly the k = 8j with |j| <= N - 2^252.
    u = k * _INV_8 % N
    for u in (u, N - u):
        if u >> 251 == 1:
            return u << 3
    return None


# The public key of the last u, which decode_u's check builds and then mul_u, or an
# element's first product, reuses.
@lru_cache(maxsize=1)
def _x25519_base(u):
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey

    return X25519PublicKey.from_public_bytes(u.to_bytes(ELEMENT_LEN, "little"))


def _private_key(s):
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

    return X25519PrivateKey.from_private_bytes(s.to_bytes(SCALAR_LEN, "little"))


# Kept: the check key, built on first use, and mul_u's last two (_mul's scalars change each
# call), so a handshake's fresh ephemeral does not evict a station's decrypt key.
_check_key = lru_cache(maxsize=1)(_private_key)
_last_key = lru_cache(maxsize=2)(_private_key)


def _ladder_u(k, base, key=_private_key):
    # u(k * B) for 0 <= k < N from B's X25519 public key (0 for k = 0): one exchange under
    # key(s) for the clamp form s of k.  A k with no clamp form is 8j: it takes u(j * B) by
    # the same rule, then three x-only doublings on (X : Z).  ValueError when the exchange's
    # output is all-zero (s * B is the identity: s = 0 mod 8 clears order 2).
    if k == 0:
        return 0
    doublings = 0
    s = _clamp_form(k)
    while s is None:
        k, doublings = k * _INV_8 % N, doublings + 3
        s = _clamp_form(k)
    x, z = int.from_bytes(key(s).exchange(base), "little"), 1
    for _ in range(doublings):
        xx, zz, xz = x * x % P, z * z % P, x * z % P
        x, z = (xx - zz) ** 2 % P, 4 * xz * (xx + _A * xz + zz) % P
    return x if z == 1 else x * pow(z, -1, P) % P


def _montgomery(coords):
    # (u, v) of a point with x != 0 (not the identity or (0, -1)), with one inversion.
    x, y, z, _ = coords
    inv = pow((z - y) * x % P, -1, P)
    return (z + y) * x % P * inv % P, _SQRT_M486664 * (z + y) % P * z % P * inv % P


def _mul(base, k):
    # k * B for 0 < k < N and B != identity in the prime-order subgroup, given B's
    # (u, v, X25519 public key), from u of Q = k*B and of its neighbour Q + step*B:
    # (k+1)*B, or (k-1)*B for k = N - 1, whose (k+1)*B is the identity (u = 0), with
    # which the formula would give +B, not -B.
    step = 1 if k < N - 1 else -1
    u, v, public = base
    uq, un = _ladder_u(k, public), _ladder_u(k + step, public)
    # Okeya-Sakurai (CHES 2001): v(Q) = num / (2 * step * v); then back to
    # Edwards, x = sqrt(-486664)*uq/v(Q) and y = (uq - 1)/(uq + 1).
    num = ((u * uq + 1) * (u + uq + 2 * _A) - 2 * _A - (u - uq) ** 2 % P * un) % P
    w = _SQRT_M486664 * uq % P * 2 * step * v % P
    return (w * (uq + 1) % P, (uq - 1) * num % P, num * (uq + 1) % P, w * (uq - 1) % P)


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


class Scalar:
    """Residue modulo the group order ``N``, always kept canonical."""

    __slots__ = ("v",)

    def __init__(self, value: int):
        self.v = value % N

    @property
    def value(self) -> int:
        """The canonical integer representative in [0, N)."""
        return self.v

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.v + other.v)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.v - other.v)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Scalar(self.v * other.v)
        return NotImplemented

    def __neg__(self) -> "Scalar":
        return Scalar(-self.v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.v == other.v

    def __hash__(self) -> int:
        return hash(("Scalar", self.v))

    def __repr__(self) -> str:
        return f"Scalar({hex(self.v)})"

    def is_zero(self) -> bool:
        return self.v == 0

    def encode(self) -> bytes:
        """Canonical 32-byte little-endian encoding."""
        return self.v.to_bytes(SCALAR_LEN, "little")


def decode_scalar(data: bytes) -> Scalar:
    """Decode a canonical 32-byte little-endian scalar; reject values >= N."""
    if len(data) != SCALAR_LEN:
        raise MalformedScalar(f"scalar must be {SCALAR_LEN} bytes, got {len(data)}")
    v = int.from_bytes(data, "little")
    if v >= N:
        raise MalformedScalar("scalar not reduced modulo the group order")
    return Scalar(v)


# ---------------------------------------------------------------------------
# Group elements
# ---------------------------------------------------------------------------


class GroupElement:
    """Point in the prime-order subgroup, in extended twisted Edwards coordinates.

    Immutable in value.  ``k * G`` runs on the process-wide comb of G;
    ``k * P`` for any other point on two X25519 calls, which assume that P
    is in the prime-order subgroup, as every decoded element is.  P keeps
    its (u, v, X25519 public key) from its first product on.
    """

    __slots__ = ("coords", "_ladder")

    def __init__(self, coords):
        self.coords = coords
        self._ladder = None

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(_add_raw(self.coords, other.coords))

    def __neg__(self) -> "GroupElement":
        x, y, z, t = self.coords
        return GroupElement(((-x) % P, y, z, (-t) % P))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __rmul__(self, k) -> "GroupElement":
        if isinstance(k, Scalar):
            k = k.v
        if not isinstance(k, int):
            return NotImplemented
        k %= N
        if k == 0 or self.is_identity():
            return IDENTITY
        if self._ladder is None:
            if self.coords == G.coords:
                return GroupElement(_comb_mul(k))
            u, v = _montgomery(self.coords)
            self._ladder = (u, v, _x25519_base(u))
        return GroupElement(_mul(self._ladder, k))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        x1, y1, z1, _ = self.coords
        x2, y2, z2, _ = other.coords
        return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0

    def __hash__(self) -> int:
        return hash(("GroupElement", self.encode()))

    def __repr__(self) -> str:
        return f"GroupElement({self.encode().hex()})"

    def is_identity(self) -> bool:
        x, y, z, _ = self.coords
        return x % P == 0 and (y - z) % P == 0

    def encode(self) -> bytes:
        """Canonical 32-byte encoding: little-endian y, sign of x in bit 255."""
        x, y, z, _ = self.coords
        zi = pow(z, -1, P)
        x, y = x * zi % P, y * zi % P
        return (y | ((x & 1) << 255)).to_bytes(ELEMENT_LEN, "little")


def _lift(data: bytes) -> GroupElement:
    """The curve point that 32 bytes encode, before any subgroup check.

    Rejects wrong lengths, non-canonical y (>= field prime), y with no
    matching x on the curve, and sign bit set on x = 0.  x is a square
    root of (y^2 - 1) / (d*y^2 + 1): the candidate u*v^3 * (u*v^7)^((P-5)/8)
    is right up to a factor sqrt(-1), which is applied when it squares to
    -u/v.
    """
    if len(data) != ELEMENT_LEN:
        raise MalformedElement(f"element must be {ELEMENT_LEN} bytes, got {len(data)}")
    val = int.from_bytes(data, "little")
    sign = val >> 255
    y = val & ((1 << 255) - 1)
    if y >= P:
        raise MalformedElement("non-canonical y coordinate")
    y2 = y * y % P
    u = (y2 - 1) % P
    v = (_D * y2 + 1) % P
    x = u * pow(v, 3, P) % P * pow(u * pow(v, 7, P) % P, (P - 5) // 8, P) % P
    vx2 = v * x * x % P
    if vx2 != u:
        if vx2 != (P - u) % P:
            raise MalformedElement("not a curve point")
        x = x * _SQRT_M1 % P
    if x == 0 and sign:
        raise MalformedElement("non-canonical sign bit")
    if x & 1 != sign:
        x = P - x
    return GroupElement((x, y, 1, x * y % P))


def decode_element(data: bytes) -> GroupElement:
    """Decode 32 bytes into a group element.

    Rejects what :func:`_lift` rejects, and points outside the prime-order
    subgroup: for R = Q + T (Q in the subgroup, 8T = 0) and the clamp form c
    of 1 (c = +-1 mod N, c = 0 mod 8), R passes iff u(c * R), which is
    u(+-Q), equals u(R), that is iff T is the identity.
    """
    point = _lift(data)
    y = point.coords[1]
    if y != 1:  # the identity, the one point with no u, needs no check
        decode_u(((1 + y) * pow(1 - y, -1, P) % P).to_bytes(ELEMENT_LEN, "little"))
    return point


def montgomery_u(points) -> list[int]:
    """u = (1 + y)/(1 - y) of each element with one shared inversion; 0 (X25519's) for the identity."""
    fractions = [(z + y, 0, z - y, 0) if (z - y) % P else (0, 0, 1, 0)  # x/z to _normalize
                 for _, y, z, _ in (point.coords for point in points)]
    return [u for u, _ in _normalize(fractions)]


def decode_u(data: bytes) -> int:
    """Decode the 32-byte Montgomery u of a point in the prime-order subgroup.

    Rejects a wrong length, u >= P (bit 255 too) and u = 0 before any call; then the check
    of :func:`decode_element`, which also moves every point of the twist (order 4 * N',
    N' prime), as c = 0 (mod 4) and c != +-1 (mod N').
    """
    u = int.from_bytes(data, "little")
    if len(data) != ELEMENT_LEN or not 0 < u < P:
        raise MalformedElement("not a canonical 32-byte u other than 0")
    try:
        if _ladder_u(1, _x25519_base(u), _check_key) == u:
            return u
    except ValueError:  # c * R is the identity: R is a torsion point
        pass
    raise MalformedElement("point outside the prime-order subgroup")


_HALF = (P + 1) // 2  # 1/2 mod P


def _affine(stored) -> list[tuple[int, int]]:
    """Affine (x, y) of each point in the form of :func:`addends`, with no inversion."""
    return [((yp - ym) * _HALF % P, (yp + ym) * _HALF % P) for yp, ym, _ in stored]


def _write_xy(stored) -> list[bytes]:
    """The 64-byte x | y of each point in the form of :func:`addends`."""
    return [x.to_bytes(32, "little") + y.to_bytes(32, "little") for x, y in _affine(stored)]


def _read_xy(data: bytes, at: int) -> tuple[int, int, int]:
    """The point written as x | y at ``at``, in the form of :func:`addends`.

    Checks both coordinates below P and the curve equation, nothing more
    (MalformedElement).  With t = x*y the equation is
    y^2 - x^2 = 1 + d*t^2, so the check and 2d*x*y share one reduction.
    """
    x = int.from_bytes(data[at : at + 32], "little")
    y = int.from_bytes(data[at + 32 : at + 64], "little")
    if x >= P or y >= P:
        raise MalformedElement("non-canonical affine coordinate")
    t = x * y % P
    if (y * y - x * x - 1 - _D * t * t) % P:
        raise MalformedElement("not a curve point")
    return (y + x) % P, (y - x) % P, t * _2D % P


IDENTITY = GroupElement(_IDENT_COORDS)
# The standard base point (y = 4/5, x even; RFC 8032 section 5.1), written out; the
# tests lift it from y.
_GX = 15112221349535400772501151409588531511454012693041857206046113283949847762202
_GY = 46316835694926478169428394003475163141307993866256225615783033603165251855960
G = GroupElement((_GX, _GY, 1, _GX * _GY % P))


# ---------------------------------------------------------------------------
# Instrumented operations
# ---------------------------------------------------------------------------


# The counter of the innermost enclosing ``with OpCounter()``, per thread and per task.
_BOUND: ContextVar[OpCounter | None] = ContextVar("iodcrypt_op_counter", default=None)


@record(frozen=False)
class OpCounter:
    """Counts curve operations within its scope.

    ``with OpCounter() as ctr:`` binds ``ctr`` for the block, and every
    counted entry point called within it, at any depth, ticks ``ctr``.
    The binding is a :class:`contextvars.ContextVar`, so it holds per
    thread and per asyncio task: concurrent measurements, each in its own
    scope, count apart.  Scopes nest; the innermost takes the counts, and
    the enclosing one does not see them.  Outside every scope nothing is
    counted.
    """

    scalar_mults: int = 0
    point_adds: int = 0

    def __post_init__(self):
        self._tokens = []

    def __enter__(self) -> "OpCounter":
        self._tokens.append(_BOUND.set(self))
        return self

    def __exit__(self, *exc) -> None:
        _BOUND.reset(self._tokens.pop())

    def reset(self) -> None:
        self.scalar_mults = 0
        self.point_adds = 0


# What a kept ``ctr=None`` parameter enters for None: binds nothing, so an enclosing scope counts.
_UNBOUND = nullcontext()


def scalar_mult(k: Scalar, point: GroupElement) -> GroupElement:
    """Return k * point, counting one scalar multiplication."""
    ctr = _BOUND.get()
    if ctr is not None:
        ctr.scalar_mults += 1
    return k * point


def mul_u(k: Scalar, u: int) -> int:
    """Return u(k * B) (0 if k = 0) from u = u(B), B in the subgroup, counting one product."""
    ctr = _BOUND.get()
    if ctr is not None:
        ctr.scalar_mults += 1
    return _ladder_u(k.v, _x25519_base(u), _last_key)


def point_add(a: GroupElement, b: GroupElement) -> GroupElement:
    """Return a + b, counting one point addition."""
    ctr = _BOUND.get()
    if ctr is not None:
        ctr.point_adds += 1
    return a + b


def addends(points: list[GroupElement]) -> list:
    """Return ``points`` in the stored form :func:`subset_sum` adds from.

    Uncounted: one shared field inversion and one product per point.  The
    points may be in any projective form, such as :func:`scalar_mult` returns.
    """
    return _cached(_normalize([point.coords for point in points]))


def subset_sum(stored: list, indices) -> GroupElement:
    """Return the sum of ``stored[i]`` over ``indices``, counting one addition fewer than indices.

    ``stored`` comes from :func:`addends`, so each addition is a mixed
    one, two field products cheaper than :func:`point_add`.
    """
    ctr = _BOUND.get()
    if ctr is not None:
        ctr.point_adds += len(indices) - 1
    return GroupElement(_sum_cached([stored[i] for i in indices]))


# ---------------------------------------------------------------------------
# Hashing and randomness
# ---------------------------------------------------------------------------


# A fresh state of each algorithm, copied per digest: cheaper than building a new one.
_HASHES = {SHA256: Hash(SHA256()), SHA512: Hash(SHA512())}


def digest(data: bytes, algorithm=SHA256) -> bytes:
    """The SHA-256 (or, given ``SHA512``, SHA-512) digest of ``data``.

    Every digest of the package is taken here, through ``cryptography``'s
    OpenSSL, which every process already loads for HKDF; ``hashlib``
    would load a second one.  Each call copies a kept fresh state, which
    is cheaper than building one: on a 2-core Python 3.11 host the hash of
    ``sign`` (a 64-byte message) takes about 3.2 us, against 2.3-2.6 us
    through ``hashlib``.
    """
    h = _HASHES[algorithm].copy()
    h.update(data)
    return h.finalize()


def hash_to_scalar(domain_tag: int, parts: list[bytes] | tuple[bytes, ...]) -> Scalar:
    """Hash length-prefixed byte strings into a scalar.

    A 512-bit digest is reduced modulo N, keeping the output's statistical
    distance from uniform negligible.  Each part is prefixed with its
    4-byte little-endian length, so distinct part lists never collide via
    concatenation ambiguity.
    """
    if not parts:
        raise ValueError("hash_to_scalar needs at least one part")
    framed = b"".join([x for part in parts for x in (len(part).to_bytes(4, "little"), part)])
    return Scalar(int.from_bytes(digest(bytes([domain_tag]) + framed, SHA512), "little"))


def random_scalar(rng) -> Scalar:
    """Uniform scalar in [1, N-1] from the supplied randomness source.

    ``rng`` is any object with ``randrange`` (``random.SystemRandom()``
    for production use, a seeded ``random.Random`` for reproducible
    tests).
    """
    return Scalar(rng.randrange(1, N))
