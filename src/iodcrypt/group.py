"""Prime-order elliptic-curve group with instrumented operation counters.

The one concrete backend is the prime-order subgroup of Ed25519 (twisted
Edwards curve -x^2 + y^2 = 1 + d*x^2*y^2 over GF(2^255 - 19), ~128-bit
security).  Points are kept in extended coordinates (X, Y, Z, T) with
T = X*Y/Z, where the unified addition law is complete: it is correct for
doubling and for identity operands alike.

Two layers of API:

* ``GroupElement`` and ``Scalar`` support plain operators, never
  counted: ``P + Q`` and ``k * P`` on elements, ``a + b``, ``a - b`` and
  ``a * b`` on scalars.  Neither negates and elements do not subtract,
  since no caller does.
* :func:`scalar_mult`, :func:`mul_u` and :func:`point_add` are the
  counted entry points used by the protocol layers, :func:`comb_mult`
  the one used by the textbook baselines, and
  :func:`subset_sum` is the counted sum of stored points (the online
  phase of the precomputation tables); :func:`table_columns` computes a
  table's products, counted one each, straight into that stored form, and
  :func:`addends` turns any other points into it.
  Each ticks whichever :class:`OpCounter` its caller bound with
  ``with OpCounter() as ctr:``, so no counter is passed down the call
  chain and per-operation group-op budgets can be asserted exactly.

Products run on two paths:

* **every product**, of G or any other base, single or in a table column:
  X25519 (RFC 7748, in C in ``cryptography``'s binding) with
  two private keys, for k and k+1 (k-1 for k = N-1), whose exchanges with B
  give u(k*B) and u((k+1)*B); the Okeya-Sakurai formula recovers v from
  them and B's (u, v).  For B = G each key's own public key, which loading
  it computes anyway, is that u with no exchange, and G's (u, v) is written
  out, so k*G is two key loads and a table over (G,) or (G, X) loads two
  keys per scalar for all its bases.  Any other base keeps its Montgomery
  (u, v) and X25519 public key from its first product on, so a table
  column, or every verify against one verifier's key, maps it once.  These
  products assume a base in the prime-order subgroup, as every decoded
  element is; the subgroup check of :func:`decode_element` (one X25519
  call) does not rely on them.
* **the textbook baselines' products of G** (:func:`comb_mult`): a signed
  Lim-Lee comb (4 tables of 128 affine points), built on first use and kept
  for the life of the process; a product is 7 doublings and 31 mixed
  additions.  Only ``reference_sign``, ``reference_encrypt`` and
  ``reference_verify`` call it: it keeps them on the arithmetic of the
  table path's additions, so table ``sign`` is measured against a product
  in the same arithmetic (ROADMAP item 8), and it makes
  ``reference_verify`` an oracle for ``verify`` on a second engine.

One routine makes every X25519 call, for products, :func:`mul_u` and the
check alike; a scalar 8j that X25519 cannot take (|j| <= N - 2^252) is
u(j*B) and three x-only doublings.

``GroupElement.__rmul__`` runs single products on ``_mul``, on X25519, and
every counted one but :func:`comb_mult` goes through it; :func:`table_columns`
calls ``_mul`` too.  Points only ever multiplied travel as
Montgomery u (RFC 7748 section 5): :func:`decode_u` and :func:`mul_u` take no square root.

Every sum of stored points, a table's subset sum or a round of the comb,
is one call of ``_madd_chain``: a loop of mixed additions over the run of
points, the sum's coordinates kept in locals, that reduces lazily.  It folds
each product with 2^255 = 19 (mod P), about half the cost of a ``% P``, once
inside the formula and twice at its four outputs, which keeps every
coordinate within 2^22 of [0, 2^255).  Folds keep each value mod P, and each
chain reduces ``% P`` once at its end, so every point that leaves the raw
layer is in canonical coordinates, the same as with a ``% P`` at every product.

Elements decode from/encode to the canonical 32-byte little-endian form
(y with the sign of x in the top bit).  Decoding rejects non-canonical
bytes, off-curve points, and points outside the prime-order subgroup, so
every live ``GroupElement`` behaves as a member of a group of prime
order ``N``.  A decode takes x and the check's u from one exponentiation,
folded as the mixed addition is, and no inversion.  Sealed table files
keep points in a third encoding, the 64-byte affine x | y:
:func:`_write_xy` writes it from the stored form of :func:`addends` with
no inversion, and :func:`_read_xy` checks it and reads it back into that
form with no square root.

Importing the module takes no exponentiation, inversion or square root:
d, 2d, 1/d, sqrt(-1), G, G's (u, v) and 1/8 mod N are written out.  Every
SHA-256 and SHA-512 of the package is :func:`digest`, on the OpenSSL inside
``cryptography``, so no process loads ``hashlib``'s as a second one.
X25519 keys and ``ChaCha20Poly1305`` come straight from the Rust binding
that ``cryptography``'s public wrappers call, which that hashing already
loaded: the same objects, but no process imports the OpenSSL backend
module (about 5 ms, which the key wrappers import on each call to check
for FIPS mode), the public ``x25519`` module or the ``ciphers`` package
(about 4 ms, which the AEAD's import runs).  The wrappers refused X25519
under FIPS mode with ``UnsupportedAlgorithm``; a key that the binding
cannot build raises its ``ValueError`` instead, never
:class:`MalformedElement`.
"""

from __future__ import annotations

from _contextvars import ContextVar  # what ``contextvars`` re-exports, at half its import cost
from collections.abc import Callable
from contextlib import nullcontext
from functools import lru_cache
from operator import attrgetter

from cryptography.hazmat.bindings._rust import openssl as _openssl  # what the public wrappers call
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

# The AEAD of sealed tables and ciphertexts (RFC 8439): the class ``ciphers.aead`` re-exports.
ChaCha20Poly1305 = _openssl.aead.ChaCha20Poly1305


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
# Two formula bodies: the unified law _add_raw and _madd_chain, its mixed form for
# affine operands, run over a list of them.  _add_raw reduces every product % P.
# _madd_chain reduces lazily with a fold, w -> (w & _LOW) + 19 * (w >> 255): it
# keeps w mod P, since 2^255 = 19 mod P, and costs about half a % P.  For
# -2^(255+n) <= w < 2^(255+n) it lands in [-19 * 2^n, 2^255 + 19 * 2^n).  So each
# step of _madd_chain takes and returns coordinates in a band, (-2^22, 2^255 + 2^22),
# and each chain (_sum_cached, _comb_mul) ends with one % P per coordinate.  With
# M = 2^255, x1, y1, z1, t1 in the band, the cached yp, ym in [0, P) and |t2d| < P
# (the comb negates t2d):
#   a = (y1 - x1) * ym and c = t1 * t2d lie within +-(M + 2^23) * M;
#     one fold each: (-19M - 2^28, 20M + 2^28);
#   b = (y1 + x1) * yp lies in (-2^23 * M, (2M + 2^23) * M); one fold: (-2^28, 39M + 2^28);
#   d = 2 * z1 lies in (-2^23, 2M + 2^23);
#   so |e|, |h| = |b -+ a| < 59M + 2^29 and |f|, |g| = |d -+ c| < 22M + 2^29,
#   and each output product is under (59M + 2^29)^2 < 3482 * M^2 in size;
#   its first fold lies in [-66158M, 66159M), about 2^271, and its second in
#   (-2^21, M + 2^21), since 19 * 66159 < 2^21: inside the band again.
# One fold is enough for a, b and c, which only feed the four sums; each output,
# the next step's input, takes two.  Every fold is exact mod P, so the final % P
# gives the coordinates of a % P at every product.
# _sq_mul, the decode's exponentiation, folds each product twice too: for two
# factors in [0, M + 2^9) the product is under M^2 + 2^10 * M + 2^18, its first
# fold under 20M + 2^15 < 21M and its second in [0, M + 2^9) again.

_IDENT_COORDS = (0, 1, 1, 0)
_LOW = 2**255 - 1  # the low 255 bits of a fold


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
    # _madd_chain takes its entries.
    return [((y + x) % P, (y - x) % P, x * y % P * _2D % P) for x, y in affine]


def _madd_chain(acc, entries):
    # acc plus each of entries in turn, by mixed addition: the unified law of
    # _add_raw with an affine second operand (Z2 = 1) given in the form of
    # _cached, one product fewer.  One call per run of entries, so acc's four
    # coordinates stay in locals.  Takes and returns coordinates in the band
    # above, folding where _add_raw reduces: once per product inside, twice per
    # output; the caller reduces % P at the end of its chain.
    x, y, z, t = acc
    for yp, ym, t2d in entries:
        a = (y - x) * ym
        a = (a & _LOW) + 19 * (a >> 255)
        b = (y + x) * yp
        b = (b & _LOW) + 19 * (b >> 255)
        c = t * t2d
        c = (c & _LOW) + 19 * (c >> 255)
        d = 2 * z
        e = b - a
        f = d - c
        g = d + c
        h = b + a
        x = e * f
        x = (x & _LOW) + 19 * (x >> 255)
        x = (x & _LOW) + 19 * (x >> 255)
        y = g * h
        y = (y & _LOW) + 19 * (y >> 255)
        y = (y & _LOW) + 19 * (y >> 255)
        z = f * g
        z = (z & _LOW) + 19 * (z >> 255)
        z = (z & _LOW) + 19 * (z >> 255)
        t = e * h
        t = (t & _LOW) + 19 * (t >> 255)
        t = (t & _LOW) + 19 * (t >> 255)
    return x, y, z, t


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
    # each to flip tooth j; one batch normalisation for all 512.  About 6-12 ms on a
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
        acc = _madd_chain(_add_raw(acc, acc), entries[i : i + 4])
    x, y, z, t = acc
    return (x % P, y % P, z % P, t % P)


def _sum_cached(entries):
    # The sum of points in the form of _cached: the first converted to
    # (2x, 2y, 2, 2xy) with one product, then one chain of mixed additions over
    # the rest, and one % P of each coordinate at its end.
    yp, ym, t2d = entries[0]
    acc = ((yp - ym) % P, (yp + ym) % P, 2, t2d * _INV_D % P)
    x, y, z, t = _madd_chain(acc, entries[1:])
    return (x % P, y % P, z % P, t % P)


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
    return _openssl.x25519.from_public_bytes(u.to_bytes(ELEMENT_LEN, "little"))


def _private_key(s):
    return _openssl.x25519.from_private_bytes(s.to_bytes(SCALAR_LEN, "little"))


# Kept: the check key, built on first use, and mul_u's last two (_mul's scalars change each
# call), so a handshake's fresh ephemeral does not evict a station's decrypt key.
_check_key = lru_cache(maxsize=1)(_private_key)
_last_key = lru_cache(maxsize=2)(_private_key)


def _ladder_u(k, bases, key=None):
    # [u(k * B) for each B] for 0 <= k < N (0s for k = 0), all from key(s) for the clamp form
    # s of k (default _private_key): an exchange with B's X25519 public key, or for B = G,
    # given as None, the key's own public key, which the load already computed.  A k with no
    # clamp form is 8j: it takes u(j * B) by the same rule, then three x-only doublings on
    # (X : Z).  MalformedElement when an exchange's output is all-zero (s * B is the identity:
    # s = 0 mod 8 clears order 2); a key that cannot be built raises what its constructor does.
    if k == 0:
        return [0] * len(bases)
    doublings = 0
    s = _clamp_form(k)
    while s is None:
        k, doublings = k * _INV_8 % N, doublings + 3
        s = _clamp_form(k)
    private = (key or _private_key)(s)
    out = []
    for base in bases:
        try:
            raw = private.public_key().public_bytes_raw() if base is None else private.exchange(base)
        except ValueError:  # the binding's refusal of an all-zero output: B is a torsion point
            raise MalformedElement("point outside the prime-order subgroup") from None
        x, z = int.from_bytes(raw, "little"), 1
        for _ in range(doublings):
            xx, zz, xz = x * x % P, z * z % P, x * z % P
            x, z = (xx - zz) ** 2 % P, 4 * xz * (xx + _A * xz + zz) % P
        out.append(x if z == 1 else x * pow(z, -1, P) % P)
    return out


def _montgomery(coords):
    # (u, v) of a point with x != 0 (not the identity or (0, -1)), with one inversion.
    x, y, z, _ = coords
    inv = pow((z - y) * x % P, -1, P)
    return (z + y) * x % P * inv % P, _SQRT_M486664 * (z + y) % P * z % P * inv % P


# G's (u, v) (RFC 7748 section 4.1), written out, with u named for mul_u's callers; the tests
# derive it.  None stands for its X25519 public key: _ladder_u reads u(s * G) off the key of s.
G_U = 9
_G_FORM = (G_U, 14781619447589544791020593568409986887264606134616475288964881837755586237401, None)


def _form(point):
    # (u, v, X25519 public key) of a base other than the identity: G's written out, any
    # other's kept on the element from its first product on, so G never gets one.
    if point._ladder is None and point.coords != G.coords:
        u, v = _montgomery(point.coords)
        point._ladder = (u, v, _x25519_base(u))
    return point._ladder or _G_FORM


def _mul(bases, k):
    # [k * B for each B] for 0 <= k < N and bases other than the identity in the prime-order
    # subgroup, from u of Q = k*B and of its neighbour Q + step*B: (k+1)*B, or (k-1)*B for
    # k = N - 1, whose (k+1)*B is the identity (u = 0), with which the formula would give +B,
    # not -B.  Two X25519 keys serve every base.
    if k == 0:
        return [_IDENT_COORDS] * len(bases)
    step = 1 if k < N - 1 else -1
    us, vs, publics = zip(*map(_form, bases))
    out = []
    for u, v, uq, un in zip(us, vs, _ladder_u(k, publics), _ladder_u(k + step, publics)):
        # Okeya-Sakurai (CHES 2001): v(Q) = num / (2 * step * v); then back to
        # Edwards, x = sqrt(-486664)*uq/v(Q) and y = (uq - 1)/(uq + 1).
        num = ((u * uq + 1) * (u + uq + 2 * _A) - 2 * _A - (u - uq) ** 2 % P * un) % P
        w = _SQRT_M486664 * uq % P * 2 * step * v % P
        out.append((w * (uq + 1) % P, (uq - 1) * num % P, num * (uq + 1) % P, w * (uq - 1) % P))
    return out


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


class Scalar:
    """Residue modulo the group order ``N``: ``v`` is the canonical integer in [0, N)."""

    __slots__ = ("v",)

    def __init__(self, value: int):
        self.v = value % N

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.v + other.v)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.v - other.v)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Scalar(self.v * other.v)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.v == other.v

    def __hash__(self) -> int:
        return hash(("Scalar", self.v))

    def __repr__(self) -> str:
        return f"Scalar({hex(self.v)})"

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

    Immutable in value.  ``k * P`` runs on two X25519 calls, which assume
    that P is in the prime-order subgroup, as every decoded element is:
    for G, two key loads that read their own public keys.  Any other P
    keeps its (u, v, X25519 public key) from its first product on.
    """

    __slots__ = ("coords", "_ladder")

    def __init__(self, coords):
        self.coords = coords
        self._ladder = None

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(_add_raw(self.coords, other.coords))

    def __rmul__(self, k) -> "GroupElement":
        if isinstance(k, Scalar):
            k = k.v
        if not isinstance(k, int):
            return NotImplemented
        k %= N
        if k == 0 or self.is_identity():
            return IDENTITY
        return GroupElement(_mul((self,), k)[0])

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


def _sq_mul(t, n, m):
    # t^(2^n) * m, up to a multiple of P, for t and m in [0, 2^255 + 2^9): each of the
    # n squarings and the product folded twice, which keeps every value in that range
    # (the band comment above _add_raw).
    for _ in range(n):
        t *= t
        t = (t & _LOW) + 19 * (t >> 255)
        t = (t & _LOW) + 19 * (t >> 255)
    t *= m
    t = (t & _LOW) + 19 * (t >> 255)
    return (t & _LOW) + 19 * (t >> 255)


def _pow_p58(z):
    # z^((P-5)/8) = z^(2^252 - 3) for 0 <= z < P on the chain of ref10 (Bernstein et al.,
    # CHES 2011), 251 squarings and 11 products, one % P at the end: about two thirds of
    # pow's cost.  e_k is z^(2^k - 1).
    z2 = _sq_mul(z, 0, z)
    z9 = _sq_mul(z2, 2, z)
    z11 = _sq_mul(z9, 0, z2)
    e5 = _sq_mul(z11, 1, z9)
    e10 = _sq_mul(e5, 5, e5)
    e20 = _sq_mul(e10, 10, e10)
    e50 = _sq_mul(_sq_mul(e20, 20, e20), 10, e10)
    e100 = _sq_mul(e50, 50, e50)
    e250 = _sq_mul(_sq_mul(e100, 100, e100), 50, e50)
    return _sq_mul(e250, 2, z) % P


def _lift(data: bytes) -> tuple[GroupElement, int]:
    """The curve point that 32 bytes encode, before any subgroup check, and its u.

    Rejects wrong lengths, non-canonical y (>= field prime), y with no
    matching x on the curve, and sign bit set on x = 0, in that order.  u
    is the Montgomery u = (1 + y)/(1 - y), and 0 for y = +-1.  One
    exponentiation and no inversion (RFC 8032 section 5.1.3, with 1/(1 - y)
    folded in): for num = y^2 - 1, den = d*y^2 + 1, w = 1 - y and
    a = num*den*w^4, t = a^((P-5)/8) gives a*t^2 = a^((P-1)/4).  That is 1
    or -1 when num/den is a square, and t*sqrt(-1) in place of t turns -1
    into 1; any other value means num/den is not a square.  With a*t^2 = 1,
    x = num*w^2*t squares to num/den and 1/w = num*den*w^3*t^2.  For
    y = +-1, a = 0 = t, so x = 0.
    """
    if len(data) != ELEMENT_LEN:
        raise MalformedElement(f"element must be {ELEMENT_LEN} bytes, got {len(data)}")
    val = int.from_bytes(data, "little")
    sign = val >> 255
    y = val & _LOW
    if y >= P:
        raise MalformedElement("non-canonical y coordinate")
    y2 = y * y % P
    num = y2 - 1
    w = 1 - y
    w2 = w * w % P
    ndw3 = num * (_D * y2 + 1) % P * w2 % P * w % P
    a = ndw3 * w % P
    t = _pow_p58(a)
    root = a * t % P * t % P
    if root != 1 and a:
        if root != P - 1:
            raise MalformedElement("not a curve point")
        t = t * _SQRT_M1 % P
    x = num * w2 % P * t % P
    if x == 0 and sign:
        raise MalformedElement("non-canonical sign bit")
    if x & 1 != sign:
        x = P - x
    return GroupElement((x, y, 1, x * y % P)), (1 + y) * ndw3 % P * t % P * t % P


def decode_element(data: bytes) -> GroupElement:
    """Decode 32 bytes into a group element.

    Rejects what :func:`_lift` rejects, and points outside the prime-order
    subgroup: for R = Q + T (Q in the subgroup, 8T = 0) and the clamp form c
    of 1 (c = +-1 mod N, c = 0 mod 8), R passes iff u(c * R), which is
    u(+-Q), equals u(R), that is iff T is the identity.  Its cost is
    :func:`_lift`'s one exponentiation and the check's one X25519 call, with
    u from :func:`_lift`: no inversion.
    """
    point, u = _lift(data)
    if point.coords[1] != 1:  # the identity, the one point with no u, needs no check
        decode_u(u.to_bytes(ELEMENT_LEN, "little"))
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
    if _ladder_u(1, (_x25519_base(u),), _check_key) != [u]:  # c * R is not +-R
        raise MalformedElement("point outside the prime-order subgroup")
    return u


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


# What a kept ``ctr=None`` parameter enters for None: binds nothing, so an enclosing scope counts.
_UNBOUND = nullcontext()


def _tick(scalar_mults, point_adds=0):
    # Adds to the counter of the innermost enclosing ``with OpCounter()``, if any.
    ctr = _BOUND.get()
    if ctr is not None:
        ctr.scalar_mults += scalar_mults
        ctr.point_adds += point_adds


def scalar_mult(k: Scalar, point: GroupElement) -> GroupElement:
    """Return k * point, counting one scalar multiplication."""
    _tick(1)
    return k * point


def comb_mult(k: Scalar) -> GroupElement:
    """Return k * G on the comb of G, counting one scalar multiplication.

    Only the textbook baselines call it (``reference_sign``,
    ``reference_encrypt``, ``reference_verify``).  Every other product of G
    runs on X25519, so ``reference_verify`` checks ``verify`` on a second
    engine.
    """
    _tick(1)
    return GroupElement(_comb_mul(k.v))


def mul_u(k: Scalar, u: int) -> int:
    """Return u(k * B) (0 if k = 0) from u = u(B), B in the subgroup, counting one product.

    For B = G (u = :data:`G_U`) it is the kept key's own public key, with no exchange.
    """
    _tick(1)
    return _ladder_u(k.v, (None if u == G_U else _x25519_base(u),), _last_key)[0]


def point_add(a: GroupElement, b: GroupElement) -> GroupElement:
    """Return a + b, counting one point addition."""
    _tick(0, 1)
    return a + b


def addends(points: list[GroupElement]) -> list:
    """Return ``points`` in the stored form :func:`subset_sum` adds from.

    Uncounted: one shared field inversion and one product per point.  The
    points may be in any projective form, such as :func:`scalar_mult` returns.
    """
    return _cached(_normalize([point.coords for point in points]))


def table_columns(bases: tuple[GroupElement, ...], scalars: list[Scalar]) -> list[list]:
    """Return [[r * B for r in scalars] for B in bases] in the stored form of :func:`addends`.

    Counts one scalar multiplication per product.  Each nonzero r loads
    two X25519 keys, for r and its neighbour, and serves every base from
    them: G from each key's own public key, with no exchange and no comb,
    any other base with one exchange per key.  One shared field inversion
    per base.  The bases must not be the identity.
    """
    _tick(len(bases) * len(scalars))
    products = [p for r in scalars for p in _mul(bases, r.v)]
    return [_cached(_normalize(products[c :: len(bases)])) for c in range(len(bases))]


def subset_sum(stored: list, indices) -> GroupElement:
    """Return the sum of ``stored[i]`` over ``indices``, counting one addition fewer than indices.

    ``stored`` comes from :func:`addends`, so each addition is a mixed
    one, two field products cheaper than :func:`point_add`, which folds its
    products with 2^255 = 19 (mod P) where :func:`point_add` takes ``% P``.
    The sum reduces ``% P`` once at the end, so its coordinates are exactly
    those of reducing every product.  It needs one index or more; none raises ValueError.
    """
    if not indices:
        raise ValueError("a subset sum needs at least one index")
    _tick(0, len(indices) - 1)
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
