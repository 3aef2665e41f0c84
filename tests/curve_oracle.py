"""Independent curve arithmetic shared by the tests.

* An affine-coordinate implementation of twisted Edwards arithmetic
  (plain modular inverses, no projective coordinates, no windowing), so
  agreement with the library's engine is meaningful.
* Double-and-add over the library's complete addition law, valid for any
  curve point, and ``T8``, a point of order exactly 8 built with it.
* The Montgomery u of an affine point, and back: the affine points of a u
  by the birational map and a square root, so a u can be judged by the
  affine arithmetic above.
* ``oracle_decode``, the decode of RFC 8032 section 5.1.3 with its square
  root by ``pow`` and the check's u by an inversion, which the library's
  one-exponentiation decode must match, error for error.
"""

from iodcrypt.errors import MalformedElement
from iodcrypt.group import IDENTITY, N, P, GroupElement, decode_u

_A = -1
_D = (-121665 * pow(121666, -1, P)) % P
AFFINE_IDENTITY = (0, 1)


def affine(point):
    x, y, z, _t = point.coords
    zinv = pow(z, -1, P)
    return (x * zinv) % P, (y * zinv) % P


def affine_add(p1, p2):
    x1, y1 = p1
    x2, y2 = p2
    dxy = (_D * x1 * x2 * y1 * y2) % P
    x3 = (x1 * y2 + y1 * x2) * pow(1 + dxy, -1, P)
    y3 = (y1 * y2 - _A * x1 * x2) * pow(1 - dxy, -1, P)
    return x3 % P, y3 % P


def affine_mul(k, p):
    acc = AFFINE_IDENTITY
    addend = p
    while k:
        if k & 1:
            acc = affine_add(acc, addend)
        addend = affine_add(addend, addend)
        k >>= 1
    return acc


def times(n, point):
    # Double-and-add on the complete addition law, valid for any curve
    # point (scalar multiplication by the operators reduces modulo N).
    acc = IDENTITY
    for bit in bin(n)[2:]:
        acc = acc + acc
        if bit == "1":
            acc = acc + point
    return acc


def _order_8_point():
    """N * Q for the first curve point Q (by y) whose torsion part has order 8."""
    for y in range(2, 1000):
        xx = (y * y - 1) * pow(_D * y * y + 1, -1, P) % P
        x = pow(xx, (P + 3) // 8, P)
        if x * x % P != xx:
            x = x * pow(2, (P - 1) // 4, P) % P
        if x * x % P != xx:
            continue
        torsion = times(N, GroupElement((x, y, 1, x * y % P)))
        if not times(4, torsion).is_identity():
            return torsion
    raise AssertionError("no order-8 point found")


T8 = _order_8_point()


def affine_u(p):
    """u = (1 + y)/(1 - y) of an affine point other than the identity."""
    _x, y = p
    return (1 + y) * pow(1 - y, -1, P) % P


def points_of_u(u):
    """The affine Edwards points whose u is ``u``: two, one, or none when u is on the twist."""
    if (u + 1) % P == 0:
        return []  # y = (u - 1)/(u + 1) is undefined: not a point of the Edwards curve
    y = (u - 1) * pow(u + 1, -1, P) % P
    xx = (y * y - 1) * pow(_D * y * y + 1, -1, P) % P
    x = pow(xx, (P + 3) // 8, P)
    if x * x % P != xx:
        x = x * pow(2, (P - 1) // 4, P) % P
    if x * x % P != xx:
        return []
    return sorted({(x, y), (-x % P, y)})


def oracle_decode(data):
    """``decode_element`` by ``pow``: the same point, or the same error class and message.

    The candidate x = u*v^3 * (u*v^7)^((P-5)/8) of x^2 = u/v is right up to
    a factor sqrt(-1); the subgroup check takes u = (1 + y)/(1 - y) by an
    inversion and hands it to the library's ``decode_u``.
    """
    if len(data) != 32:
        raise MalformedElement(f"element must be 32 bytes, got {len(data)}")
    val = int.from_bytes(data, "little")
    sign, y = val >> 255, val % 2**255
    if y >= P:
        raise MalformedElement("non-canonical y coordinate")
    u = (y * y - 1) % P
    v = (_D * y * y + 1) % P
    x = u * pow(v, 3, P) * pow(u * pow(v, 7, P), (P - 5) // 8, P) % P
    if v * x * x % P != u:
        if v * x * x % P != (P - u) % P:
            raise MalformedElement("not a curve point")
        x = x * pow(2, (P - 1) // 4, P) % P
    if x == 0 and sign:
        raise MalformedElement("non-canonical sign bit")
    if x & 1 != sign:
        x = P - x
    if y != 1:
        decode_u(((1 + y) * pow(1 - y, -1, P) % P).to_bytes(32, "little"))
    return GroupElement((x, y, 1, x * y % P))
