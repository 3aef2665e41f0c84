"""Group backend tests: laws, encodings, counters, and hashing.

The reference oracle is the independent affine-coordinate implementation
in ``curve_oracle`` (plain modular inverses, no projective coordinates,
no windowing), so agreement is meaningful.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from iodcrypt import bpv, group
from iodcrypt.bpv import BpvParams, dbpv_offline, deserialize_table, serialize_table, verify_table
from iodcrypt.errors import MalformedElement, MalformedScalar
from iodcrypt.group import (
    DOMAIN_KEY,
    DOMAIN_SIG,
    ELEMENT_LEN,
    G,
    GROUP_ID,
    IDENTITY,
    GroupElement,
    N,
    P,
    SCALAR_LEN,
    OpCounter,
    Scalar,
    addends,
    decode_element,
    decode_scalar,
    decode_u,
    hash_to_scalar,
    montgomery_u,
    mul_u,
    point_add,
    random_scalar,
    scalar_mult,
    subset_sum,
)

from curve_oracle import T8, affine, affine_add, affine_mul, affine_u, points_of_u, times

scalars = st.integers(min_value=0, max_value=N - 1).map(Scalar)
nonzero_scalars = st.integers(min_value=1, max_value=N - 1).map(Scalar)
points = st.integers(min_value=0, max_value=N - 1).map(lambda k: Scalar(k) * G)


# --------------------------------------------------------------------------
# Fixed, externally-known values
# --------------------------------------------------------------------------


def test_base_point_canonical_encoding():
    assert G.encode().hex() == "58" + "66" * 31


def test_group_order_times_base_is_identity():
    assert (Scalar(0) * G).is_identity()
    assert Scalar((N - 1)) * G + G == IDENTITY


def test_descriptor_fields():
    assert GROUP_ID == 0x01
    assert N == 2**252 + 27742317777372353535851937790883648493
    assert ELEMENT_LEN == SCALAR_LEN == 32
    assert len(G.encode()) == ELEMENT_LEN
    assert len(Scalar(N - 1).encode()) == SCALAR_LEN
    assert G == decode_element(bytes.fromhex("58" + "66" * 31))


def test_order_minus_one_times_base_is_negation():
    assert Scalar(N - 1) * G == -G


def test_base_plus_base_matches_doubling_by_scalar():
    assert G + G == Scalar(2) * G


# --------------------------------------------------------------------------
# Agreement with the affine oracle
# --------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=N - 1), st.integers(min_value=1, max_value=N - 1))
def test_scalar_mult_matches_affine_oracle(k, b):
    assert affine(Scalar(k) * G) == affine_mul(k, affine(G))
    base = Scalar(b) * G
    assert affine(Scalar(k) * base) == affine_mul(k, affine(base))


_TORSION = [times(j, T8) for j in range(8)]


@settings(max_examples=50, deadline=None)
@given(points, points)
def test_addition_matches_affine_oracle(p1, p2):
    # The unified law is complete on the whole curve: operands carrying a
    # torsion component j*T8 and the doubling q1 == q2 need no special case.
    for j in range(8):
        q1, q2 = p1 + _TORSION[j], p2 + _TORSION[3 * j % 8]
        for a, b in ((q1, q2), (q1, q1)):
            assert affine(a + b) == affine_add(affine(a), affine(b))


# Digit-boundary scalars for the comb: every nibble 8 (a carry out of
# every comb digit), every nibble 15 (the top window entry), 2 and 8.  For
# X25519, whose clamp forms miss exactly the k = 8j with |j| <= c: those
# multiples of 8 on both sides of the bound and their neighbours.
_C = N - 2**252
_EDGE_SCALARS = [0, 1, 2, 7, 8, 16, 2**252 - 1, int("8" * 63, 16), N - 9, N - 8, N - 1,
                 8 * _C, 8 * (_C + 1), N - 8 * _C, N - 8 * (_C + 1)]
_OTHER_BASE = Scalar(0x5EED_BA5E) * G


@pytest.mark.parametrize("k", _EDGE_SCALARS)
@pytest.mark.parametrize("base", [G, -G, _OTHER_BASE], ids=["G", "-G", "random"])
def test_product_at_edge_scalars_matches_affine_oracle(base, k):
    assert affine(Scalar(k) * base) == affine_mul(k, affine(base))


def test_g_comb_is_built_once_per_process(monkeypatch):
    # The comb takes no base, so each call of _g_comb that finds none yet is
    # a build of G's.  A designated table over X, built, loaded from the open
    # format and verified, reaches it only for its G column.
    found_empty = []
    real = group._g_comb
    monkeypatch.setattr(group, "_G_COMB", None)
    monkeypatch.setattr(group, "_g_comb", lambda: found_empty.append(group._G_COMB is None) or real())
    k = Scalar(0xABCDEF)
    expected = affine_mul(k.value, affine(G))
    decoded_g = decode_element(G.encode())
    for out in (k * G, k * decoded_g, scalar_mult(k, G)):
        assert affine(out) == expected
    params = BpvParams(v=2, k=4, allow_unsafe=True)
    table = dbpv_offline(params, decode_element(_OTHER_BASE.encode()), bytes(32), random.Random(7))
    verify_table(deserialize_table(serialize_table(table)))
    # The three products of G above, then k for the G column of each of the
    # build, the load and the check.
    assert found_empty == [True] + [False] * (3 - 1 + 3 * params.k)


# --------------------------------------------------------------------------
# Products of every other base and the subgroup check on X25519
# --------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=N - 1), st.integers(min_value=0, max_value=N - 1))
def test_ladder_products_match_affine_oracle(b, k):
    base = Scalar(b) * G
    for scalar in [k, *_EDGE_SCALARS]:
        assert affine(Scalar(scalar) * base) == affine_mul(scalar, affine(base))


def _le(hex_bytes):
    return int.from_bytes(bytes.fromhex(hex_bytes), "little")


def _exchange(s, u):
    # One X25519 exchange, as products, mul_u and the subgroup check make it.
    return int.from_bytes(group._private_key(s).exchange(group._x25519_base(u)), "little")


def test_x25519_reproduces_rfc7748_vectors():
    # Section 5.2: two single products (the second u has its top bit set,
    # which X25519 masks), then the iterated k = u = 9 after 1 and 1000 rounds.
    for scalar, u, out in (
        ("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
         "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
         "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"),
        ("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
         "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
         "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"),
    ):
        assert _exchange(_le(scalar), _le(u) % 2**255) == _le(out)
    k = u = 9
    for rounds in range(1, 1001):
        k, u = _exchange(k, u), k
        if rounds == 1:
            assert k == _le("422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079")
    assert k == _le("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51")


def test_g_maps_to_the_rfc7748_base_point():
    # Section 4.1: u = 9 and this v, from any representative of G.
    v = 14781619447589544791020593568409986887264606134616475288964881837755586237401
    assert group._montgomery(G.coords) == (9, v)
    assert group._montgomery(tuple(3 * c % P for c in G.coords)) == (9, v)


def _clamp(s):
    # RFC 7748 section 5, decodeScalar25519.
    return s & ~7 & (2**255 - 1) | 2**254


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=N - 1))
def test_clamp_forms_are_clamp_fixed_points_of_plus_or_minus_k(k):
    # Both ends of u = k/8 in [2^251, 2^252) with either sign, and the edges.
    bounds = [8 * u % N for u in (2**251 - 1, 2**251, 2**252 - 1, 2**252, N - 2**251)]
    for k in (k, *bounds, *_EDGE_SCALARS):
        j = k * pow(8, -1, N) % N
        s = group._clamp_form(k)
        if min(j, N - j) <= _C:
            assert s is None
        else:
            assert _clamp(s) == s and s % N in (k % N, -k % N)


@pytest.mark.parametrize("j", range(1, 8))
def test_check_scalar_clears_the_torsion_part(j):
    # c = +-1 (mod N) and c = 0 (mod 8), so c * (Q + j*T8) = +-Q, whose u is
    # not that of Q + j*T8: the check rejects the point.
    c = group._clamp_form(1)
    assert _clamp(c) == c and c % 8 == 0 and c % N in (1, N - 1)
    point = _OTHER_BASE + times(j, T8)
    assert affine_mul(c, affine(point)) in (affine(_OTHER_BASE), affine(-_OTHER_BASE))
    u_point, u_base = group._montgomery(point.coords)[0], group._montgomery(_OTHER_BASE.coords)[0]
    assert _exchange(c, u_point) == u_base != u_point


def _column(base, ks, ctr=None):
    # The stored column of ``base`` over ``ks``, as a table builds, loads and checks it.
    return bpv._columns((base,), [Scalar(k) for k in ks], ctr)[0]


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(group, name)
    monkeypatch.setattr(group, name, lambda *args: calls.append(name) or real(*args))
    return calls


@pytest.mark.parametrize("k", [3, 64, *_EDGE_SCALARS])
def test_second_product_runs_no_doubling(monkeypatch, k):
    # A decode is one X25519 exchange and a product of k > 0 two, by the operator,
    # counted or in a table column, with no addition in Python and no comb.  That
    # holds where k or its neighbour has no clamp form (7, 16, 64, N-9, 8c, N-1):
    # its u is u(j*B) and x-only doublings.  The counts spy on _x25519_base, which
    # every exchange calls once.
    wire = (Scalar(0xD1CE) * G).encode()
    expected = affine_mul(k, affine(decode_element(wire)))
    calls = [_count_calls(monkeypatch, name) for name in ("_add_raw", "_madd_raw", "_g_comb")]
    exchanges = _count_calls(monkeypatch, "_x25519_base")
    point = decode_element(wire)
    assert len(exchanges) == 1
    per_product = 2 if k else 0
    assert affine(Scalar(k) * point) == expected
    assert affine(scalar_mult(Scalar(k), point)) == expected
    assert bpv._affine(_column(point, [k])) == [expected]
    assert len(exchanges) == 1 + 3 * per_product
    assert calls == [[], [], []]


def test_g_never_gets_a_ladder(monkeypatch):
    exchanges = _count_calls(monkeypatch, "_x25519_base")
    k = Scalar(0xC0FFEE)
    k * G
    scalar_mult(k, G)
    _column(G, [k.value])
    k * decode_element(G.encode())
    assert exchanges == ["_x25519_base"]  # the decode's subgroup check only


def test_nothing_is_built_at_import_time():
    code = ("import sys, iodcrypt.cli, iodcrypt.group as g; "
            "assert g._G_COMB is None and g._check_key.cache_info().currsize == 0; "
            "assert 'cryptography.hazmat.primitives.asymmetric.x25519' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": str(Path(group.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_comb_product_runs_one_mixed_addition_per_nonzero_digit_after_the_first(monkeypatch):
    rows = group._g_comb()
    madds = _count_calls(monkeypatch, "_madd_raw")
    for k in (*_EDGE_SCALARS, 0xC0FFEE << 200):
        del madds[:]
        assert affine(Scalar(k) * G) == affine_mul(k, affine(G))
        digits = sum(1 for d in group._signed_digits(k) if d)
        assert len(madds) == max(digits - 1, 0)
    assert group._comb_mul(rows, 0) == group._IDENT_COORDS


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=N - 1), max_size=3),
       st.integers(min_value=1, max_value=N - 1))
def test_table_column_matches_affine_oracle(ks, b):
    # Each entry is exactly (y+x, y-x, 2d*x*y) of the affine product, reduced mod P.
    ks = _EDGE_SCALARS + ks
    for base in (G, Scalar(b) * G):
        expected = [affine_mul(k, affine(base)) for k in ks]
        assert _column(base, ks) == [((y + x) % P, (y - x) % P, x * y * group._2D % P)
                                     for x, y in expected]


def test_table_column_counts_one_mult_per_product():
    ctr = OpCounter()
    assert _column(G, [], ctr) == []
    assert (ctr.scalar_mults, ctr.point_adds) == (0, 0)
    out = _column(G, [3, 5, 3], ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (3, 0)
    assert out == addends([Scalar(3) * G, Scalar(5) * G, Scalar(3) * G])


def test_table_column_over_another_base_maps_it_to_montgomery_form_once():
    group._montgomery.cache_clear()
    group._x25519_base.cache_clear()
    ks = [8, 16, *range(3, 40, 5), N - 8]  # with multiples of 8, which recurse
    out = _column(_OTHER_BASE, ks)
    assert bpv._affine(out) == [affine_mul(k, affine(_OTHER_BASE)) for k in ks]
    # One inversion and one X25519 public key for the whole column.
    assert group._montgomery.cache_info().misses == 1
    assert group._x25519_base.cache_info().misses == 1


# --------------------------------------------------------------------------
# Montgomery u: the wire form of points that are only multiplied
# --------------------------------------------------------------------------


def _u_bytes(u):
    return u.to_bytes(32, "little")


# The twist of the curve has order 2(P + 1) - 8N = 4 * N'.
_TWIST_PRIME = (2 * (P + 1) - 8 * N) // 4


def _probably_prime(n):
    # Miller-Rabin to the first twelve prime bases.
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _x_double(u):
    # u(2Q) from u(Q) on the Montgomery curve or its twist.
    a = 486662
    return (u * u - 1) ** 2 * pow(4 * u * (u * u + a * u + 1), -1, P) % P


def _twist_us():
    """The u of a twist point, and of 4 times it, whose order is N'."""
    for u in range(2, 100):
        if points_of_u(u) == []:
            return u, _x_double(_x_double(u))
    raise AssertionError("no twist u found")


def test_check_scalar_is_no_unit_modulo_the_twist_prime():
    # decode_u's argument for twist points: c = 0 (mod 4) clears the twist's
    # 4-torsion, and c != +-1 (mod N') moves every point of order N'.
    assert 2 * (P + 1) - 8 * N == 4 * _TWIST_PRIME
    assert _probably_prime(_TWIST_PRIME)
    c = group._clamp_form(1)
    assert c % 4 == 0 and c % _TWIST_PRIME not in (1, _TWIST_PRIME - 1)


@settings(max_examples=20, deadline=None)
@given(st.lists(points, max_size=5))
def test_montgomery_u_matches_the_oracle(pts):
    pts = pts + [G, -G, IDENTITY, _OTHER_BASE + _OTHER_BASE]
    expected = [0 if p.is_identity() else affine_u(affine(p)) for p in pts]
    assert montgomery_u(pts) == expected
    assert montgomery_u([]) == []


def test_montgomery_u_shares_one_inversion(monkeypatch):
    pts = [Scalar(k) * _OTHER_BASE for k in (2, 3, 5)] + [IDENTITY]
    inversions = []
    monkeypatch.setattr(group, "pow", lambda *args: inversions.append(args) or pow(*args),
                        raising=False)
    montgomery_u(pts)
    assert [args[1:] for args in inversions] == [(-1, P)]


def test_decode_u_accepts_subgroup_points_and_the_base_point():
    assert decode_u(_u_bytes(9)) == 9  # u(G), RFC 7748 section 4.1
    for k in (1, 2, 0xC0FFEE, N - 1):
        u = affine_u(affine_mul(k, affine(_OTHER_BASE)))
        assert decode_u(_u_bytes(u)) == u


@pytest.mark.parametrize("j", range(1, 8))
def test_decode_u_rejects_every_small_order_u(j):
    # u of j*T8 (0 for order 2, 1 for order 4, two values for order 8), and of
    # a subgroup point with j*T8 added.
    torsion = times(j, T8)
    for u in (affine_u(affine(torsion)), affine_u(affine(_OTHER_BASE + torsion))):
        with pytest.raises(MalformedElement):
            decode_u(_u_bytes(u))


def test_decode_u_rejects_non_canonical_u_and_bad_lengths():
    u = affine_u(affine(_OTHER_BASE))
    for bad in (u | 1 << 255, 9 | 1 << 255, 9 + P, P, P + 1, 2**255 - 1, 2**256 - 1):
        with pytest.raises(MalformedElement):
            decode_u(bad.to_bytes(32, "little"))
    for data in (b"", _u_bytes(u)[:31], _u_bytes(u) + b"\x00"):
        with pytest.raises(MalformedElement):
            decode_u(data)


def test_decode_u_rejects_twist_points():
    twist, prime_order = _twist_us()
    assert points_of_u(prime_order) == []
    # P - 1 is the twist's point of order 4 (the curve's are at u = 1).
    for u in (twist, prime_order, _x_double(twist), P - 1):
        with pytest.raises(MalformedElement):
            decode_u(_u_bytes(u))


def test_decode_u_makes_no_call_for_what_it_rejects_on_sight(monkeypatch):
    exchanges = _count_calls(monkeypatch, "_x25519_base")
    for data in (bytes(32), P.to_bytes(32, "little"), (1 << 255 | 9).to_bytes(32, "little")):
        with pytest.raises(MalformedElement):
            decode_u(data)
    assert exchanges == []
    decode_u(_u_bytes(9))
    assert exchanges == ["_x25519_base"]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=N - 1), st.integers(min_value=1, max_value=N - 1))
def test_mul_u_matches_the_affine_oracle(k, b):
    base = affine_mul(b, affine(G))
    u = affine_u(base)
    for scalar in [k, *_EDGE_SCALARS]:
        product = affine_mul(scalar, base)
        expected = 0 if product == (0, 1) else affine_u(product)
        assert mul_u(Scalar(scalar), u) == expected


def test_mul_u_counts_one_product_and_makes_one_x25519_call(monkeypatch):
    u = affine_u(affine(_OTHER_BASE))
    exchanges = _count_calls(monkeypatch, "_x25519_base")
    # 16 and 64 have no clamp form; 8 * (c + 1) has one.
    for k, calls in ((3, 1), (16, 2), (64, 3), (8 * (_C + 1), 4)):
        ctr = OpCounter()
        assert mul_u(Scalar(k), u, ctr) == affine_u(affine_mul(k, affine(_OTHER_BASE)))
        assert (ctr.scalar_mults, ctr.point_adds) == (1, 0)
        assert len(exchanges) == calls


def test_mul_u_keeps_the_key_of_its_last_scalar_and_the_check_its_own():
    group._last_key.cache_clear()
    group._check_key.cache_clear()
    secret = Scalar(0x5EC12E7)
    for k in (0xC0FFEE, 0xBEEF, 0xF00D):
        u = affine_u(affine_mul(k, affine(G)))
        decode_u(_u_bytes(u))
        mul_u(secret, u)
    assert group._last_key.cache_info().misses == 1
    assert group._check_key.cache_info().misses == 1
    assert group._check_key.cache_info().hits == 2


@settings(max_examples=20, deadline=None)
@given(st.lists(points, min_size=1, max_size=6), st.data())
def test_subset_sum_matches_affine_oracle(pts, data):
    pts = pts + [IDENTITY, G, -G, G + G]
    stored = addends(pts)
    indices = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=len(pts)))
    expected = affine(pts[indices[0]])
    for i in indices[1:]:
        expected = affine_add(expected, affine(pts[i]))
    assert affine(subset_sum(stored, indices)) == expected


def test_subset_sum_counts_one_add_fewer_than_indices(monkeypatch):
    # The count is the work: one mixed addition per index after the first.
    stored = addends([Scalar(k) * G for k in (3, 5, 7)])
    madds = _count_calls(monkeypatch, "_madd_raw")
    for indices, adds in (([1], 0), ([0, 2], 1), ([2, 0, 1], 2)):
        ctr = OpCounter()
        del madds[:]
        subset_sum(stored, indices, ctr)
        assert (ctr.scalar_mults, ctr.point_adds) == (0, adds) and len(madds) == adds
    assert subset_sum(stored, [2, 0, 1]) == Scalar(15) * G
    assert affine(subset_sum(stored, [1])) == affine_mul(5, affine(G))


# --------------------------------------------------------------------------
# Group laws
# --------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(points, points, points)
def test_addition_associative_and_commutative(p1, p2, p3):
    assert (p1 + p2) + p3 == p1 + (p2 + p3)
    assert p1 + p2 == p2 + p1


@settings(max_examples=30, deadline=None)
@given(points)
def test_identity_and_inverse(p):
    assert p + IDENTITY == p
    assert (p + (-p)).is_identity()
    assert p - p == IDENTITY


@settings(max_examples=30, deadline=None)
@given(scalars, scalars)
def test_scalar_mult_distributes_over_scalar_addition(a, b):
    assert (a + b) * G == a * G + b * G


@settings(max_examples=20, deadline=None)
@given(scalars, scalars)
def test_scalar_mult_composes(a, b):
    assert a * (b * G) == (a * b) * G


# --------------------------------------------------------------------------
# Scalar ring behaviour
# --------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=N - 1), st.integers(min_value=0, max_value=N - 1))
def test_scalar_arithmetic_mod_order(a, b):
    assert (Scalar(a) + Scalar(b)).value == (a + b) % N
    assert (Scalar(a) - Scalar(b)).value == (a - b) % N
    assert (Scalar(a) * Scalar(b)).value == (a * b) % N
    assert (-Scalar(a)).value == (-a) % N


def test_scalar_encode_decode_round_trip():
    rng = random.Random(101)
    for _ in range(200):
        s = random_scalar(rng)
        assert decode_scalar(s.encode()) == s
        assert len(s.encode()) == 32


def test_scalar_decode_rejects_out_of_range_and_bad_length():
    with pytest.raises(MalformedScalar):
        decode_scalar(N.to_bytes(32, "little"))
    with pytest.raises(MalformedScalar):
        decode_scalar((N + 5).to_bytes(32, "little"))
    with pytest.raises(MalformedScalar):
        decode_scalar(b"\x01" * 31)
    with pytest.raises(MalformedScalar):
        decode_scalar(b"\x01" * 33)
    assert decode_scalar((N - 1).to_bytes(32, "little")).value == N - 1


# --------------------------------------------------------------------------
# Element encoding and validation
# --------------------------------------------------------------------------


def test_element_encode_decode_round_trip():
    rng = random.Random(202)
    for _ in range(50):
        p = random_scalar(rng) * G
        b = p.encode()
        assert len(b) == 32
        assert decode_element(b) == p


def test_decode_rejects_all_ones():
    with pytest.raises(MalformedElement):
        decode_element(b"\xff" * 32)


def test_decode_rejects_bad_length():
    with pytest.raises(MalformedElement):
        decode_element(b"\x00" * 31)
    with pytest.raises(MalformedElement):
        decode_element(b"\x00" * 33)


def test_decode_rejects_non_canonical_y():
    # y = P encodes the same residue as y = 0 but is non-canonical.
    with pytest.raises(MalformedElement):
        decode_element(P.to_bytes(32, "little"))


def test_decode_rejects_points_outside_prime_order_subgroup():
    # (0, -1) satisfies the curve equation but has order 2.
    low_order = (P - 1).to_bytes(32, "little")
    with pytest.raises(MalformedElement):
        decode_element(low_order)
    # Order-4 point: x^2 = 1/-1... use y=0, x = sqrt(-1/d) -- but simpler:
    # the canonical order-8 generator encodings are well known; y must
    # decode then fail the order check.  Identity-with-sign-bit is also
    # invalid: x == 0 cannot carry a negative sign.
    ident_neg = bytearray(IDENTITY.encode())
    ident_neg[31] |= 0x80
    with pytest.raises(MalformedElement):
        decode_element(bytes(ident_neg))


@pytest.mark.parametrize("j", range(1, 8))
def test_decode_rejects_every_torsion_component(j):
    # j * T8 has order 8, 4 or 2; adding it to a subgroup point moves the
    # point out of the prime-order subgroup.
    torsion = times(j, T8)
    assert not torsion.is_identity()
    with pytest.raises(MalformedElement):
        decode_element(torsion.encode())
    for q in (G, -G, _OTHER_BASE, Scalar(N - 2) * G):
        assert decode_element(q.encode()) == q
        with pytest.raises(MalformedElement):
            decode_element((q + torsion).encode())


def test_identity_round_trips():
    assert decode_element(IDENTITY.encode()).is_identity()
    assert IDENTITY.encode() == (1).to_bytes(32, "little")


# --------------------------------------------------------------------------
# Operation counters
# --------------------------------------------------------------------------


def test_counters_count_exactly_what_ran():
    ctr = OpCounter()
    p = scalar_mult(Scalar(7), G, ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (1, 0)
    point_add(p, G, ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (1, 1)
    ctr.reset()
    assert (ctr.scalar_mults, ctr.point_adds) == (0, 0)


def test_add_only_scope_reports_zero_mults():
    ctr = OpCounter()
    acc = G
    for _ in range(9):
        acc = point_add(acc, G, ctr)
    assert ctr.scalar_mults == 0
    assert ctr.point_adds == 9
    assert acc == Scalar(10) * G


def test_operator_arithmetic_is_uncounted():
    ctr = OpCounter()
    _ = Scalar(5) * G + G - G
    assert (ctr.scalar_mults, ctr.point_adds) == (0, 0)


def test_counted_wrappers_default_to_no_counter():
    assert scalar_mult(Scalar(3), G) == Scalar(3) * G
    assert point_add(G, G) == Scalar(2) * G


# --------------------------------------------------------------------------
# Hashing to scalars
# --------------------------------------------------------------------------


def test_hash_to_scalar_deterministic_and_domain_separated():
    a = hash_to_scalar(DOMAIN_KEY, [b"drone-1", b"\x01" * 32])
    assert a == hash_to_scalar(DOMAIN_KEY, [b"drone-1", b"\x01" * 32])
    assert a != hash_to_scalar(DOMAIN_SIG, [b"drone-1", b"\x01" * 32])


def test_hash_to_scalar_resists_boundary_shifting():
    # Without per-part length framing these two calls would collide.
    assert hash_to_scalar(DOMAIN_KEY, [b"ab", b"c"]) != hash_to_scalar(
        DOMAIN_KEY, [b"a", b"bc"]
    )
    assert hash_to_scalar(DOMAIN_KEY, [b"abc"]) != hash_to_scalar(
        DOMAIN_KEY, [b"abc", b""]
    )
    assert hash_to_scalar(DOMAIN_KEY, [b"", b"abc"]) != hash_to_scalar(
        DOMAIN_KEY, [b"abc"]
    )


def test_hash_to_scalar_outputs_reduced():
    rng = random.Random(303)
    seen = set()
    for i in range(10_000):
        s = hash_to_scalar(DOMAIN_SIG, [i.to_bytes(4, "little"), rng.randbytes(8)])
        assert 0 <= s.value < N
        seen.add(s.value)
    assert len(seen) == 10_000


def test_hash_to_scalar_rejects_empty_parts():
    with pytest.raises(ValueError):
        hash_to_scalar(DOMAIN_KEY, [])


# --------------------------------------------------------------------------
# Randomness plumbing
# --------------------------------------------------------------------------


def test_random_scalar_is_seed_deterministic_and_nonzero():
    a = [random_scalar(random.Random(99)) for _ in range(5)]
    b = [random_scalar(random.Random(99)) for _ in range(5)]
    assert a == b
    assert all(not s.is_zero() for s in a)
    assert [random_scalar(random.Random(100)) for _ in range(5)] != a
