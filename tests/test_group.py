"""Group backend tests: laws, encodings, counters, and hashing.

The reference oracle here is an independent affine-coordinate
implementation of twisted Edwards arithmetic (plain modular inverses,
no projective coordinates, no windowing), so agreement is meaningful.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from iodcrypt.errors import MalformedElement, MalformedScalar
from iodcrypt.group import (
    DESCRIPTOR,
    DOMAIN_KEY,
    DOMAIN_SIG,
    G,
    GROUP_ID,
    IDENTITY,
    N,
    P,
    OpCounter,
    Scalar,
    batch_scalar_mult,
    decode_element,
    decode_scalar,
    encode_batch,
    encode_element,
    hash_to_scalar,
    point_add,
    random_scalar,
    scalar_mult,
)

# --------------------------------------------------------------------------
# Affine reference implementation (oracle)
# --------------------------------------------------------------------------

_A = -1
_D = (-121665 * pow(121666, -1, P)) % P


def _affine(point):
    x, y, z, _t = point.coords
    zinv = pow(z, -1, P)
    return (x * zinv) % P, (y * zinv) % P


def _affine_add(p1, p2):
    x1, y1 = p1
    x2, y2 = p2
    dxy = (_D * x1 * x2 * y1 * y2) % P
    x3 = (x1 * y2 + y1 * x2) * pow(1 + dxy, -1, P)
    y3 = (y1 * y2 - _A * x1 * x2) * pow(1 - dxy, -1, P)
    return x3 % P, y3 % P


def _affine_mul(k, p):
    acc = (0, 1)
    addend = p
    while k:
        if k & 1:
            acc = _affine_add(acc, addend)
        addend = _affine_add(addend, addend)
        k >>= 1
    return acc


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
    assert DESCRIPTOR.group_id == GROUP_ID == 0x01
    assert DESCRIPTOR.order == N
    assert DESCRIPTOR.element_len == 32
    assert DESCRIPTOR.scalar_len == 32
    assert DESCRIPTOR.generator == G


def test_order_minus_one_times_base_is_negation():
    assert Scalar(N - 1) * G == -G


def test_base_plus_base_matches_doubling_by_scalar():
    assert G + G == Scalar(2) * G


# --------------------------------------------------------------------------
# Agreement with the affine oracle
# --------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=N - 1))
def test_scalar_mult_matches_affine_oracle(k):
    assert _affine(Scalar(k) * G) == _affine_mul(k, _affine(G))


@settings(max_examples=50, deadline=None)
@given(points, points)
def test_addition_matches_affine_oracle(p1, p2):
    assert _affine(p1 + p2) == _affine_add(_affine(p1), _affine(p2))


# Digit-boundary scalars for the signed radix-16 comb: every nibble 8
# (a carry out of every digit) and every nibble 15.
_COMB_EDGES = [0, 1, 8, 2**252 - 1, int("8" * 63, 16), N - 1]


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=N - 1), max_size=3),
       st.integers(min_value=1, max_value=N - 1))
def test_batch_scalar_mult_matches_affine_oracle(ks, b):
    ks = _COMB_EDGES + ks
    for base in (G, Scalar(b) * G):
        out = batch_scalar_mult(base, [Scalar(k) for k in ks])
        assert [point.coords[2] for point in out] == [1] * len(ks)
        assert [_affine(point) for point in out] == [_affine_mul(k, _affine(base)) for k in ks]


def test_batch_scalar_mult_counts_one_mult_per_output():
    ctr = OpCounter()
    assert batch_scalar_mult(G, [], ctr) == []
    assert (ctr.scalar_mults, ctr.point_adds) == (0, 0)
    out = batch_scalar_mult(G, [Scalar(3), Scalar(5), Scalar(3)], ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (3, 0)
    assert out == [Scalar(3) * G, Scalar(5) * G, Scalar(3) * G]


@settings(max_examples=20, deadline=None)
@given(st.lists(points, max_size=6))
def test_encode_batch_matches_pointwise_encode(pts):
    pts = pts + [IDENTITY, -G, G + G]
    assert encode_batch(pts) == [point.encode() for point in pts]
    assert encode_batch([]) == []


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
        b = encode_element(p)
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
