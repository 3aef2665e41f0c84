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

from iodcrypt import group
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
    batch_scalar_mult,
    decode_element,
    decode_scalar,
    encode_batch,
    hash_to_scalar,
    point_add,
    random_scalar,
    scalar_mult,
    subset_sum,
)

from curve_oracle import T8, affine, affine_add, affine_mul, times

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


# Digit-boundary scalars for both paths: every nibble 8 (a carry out of
# every comb digit), every nibble 15 (the top window entry), 2 and 8.
_EDGE_SCALARS = [0, 1, 2, 8, 2**252 - 1, int("8" * 63, 16), N - 1]
_OTHER_BASE = Scalar(0x5EED_BA5E) * G


@pytest.mark.parametrize("k", _EDGE_SCALARS)
@pytest.mark.parametrize("base", [G, -G, _OTHER_BASE], ids=["G", "-G", "random"])
def test_product_at_edge_scalars_matches_affine_oracle(base, k):
    assert affine(Scalar(k) * base) == affine_mul(k, affine(base))


def test_g_comb_is_built_once_per_process(monkeypatch):
    built = []
    real = group._comb_table
    monkeypatch.setattr(group, "_G_COMB", None)
    monkeypatch.setattr(group, "_comb_table", lambda coords: built.append(coords) or real(coords))
    k = Scalar(0xABCDEF)
    expected = affine_mul(k.value, affine(G))
    decoded_g = decode_element(G.encode())
    for out in (k * G, k * decoded_g, scalar_mult(k, G), *batch_scalar_mult(G, [k, k])):
        assert affine(out) == expected
    assert built == [G.coords]
    batch_scalar_mult(_OTHER_BASE, [k])
    assert built == [G.coords, _OTHER_BASE.coords]


# --------------------------------------------------------------------------
# The per-element ladder of every other base
# --------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=N - 1), st.integers(min_value=0, max_value=N - 1))
def test_ladder_products_match_affine_oracle(b, k):
    base = Scalar(b) * G
    for scalar in [k, *_EDGE_SCALARS]:
        assert affine(Scalar(scalar) * base) == affine_mul(scalar, affine(base))
    assert base._ladder is not None


@pytest.mark.parametrize("j", range(1, 8))
def test_ladder_product_by_the_order_keeps_the_torsion_part(j):
    # N * (Q + j*T8) = N * j*T8, a point of order 8, 4 or 2: the ladder
    # multiplies by N itself, not by N reduced modulo the order.
    point = _OTHER_BASE + times(j, T8)
    out = GroupElement(group._ladder_mul(point._rows(), N))
    assert affine(out) == affine_mul(N, affine(point))
    assert not out.is_identity()


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(group, name)
    monkeypatch.setattr(group, name, lambda *args: calls.append(name) or real(*args))
    return calls


def test_ladder_is_built_once_per_element(monkeypatch):
    built = _count_calls(monkeypatch, "_ladder_table")
    point = decode_element((Scalar(0xD1CE) * G).encode())
    assert len(built) == 1
    for k in (Scalar(3), Scalar(N - 1)):
        assert affine(scalar_mult(k, point)) == affine_mul(k.value, affine(point))
        assert affine(k * point) == affine_mul(k.value, affine(point))
    assert len(built) == 1


def test_second_product_runs_no_doubling(monkeypatch):
    point = Scalar(0xF00D) * G
    Scalar(5) * point
    built = _count_calls(monkeypatch, "_ladder_table")
    combs = _count_calls(monkeypatch, "_comb_table")
    assert affine(Scalar(N - 2) * point) == affine_mul(N - 2, affine(point))
    assert built == combs == []


def test_g_never_gets_a_ladder():
    k = Scalar(0xC0FFEE)
    k * G
    scalar_mult(k, G)
    batch_scalar_mult(G, [k])
    k * decode_element(G.encode())
    assert G._ladder is None


def test_nothing_is_built_at_import_time():
    code = ("import iodcrypt.cli, iodcrypt.group as g; "
            "assert g._G_COMB is None and g.G._ladder is None and g.IDENTITY._ladder is None")
    env = {**os.environ, "PYTHONPATH": str(Path(group.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=N - 1), max_size=3),
       st.integers(min_value=1, max_value=N - 1))
def test_batch_scalar_mult_matches_affine_oracle(ks, b):
    ks = _EDGE_SCALARS + ks
    for base in (G, Scalar(b) * G):
        out = batch_scalar_mult(base, [Scalar(k) for k in ks])
        assert [point.coords[2] for point in out] == [1] * len(ks)
        assert [affine(point) for point in out] == [affine_mul(k, affine(base)) for k in ks]


def test_batch_scalar_mult_counts_one_mult_per_output():
    ctr = OpCounter()
    assert batch_scalar_mult(G, [], ctr) == []
    assert (ctr.scalar_mults, ctr.point_adds) == (0, 0)
    out = batch_scalar_mult(G, [Scalar(3), Scalar(5), Scalar(3)], ctr)
    assert (ctr.scalar_mults, ctr.point_adds) == (3, 0)
    assert out == [Scalar(3) * G, Scalar(5) * G, Scalar(3) * G]


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


def test_subset_sum_counts_one_add_fewer_than_indices():
    stored = addends([Scalar(k) * G for k in (3, 5, 7)])
    for indices, adds in (([1], 0), ([0, 2], 1), ([2, 0, 1], 2)):
        ctr = OpCounter()
        subset_sum(stored, indices, ctr)
        assert (ctr.scalar_mults, ctr.point_adds) == (0, adds)
    assert subset_sum(stored, [2, 0, 1]) == Scalar(15) * G


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
