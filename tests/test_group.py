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
from hypothesis import example, given, settings, strategies as st

from iodcrypt import bpv, group
from iodcrypt.bpv import BpvParams, dbpv_offline, deserialize_table, serialize_table, verify_table
from iodcrypt.encrypt import decrypt, enc_kg_sender, encrypt, reference_encrypt
from iodcrypt.errors import InvalidDesignatedPoint, MalformedElement, MalformedScalar
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
    comb_mult,
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
from iodcrypt.selfcert import (IdentityRecord, aq_hang_finalize, aq_hang_initiate, aq_kg, key_ver,
                               kgc_setup, reconstruct_pub)
from iodcrypt.sign import (Signature, SignerContext, VerifierContext, reference_sign,
                           reference_verify, sign, verify)

from curve_oracle import (AFFINE_IDENTITY, T8, affine, affine_add, affine_mul, affine_u,
                          oracle_decode, points_of_u, times)

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


def test_curve_constants_are_derived_from_their_definitions():
    d = -121665 * pow(121666, -1, P) % P
    assert group._D == d
    assert group._2D == 2 * d % P
    assert group._INV_D == pow(d, -1, P) and group._INV_D * d % P == 1
    assert group._SQRT_M1 == pow(2, (P - 1) // 4, P)
    assert group._SQRT_M1**2 % P == P - 1


def test_inverse_of_eight_is_derived_modulo_the_order():
    assert group._INV_8 == pow(8, -1, N) and 8 * group._INV_8 % N == 1


def test_base_point_lifts_from_y_four_fifths_with_even_x_and_has_order_n():
    y = 4 * pow(5, -1, P) % P
    x = group._GX
    point, u = group._lift(y.to_bytes(ELEMENT_LEN, "little"))
    assert point.coords == G.coords == (x, y, 1, x * y % P)
    assert u == 9  # the check's u: u(G), RFC 7748 section 4.1
    assert x % 2 == 0 and group._GY == y
    d = -121665 * pow(121666, -1, P) % P
    assert (y * y - x * x - 1 - d * x * x * y * y) % P == 0
    assert affine_mul(N, (x, y)) == AFFINE_IDENTITY and (x, y) != AFFINE_IDENTITY


def test_digest_is_hashlibs_byte_for_byte():
    import hashlib

    rng = random.Random(57)
    for n in (0, 1, 55, 64, 111, 128, 2048):
        data = rng.randbytes(n)
        assert group.digest(data) == hashlib.sha256(data).digest()
        assert group.digest(data, group.SHA512) == hashlib.sha512(data).digest()
    parts = [rng.randbytes(300), G.encode()]
    framed = b"".join(len(part).to_bytes(4, "little") + part for part in parts)
    expected = hashlib.sha512(bytes([DOMAIN_SIG]) + framed).digest()
    assert hash_to_scalar(DOMAIN_SIG, parts) == Scalar(int.from_bytes(expected, "little"))


def test_order_minus_one_times_base_is_negation():
    x, y = affine(G)
    assert affine(Scalar(N - 1) * G) == (-x % P, y)


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


# Recoding edges for the comb of G: 1 (every tooth -1 but the top one), the even
# k (2, N - 1, ...) that it takes as k + N, 2^224 and 2^224 - 1 (the seven low
# 32-bit chunks all zero bits or all one bits), 2^224 + 1 at the top tooth, every
# chunk 1, every bit 1 and every nibble 8.  For X25519, whose clamp forms miss
# exactly the k = 8j with |j| <= c: those multiples of 8 on both sides of the
# bound and their neighbours.
_C = N - 2**252
_EDGE_SCALARS = [0, 1, 2, 7, 8, 16, 2**224, 2**224 - 1, 2**224 + 1,
                 sum(1 << 32 * j for j in range(8)), 2**252 - 1, int("8" * 63, 16), N - 9,
                 N - 8, N - 1, 8 * _C, 8 * (_C + 1), N - 8 * _C, N - 8 * (_C + 1)]
_OTHER_BASE = Scalar(0x5EED_BA5E) * G
_MINUS_G = Scalar(N - 1) * G  # -G, by test_order_minus_one_times_base_is_negation


@pytest.mark.parametrize("k", _EDGE_SCALARS)
@pytest.mark.parametrize("base", [G, _MINUS_G, _OTHER_BASE], ids=["G", "-G", "random"])
def test_product_at_edge_scalars_matches_affine_oracle(base, k):
    assert affine(Scalar(k) * base) == affine_mul(k, affine(base))


def test_g_comb_is_built_once_per_process(monkeypatch):
    # The comb takes no base, so each call of _g_comb that finds none yet is
    # a build of G's.  Only comb_mult, the textbook baselines' entry, reaches it:
    # a designated table over X, built, loaded from the open format and
    # verified, never does.  test_g_never_gets_a_ladder covers every other product of G.
    found_empty = []
    real = group._g_comb
    monkeypatch.setattr(group, "_G_COMB", None)
    monkeypatch.setattr(group, "_g_comb", lambda: found_empty.append(group._G_COMB is None) or real())
    params = BpvParams(v=2, k=4, allow_unsafe=True)
    table = dbpv_offline(params, decode_element(_OTHER_BASE.encode()), bytes(32), random.Random(7))
    verify_table(deserialize_table(serialize_table(table)))
    k = Scalar(0xABCDEF)
    for _ in range(3):
        assert affine(comb_mult(k)) == affine_mul(k.v, affine(G))
    assert found_empty == [True, False, False]


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
    assert group._G_FORM == (9, v, None)  # the form table columns take for G


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
    x, y = affine(_OTHER_BASE)
    assert affine_mul(c, affine(point)) in ((x, y), (-x % P, y))
    u_point, u_base = group._montgomery(point.coords)[0], group._montgomery(_OTHER_BASE.coords)[0]
    assert _exchange(c, u_point) == u_base != u_point


def _column(base, ks):
    # The stored column of ``base`` over ``ks``, as a table builds, loads and checks it.
    return group.table_columns((base,), [Scalar(k) for k in ks])[0]


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(group, name)
    monkeypatch.setattr(group, name, lambda *args: calls.append(name) or real(*args))
    return calls


def _count_entries(monkeypatch):
    # The entries each _madd_chain call adds, one mixed addition each.
    counts = []
    real = group._madd_chain
    monkeypatch.setattr(group, "_madd_chain",
                        lambda acc, entries: counts.append(len(entries)) or real(acc, entries))
    return counts


@pytest.mark.parametrize("k", [3, 64, *_EDGE_SCALARS])
def test_second_product_runs_no_doubling(monkeypatch, k):
    # A decode is one X25519 exchange and a product of k > 0 two, by the operator,
    # counted or in a table column, with no addition in Python and no comb.  That
    # holds where k or its neighbour has no clamp form (7, 16, 64, N-9, 8c, N-1):
    # its u is u(j*B) and x-only doublings.  The counts spy on _ladder_u, which
    # makes one exchange a call; the point maps to Montgomery form on its first
    # product only.
    wire = (Scalar(0xD1CE) * G).encode()
    expected = affine_mul(k, affine(decode_element(wire)))
    calls = [_count_calls(monkeypatch, name) for name in ("_add_raw", "_madd_chain", "_g_comb")]
    exchanges = _count_calls(monkeypatch, "_ladder_u")
    conversions = _count_calls(monkeypatch, "_montgomery")
    point = decode_element(wire)
    assert len(exchanges) == 1
    per_product = 2 if k else 0
    assert affine(Scalar(k) * point) == expected
    assert affine(scalar_mult(Scalar(k), point)) == expected
    assert group._affine(_column(point, [k])) == [expected]
    assert len(exchanges) == 1 + 3 * per_product
    assert len(conversions) == (1 if k else 0)
    assert calls == [[], [], []]


class _SpyKey:
    """An X25519 private key that logs its load and each use."""

    def __init__(self, key, log):
        self._key, self._log = key, log
        log.append("load")

    def exchange(self, public):
        self._log.append("exchange")
        return self._key.exchange(public)

    def public_key(self):
        self._log.append("public")
        return self._key.public_key()


def _key_uses(monkeypatch):
    # What the keys that _ladder_u loads itself are asked (the cached keys of the
    # subgroup check and of mul_u are not seen).
    log = []
    real = group._private_key
    monkeypatch.setattr(group, "_private_key", lambda s: _SpyKey(real(s), log))
    return log


def test_g_never_gets_a_ladder(monkeypatch):
    # Every product of G, by the operator, counted, of a decoded G or in a table
    # column, takes u(k*G) and u((k+1)*G) from two keys' own public keys: no
    # exchange, no comb, and G's (u, v) is written out.
    key_loads = _count_calls(monkeypatch, "_ladder_u")
    conversions = _count_calls(monkeypatch, "_montgomery")
    combs = _count_calls(monkeypatch, "_g_comb")
    k = Scalar(0xC0FFEE)
    decoded = decode_element(G.encode())
    assert key_loads == ["_ladder_u"]  # the decode's subgroup check
    uses = _key_uses(monkeypatch)
    expected = affine_mul(k.v, affine(G))
    for product in (lambda: k * G, lambda: scalar_mult(k, G), lambda: k * decoded):
        del uses[:]
        assert affine(product()) == expected
        assert uses == ["load", "public"] * 2
    del uses[:]
    _column(G, [k.v])
    assert uses == ["load", "public"] * 2
    assert conversions == [] and combs == [] and G._ladder is None and decoded._ladder is None


def test_nothing_is_built_at_import_time():
    code = ("import sys, iodcrypt.cli, iodcrypt.group as g; "
            "assert g._G_COMB is None and g._check_key.cache_info().currsize == 0; "
            "assert not {'cryptography.hazmat.primitives.asymmetric.x25519', "
            "'cryptography.hazmat.primitives.ciphers'} & set(sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(group.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_every_comb_product_runs_7_doublings_and_31_mixed_additions(monkeypatch):
    # 0 too, which the comb takes as the odd N: N * G is the identity.  One chain per
    # round: 3 entries after the first round's first, then 4 after each doubling.
    group._g_comb()
    adds, madds = _count_calls(monkeypatch, "_add_raw"), _count_entries(monkeypatch)
    for k in (*_EDGE_SCALARS, 0xC0FFEE << 200):
        del adds[:], madds[:]
        assert affine(comb_mult(Scalar(k))) == affine_mul(k, affine(G))
        assert (len(adds), sum(madds)) == (7, 31) and madds == [3] + [4] * 7
    assert affine(comb_mult(Scalar(0))) == AFFINE_IDENTITY


def test_every_comb_entry_matches_affine_oracle():
    # Entry p of table t is 2^(8t) * (2^224 + sum(+-2^(32j) for j < 7)) * G, with + where
    # bit j of p is set: the sum, on the oracle, of the teeth 2^(8t + 32j) * G or their
    # negations.
    tables = group._g_comb()
    assert [len(table) for table in tables] == [128] * 4
    for t, table in enumerate(tables):
        teeth = [affine_mul(2 ** (8 * t + 32 * j), affine(G)) for j in range(8)]
        for p, entry in enumerate(table):
            x, y = teeth[7]
            for j, (xj, yj) in enumerate(teeth[:7]):
                x, y = affine_add((x, y), (xj if p >> j & 1 else P - xj, yj))
            assert entry == ((y + x) % P, (y - x) % P, x * y * group._2D % P)


def test_only_the_textbook_baselines_reach_the_comb(monkeypatch):
    # The comb is the baselines' engine alone: every protocol step, issuance and
    # key_ver take their products of G on X25519.  Each baseline makes one comb call.
    calls = [_count_calls(monkeypatch, name) for name in ("_g_comb", "_comb_mul")]
    rng = random.Random(0xC0B)
    params = BpvParams(v=2, k=4, allow_unsafe=True)
    kgc = kgc_setup(rng)
    alice, bob = aq_kg(kgc, b"alice", rng), aq_kg(kgc, b"bob", rng)
    assert key_ver(alice.record, alice.secret, kgc.public)
    signer = SignerContext(alice, bpv.bpv_offline(params, rng))
    vctx = VerifierContext.build(alice.record, kgc.public)
    sig = sign(signer, b"frame", rng)
    assert verify(vctx, b"frame", sig)
    sender = enc_kg_sender(bob.record, kgc.public, params, rng)
    assert decrypt(bob, encrypt(sender, b"frame", rng)) == b"frame"
    state = aq_hang_initiate(alice, rng)
    aq_hang_finalize(alice, state, aq_hang_initiate(bob, rng).message)
    assert calls == [[], []]
    public, recipient_key = alice.secret * G, reconstruct_pub(bob.record, kgc.public)
    for baseline in (lambda: reference_sign(alice.secret, b"frame", rng),
                     lambda: reference_verify(public, b"frame", sig),
                     lambda: reference_encrypt(recipient_key, b"frame", rng)):
        assert baseline()
        assert calls == [["_g_comb"], ["_comb_mul"]]
        for spied in calls:
            del spied[:]


@pytest.mark.parametrize("s", _EDGE_SCALARS)
def test_both_engines_of_g_agree_at_edge_scalars(s):
    # s * G on X25519, on the comb and on the oracle; then verify (X25519) and
    # reference_verify (the comb) on (s, e).  For r*G = R, e = H(m, R) and
    # x = (r - s)/e, (s, e) signs m under x * G, which the record (id, G) with
    # D = (x - H(id, G)) * G reconstructs; a seeded random e signs nothing.
    assert affine(Scalar(s) * G) == affine(comb_mult(Scalar(s))) == affine_mul(s, affine(G))
    rng = random.Random(s)
    r = random_scalar(rng)
    rx, ry = affine_mul(r.v, affine(G))
    e = hash_to_scalar(DOMAIN_SIG, [b"frame", (ry | (rx & 1) << 255).to_bytes(32, "little")])
    x = (r - Scalar(s)) * Scalar(pow(e.v, -1, N))
    record = IdentityRecord(b"edge", G)
    vctx = VerifierContext.build(record, (x - record.key_hash()) * G)
    public = x * G
    assert affine(vctx.cached_key) == affine(public)
    for sig, verdict in ((Signature(Scalar(s), e), True), (Signature(Scalar(s), random_scalar(rng)), False)):
        assert verify(vctx, b"frame", sig) == reference_verify(public, b"frame", sig) == verdict


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


def test_table_columns_load_two_keys_per_nonzero_scalar(monkeypatch):
    # One pair of keys per scalar serves every base: a (G,) column reads each key's
    # public key, and X adds one exchange per key.  0 loads none; 8, 16, 64 and the
    # neighbour of 7 have no clamp form and take x-only doublings of each u.
    base = decode_element(_OTHER_BASE.encode())
    ks = [0, 3, 7, 8, 16, 64, N - 1]
    scalars = [Scalar(k) for k in ks]
    uses = _key_uses(monkeypatch)
    plain = group.table_columns((G,), scalars)
    assert uses == ["load", "public"] * 2 * (len(ks) - 1)
    del uses[:]
    designated = group.table_columns((G, base), scalars)
    assert uses == ["load", "public", "exchange"] * 2 * (len(ks) - 1)
    assert designated[0] == plain[0]
    assert [group._affine(column) for column in designated] == [
        [affine_mul(k, affine(b)) for k in ks] for b in (G, _OTHER_BASE)]


def test_table_columns_refuse_an_identity_base_before_any_product(monkeypatch):
    # They used to count 4 products and load keys, then meet a bare ValueError in the inversion.
    uses = _key_uses(monkeypatch)
    with OpCounter() as ctr, pytest.raises(InvalidDesignatedPoint):
        group.table_columns((G, IDENTITY), [Scalar(3), Scalar(5)])
    assert (ctr.scalar_mults, ctr.point_adds) == (0, 0)
    assert uses == []


def test_an_open_load_leaves_the_comb_of_g_unbuilt(tmp_path):
    params = BpvParams(v=2, k=4, allow_unsafe=True)
    tables = (bpv.bpv_offline(params, random.Random(8)),
              dbpv_offline(params, _OTHER_BASE, bytes(32), random.Random(9)))
    paths = [tmp_path / f"{i}.tbl" for i in range(2)]
    for path, table in zip(paths, tables):
        path.write_bytes(serialize_table(table))
    code = ("import sys, iodcrypt.group as g, iodcrypt.bpv as b; "
            "[b.verify_table(b.deserialize_table(open(p, 'rb').read())) for p in sys.argv[1:]]; "
            "assert g._G_COMB is None")
    env = {**os.environ, "PYTHONPATH": str(Path(group.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code, *map(str, paths)], check=True, env=env)


def test_table_column_counts_one_mult_per_product():
    with OpCounter() as ctr:
        assert _column(G, []) == []
        assert (ctr.scalar_mults, ctr.point_adds) == (0, 0)
        out = _column(G, [3, 5, 3])
    assert (ctr.scalar_mults, ctr.point_adds) == (3, 0)
    assert out == addends([Scalar(3) * G, Scalar(5) * G, Scalar(3) * G])


def test_table_column_over_another_base_maps_it_to_montgomery_form_once(monkeypatch):
    base = GroupElement(_OTHER_BASE.coords)  # an element no product has touched
    conversions = _count_calls(monkeypatch, "_montgomery")
    public_keys = _count_calls(monkeypatch, "_x25519_base")
    ks = [8, 16, *range(3, 40, 5), N - 8]  # with multiples of 8, which take doublings
    out = _column(base, ks)
    assert group._affine(out) == [affine_mul(k, affine(_OTHER_BASE)) for k in ks]
    # One inversion and one X25519 public key for the whole column, kept on the base
    # for the next.
    assert (len(conversions), len(public_keys)) == (1, 1)
    assert base._ladder[0] == affine_u(affine(_OTHER_BASE))
    assert _column(base, ks) == out
    assert (len(conversions), len(public_keys)) == (1, 1)


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
    pts = pts + [G, _MINUS_G, IDENTITY, _OTHER_BASE + _OTHER_BASE]
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
    exchanges = _count_calls(monkeypatch, "_ladder_u")
    for data in (bytes(32), P.to_bytes(32, "little"), (1 << 255 | 9).to_bytes(32, "little")):
        with pytest.raises(MalformedElement):
            decode_u(data)
    assert exchanges == []
    decode_u(_u_bytes(9))
    assert exchanges == ["_ladder_u"]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=N - 1), st.integers(min_value=1, max_value=N - 1))
def test_mul_u_matches_the_affine_oracle(k, b):
    # For G's u too, which mul_u reads off the key's own public key with no exchange.
    for base in (affine_mul(b, affine(G)), affine(G)):
        u = affine_u(base)
        for scalar in [k, *_EDGE_SCALARS]:
            product = affine_mul(scalar, base)
            expected = 0 if product == (0, 1) else affine_u(product)
            assert mul_u(Scalar(scalar), u) == expected


def test_mul_u_counts_one_product_and_makes_one_x25519_call(monkeypatch):
    u = affine_u(affine(_OTHER_BASE))
    exchanges = _count_calls(monkeypatch, "_ladder_u")
    # 16 and 64 have no clamp form; 8 * (c + 1) has one.
    for k, calls in ((3, 1), (16, 2), (64, 3), (8 * (_C + 1), 4)):
        with OpCounter() as ctr:
            assert mul_u(Scalar(k), u) == affine_u(affine_mul(k, affine(_OTHER_BASE)))
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
    pts = pts + [IDENTITY, G, _MINUS_G, G + G]
    stored = addends(pts)
    indices = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=len(pts)))
    expected = affine(pts[indices[0]])
    for i in indices[1:]:
        expected = affine_add(expected, affine(pts[i]))
    assert affine(subset_sum(stored, indices)) == expected


def test_subset_sum_counts_one_add_fewer_than_indices(monkeypatch):
    # The count is the work: one mixed addition per index after the first, all in one chain.
    stored = addends([Scalar(k) * G for k in (3, 5, 7)])
    madds = _count_entries(monkeypatch)
    for indices, adds in (([1], 0), ([0, 2], 1), ([2, 0, 1], 2)):
        del madds[:]
        with OpCounter() as ctr:
            subset_sum(stored, indices)
        assert (ctr.scalar_mults, ctr.point_adds) == (0, adds) and madds == [adds]
    assert subset_sum(stored, [2, 0, 1]) == Scalar(15) * G
    assert affine(subset_sum(stored, [1])) == affine_mul(5, affine(G))


def test_subset_sum_refuses_an_empty_index_list_before_counting():
    # Its count, one addition fewer than indices, has no meaning for none, so none is refused.
    stored = addends([Scalar(3) * G])
    with OpCounter() as ctr:
        with pytest.raises(ValueError, match="at least one index"):
            subset_sum(stored, [])
    assert (ctr.scalar_mults, ctr.point_adds) == (0, 0)


# The mixed addition reduces lazily: it takes and returns coordinates in the band
# (-2^22, 2^255 + 2^22), congruent mod P to those of the formula reduced % P at
# every product, and the chains that call it reduce once at their end.
_LOW_EDGE, _HIGH_EDGE = -(2**22), 2**255 + 2**22
band = st.one_of(
    st.integers(min_value=_LOW_EDGE + 1, max_value=_HIGH_EDGE - 1),
    st.integers(min_value=_LOW_EDGE + 1, max_value=2**22),  # negative and small
    st.integers(min_value=P - 2**22, max_value=_HIGH_EDGE - 1),  # P and above
    st.sampled_from([_LOW_EDGE + 1, _HIGH_EDGE - 1]),
)
field = st.integers(min_value=0, max_value=P - 1)
# The comb's negated entries have a negative third coordinate.
cached_entries = st.tuples(field, field, st.integers(min_value=-P + 1, max_value=P - 1))


def _in_band(coords):
    return all(_LOW_EDGE < v < _HIGH_EDGE for v in coords)


def _madd_exact(p1, cached):
    # The mixed addition with every product reduced % P.
    x1, y1, z1, t1 = p1
    yp, ym, t2d = cached
    a = (y1 - x1) * ym % P
    b = (y1 + x1) * yp % P
    c = t1 * t2d % P
    d = 2 * z1
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _mod_p(coords):
    return tuple(v % P for v in coords)


@settings(max_examples=300, deadline=None)
@given(st.tuples(band, band, band, band), cached_entries)
def test_mixed_addition_stays_in_the_band_and_congruent_mod_p(p1, cached):
    out = group._madd_chain(p1, [cached])
    assert _in_band(out)
    assert _mod_p(out) == _madd_exact(_mod_p(p1), cached)


@settings(max_examples=10, deadline=None)
@given(st.tuples(band, band, band, band), st.randoms(use_true_random=False))
def test_a_chain_of_200_mixed_additions_stays_in_the_band(p1, rng):
    # Step by step, and then as one chain over all 200 entries, which must agree.
    acc, exact, entries = p1, _mod_p(p1), []
    for _ in range(200):
        entries.append((rng.randrange(P), rng.randrange(P), rng.randrange(-P + 1, P)))
        acc, exact = group._madd_chain(acc, entries[-1:]), _madd_exact(exact, entries[-1])
        assert _in_band(acc) and _mod_p(acc) == exact
    assert group._madd_chain(p1, entries) == acc


def _canonical(coords):
    return all(0 <= v < P for v in coords)


@settings(max_examples=20, deadline=None)
@given(st.lists(scalars, min_size=1, max_size=30), st.data())
def test_sums_and_products_of_g_leave_the_raw_layer_reduced(ks, data):
    stored = addends([k * G for k in ks])
    indices = data.draw(st.lists(st.integers(0, len(ks) - 1), min_size=1, max_size=30))
    point = subset_sum(stored, indices)  # GroupElement(_sum_cached(...))
    assert _canonical(point.coords)
    assert point == Scalar(sum(ks[i].v for i in indices)) * G
    assert all(_canonical((k * G).coords) for k in ks)


def test_chains_reduce_what_the_mixed_addition_leaves_unreduced(monkeypatch):
    # An output of _madd_chain lies outside [0, P) less often than once in 2^230 steps,
    # too rarely to draw; a _madd_chain that returns every coordinate minus P stands in.
    stored = addends([Scalar(k) * G for k in range(1, 29)])
    k = 0xC0FFEE << 200
    expected = group._sum_cached(stored), group._comb_mul(k)
    real = group._madd_chain
    monkeypatch.setattr(group, "_madd_chain",
                        lambda acc, entries: tuple(v - P for v in real(acc, entries)))
    assert (group._sum_cached(stored), group._comb_mul(k)) == expected
    assert all(_canonical(coords) for coords in expected)


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
    x, y = affine(p)
    minus_p = Scalar(N - 1) * p
    assert affine(minus_p) == (-x % P, y)
    assert (p + minus_p).is_identity()
    assert p + minus_p == IDENTITY


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
    assert (Scalar(a) + Scalar(b)).v == (a + b) % N
    assert (Scalar(a) - Scalar(b)).v == (a - b) % N
    assert (Scalar(a) * Scalar(b)).v == (a * b) % N
    assert Scalar(-a).v == (-a) % N


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
    assert decode_scalar((N - 1).to_bytes(32, "little")).v == N - 1


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
    for q in (G, _MINUS_G, _OTHER_BASE, Scalar(N - 2) * G):
        assert decode_element(q.encode()) == q
        with pytest.raises(MalformedElement):
            decode_element((q + torsion).encode())


def test_identity_round_trips():
    assert decode_element(IDENTITY.encode()).is_identity()
    assert IDENTITY.encode() == (1).to_bytes(32, "little")


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=P - 1))
@example(0)
@example(1)
@example(2)
@example(P - 2)
@example(P - 1)
def test_square_root_chain_is_pow(z):
    assert group._pow_p58(z) == pow(z, (P - 5) // 8, P)


def _decode_outcome(decode, data):
    # The point's coordinates, or the error's class and message.
    try:
        return decode(data).coords
    except MalformedElement as exc:
        return type(exc), str(exc)


def _matches_oracle(data):
    return _decode_outcome(decode_element, data) == _decode_outcome(oracle_decode, data)


def _with_sign(y, sign):
    return (y | sign << 255).to_bytes(ELEMENT_LEN, "little")


def _root_class(data):
    # a^((P-1)/4) by pow for _lift's a = num*den*w^4, which _lift reads as a*t^2: 1 or 0
    # takes x as it comes, -1 the sqrt(-1) branch, and anything else is no square.
    y = int.from_bytes(data, "little") % 2**255
    a = (y * y - 1) * (group._D * y * y + 1) * (1 - y) ** 4 % P
    return pow(a, (P - 1) // 4, P)


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=ELEMENT_LEN, max_size=ELEMENT_LEN))
def test_decode_matches_the_pow_oracle_on_random_bytes(data):
    assert _matches_oracle(data)


@settings(max_examples=50, deadline=None)
@given(nonzero_scalars)
def test_decode_matches_the_pow_oracle_on_encodings_and_their_sign_flips(k):
    data = (k * G).encode()
    flipped = (int.from_bytes(data, "little") ^ 1 << 255).to_bytes(ELEMENT_LEN, "little")
    assert _matches_oracle(data) and _matches_oracle(flipped)
    assert decode_element(data) == k * G


def test_decode_matches_the_pow_oracle_at_the_edges():
    edges = [_with_sign(y, sign) for y in (0, 1, 2, P - 2, P - 1) for sign in (0, 1)]
    non_canonical = [_with_sign(y, sign) for y in (P, P + 1, P + 7, 2**255 - 1) for sign in (0, 1)]
    torsion = [(q + times(j, T8)).encode() for q in (G, _OTHER_BASE) for j in range(8)]
    lengths = [b"", bytes(31), bytes(33)]
    for data in edges + non_canonical + torsion + lengths:
        assert _matches_oracle(data), data.hex()


def test_decode_reaches_the_sqrt_m1_branch_and_the_non_square_branch():
    # Scanned from fixed starts: a subgroup point whose candidate x needs the factor
    # sqrt(-1), and a y that is no curve point.
    sqrt_m1 = next(data for data in ((Scalar(k) * G).encode() for k in range(2, 100))
                   if _root_class(data) == P - 1)
    non_square = next(data for data in (_with_sign(y, 0) for y in range(2, 100))
                      if _root_class(data) not in (0, 1, P - 1))
    assert _matches_oracle(sqrt_m1) and _matches_oracle(non_square)
    assert decode_element(sqrt_m1).encode() == sqrt_m1
    with pytest.raises(MalformedElement, match="not a curve point"):
        decode_element(non_square)


def test_decode_makes_no_pow_call_and_one_x25519_call(monkeypatch):
    # Neither the square root nor the check's u takes pow: no exponentiation by it and no
    # inversion.  The check is the one X25519 call.
    calls = []
    monkeypatch.setattr(group, "pow", lambda *args: calls.append(args) or pow(*args),
                        raising=False)
    exchanges = _count_calls(monkeypatch, "_ladder_u")
    for k in (3, 0xD1CE, N - 1):
        expected = Scalar(k) * _OTHER_BASE
        wire = expected.encode()
        del calls[:], exchanges[:]
        point = decode_element(wire)
        assert (calls, len(exchanges)) == ([], 1)
        assert point == expected


def test_the_binding_gives_the_public_wrappers_objects_and_bytes():
    # group takes X25519 keys and the AEAD from the binding under cryptography's public
    # wrappers: the same classes, and the same public keys and exchanges.
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

    assert group.ChaCha20Poly1305 is ChaCha20Poly1305
    rng = random.Random(38)
    for _ in range(4):
        s, t = rng.randrange(2**256), rng.randrange(2**256)
        public = X25519PrivateKey.from_private_bytes(t.to_bytes(32, "little")).public_key()
        key, base = group._private_key(s), group._x25519_base(_le(public.public_bytes_raw().hex()))
        assert isinstance(key, X25519PrivateKey) and isinstance(base, X25519PublicKey)
        theirs = X25519PrivateKey.from_private_bytes(s.to_bytes(32, "little"))
        assert key.public_key().public_bytes_raw() == theirs.public_key().public_bytes_raw()
        assert key.exchange(base) == theirs.exchange(public)


@pytest.mark.parametrize("constructor", ["from_private_bytes", "from_public_bytes"])
def test_a_key_the_binding_cannot_build_is_not_a_malformed_element(monkeypatch, constructor):
    # As under FIPS mode, where the public wrappers raised UnsupportedAlgorithm: the
    # subgroup check must not report the failure as a point outside the subgroup.
    def refuse(data):
        raise ValueError("no X25519 here")

    monkeypatch.setattr(group._openssl.x25519, constructor, refuse)
    for cache in (group._check_key, group._x25519_base):
        cache.cache_clear()
    for decode, wire in ((decode_u, _u_bytes(9)), (decode_element, G.encode())):
        with pytest.raises(ValueError, match="no X25519 here"):
            decode(wire)


# --------------------------------------------------------------------------
# Operation counters
# --------------------------------------------------------------------------


def test_counters_count_exactly_what_ran():
    with OpCounter() as ctr:
        p = scalar_mult(Scalar(7), G)
        assert (ctr.scalar_mults, ctr.point_adds) == (1, 0)
        point_add(p, G)
        assert (ctr.scalar_mults, ctr.point_adds) == (1, 1)


def test_add_only_scope_reports_zero_mults():
    acc = G
    with OpCounter() as ctr:
        for _ in range(9):
            acc = point_add(acc, G)
    assert ctr.scalar_mults == 0
    assert ctr.point_adds == 9
    assert acc == Scalar(10) * G


def test_operator_arithmetic_is_uncounted():
    with OpCounter() as ctr:
        _ = Scalar(5) * G + G + G
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
        assert 0 <= s.v < N
        seen.add(s.v)
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
    assert all(s.v != 0 for s in a)
    assert [random_scalar(random.Random(100)) for _ in range(5)] != a
