"""Tests for subset-sum precomputation: correctness, counts, sampling, files."""

import hashlib
import math
import random

import mpmath
import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import given, settings, strategies as st

from iodcrypt import bpv, group
from iodcrypt.bpv import (
    PrecompTable,
    BpvParams,
    SUPPORTED_PARAMS,
    bpv_offline,
    bpv_online,
    dbpv_offline,
    dbpv_online,
    deserialize_table,
    sample_subset,
    serialize_table,
    subset_space_bits,
    verify_table,
)
from iodcrypt.errors import (
    BadMagic,
    IntegrityMismatch,
    InvalidDesignatedPoint,
    InvalidOwnerBinding,
    MalformedElement,
    MalformedScalar,
    TableIntegrity,
    TruncatedFile,
    UnsupportedParams,
    UnsupportedVersion,
)
from iodcrypt.group import G, IDENTITY, N, P, OpCounter, Scalar, random_scalar, subset_sum

from curve_oracle import T8, affine, times

TOY = BpvParams(v=2, k=4, allow_unsafe=True)


def toy_table(seed=1, params=TOY):
    return bpv_offline(params, random.Random(seed))


def toy_designated(seed=2, params=TOY, d=123457):
    point = Scalar(d) * G
    binding = hashlib.sha256(b"receiver-record").digest()
    return dbpv_offline(params, point, binding, random.Random(seed)), Scalar(d), point


def stored_point(table, column, idx):
    """Entry ``idx``'s point over ``bases[column - 1]``, read back from ``stored``."""
    return subset_sum(table.stored[column - 1], [idx])


# --------------------------------------------------------------------------
# Parameter validation
# --------------------------------------------------------------------------


def test_vetted_parameter_sets_accepted_without_override():
    for v, k in SUPPORTED_PARAMS:
        assert BpvParams(v=v, k=k).v == v


def test_unvetted_parameters_rejected():
    with pytest.raises(UnsupportedParams):
        BpvParams(v=5, k=7)
    with pytest.raises(UnsupportedParams):
        BpvParams(v=28, k=255)


def test_unsafe_override_allows_toys_but_not_nonsense():
    assert BpvParams(v=1, k=1, allow_unsafe=True).k == 1
    with pytest.raises(UnsupportedParams):
        BpvParams(v=5, k=4, allow_unsafe=True)
    with pytest.raises(UnsupportedParams):
        BpvParams(v=0, k=4, allow_unsafe=True)


def test_param_equality_ignores_safety_override():
    assert BpvParams(28, 256) == BpvParams(28, 256, allow_unsafe=True)


# --------------------------------------------------------------------------
# Offline table generation
# --------------------------------------------------------------------------


def test_offline_entries_satisfy_their_defining_relation():
    table = toy_table()
    assert len(table.scalars) == TOY.k
    for i, r_i in enumerate(table.scalars):
        assert stored_point(table, 1, i) == r_i * G
        assert r_i.v != 0


def test_offline_costs_k_scalar_mults():
    with OpCounter() as ctr:
        bpv_offline(TOY, random.Random(0))
    assert (ctr.scalar_mults, ctr.point_adds) == (TOY.k, 0)


def test_designated_offline_entries_and_cost():
    table, d, point = toy_designated()
    for i, r_i in enumerate(table.scalars):
        point_g, point_d = stored_point(table, 1, i), stored_point(table, 2, i)
        assert point_g == r_i * G
        assert point_d == r_i * point
        assert point_d == d * point_g
    with OpCounter() as ctr:
        dbpv_offline(TOY, point, b"\x00" * 32, random.Random(3))
    assert (ctr.scalar_mults, ctr.point_adds) == (2 * TOY.k, 0)


def test_designated_offline_rejects_identity_point():
    with pytest.raises(InvalidDesignatedPoint):
        dbpv_offline(TOY, IDENTITY, b"\x00" * 32, random.Random(0))
    table, _, _ = toy_designated()
    with pytest.raises(InvalidDesignatedPoint):
        PrecompTable(TOY, (G, IDENTITY), table.scalars, table.stored, table.owner_binding)


def test_an_identity_point_is_refused_before_any_product():
    # The build and the open load used to compute every column first.
    planted = _plant(toy_designated()[0], IDENTITY.encode())
    for refuse in (lambda: dbpv_offline(TOY, IDENTITY, bytes(32), random.Random(0)),
                   lambda: deserialize_table(planted)):
        with OpCounter() as ctr, pytest.raises(InvalidDesignatedPoint):
            refuse()
        assert (ctr.scalar_mults, ctr.point_adds) == (0, 0)


def test_table_paths_add_nothing_in_python_and_never_reach_the_comb(monkeypatch):
    # Build, open load and verify_table take every column from X25519 keys alone.
    plain, (designated, _, point) = toy_table(), toy_designated()
    files = serialize_table(plain), serialize_table(designated)
    calls = []
    for name in ("_add_raw", "_madd_chain", "_g_comb"):
        real = getattr(group, name)
        monkeypatch.setattr(group, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    bpv_offline(TOY, random.Random(5))
    dbpv_offline(TOY, point, bytes(32), random.Random(6))
    for data in files:
        verify_table(deserialize_table(data))
    assert calls == []


# The file has room for exactly a 32-byte binding after X and none in a
# (G,) table; these bindings used to give hash-valid files that failed to
# load with TruncatedFile (469 bytes where 498 were expected, 338 where 306).
@pytest.mark.parametrize("binding", [b"", b"abc", b"\x00" * 31, b"\x00" * 33])
def test_designated_table_needs_a_32_byte_owner_binding(binding):
    point = Scalar(123457) * G
    with pytest.raises(InvalidOwnerBinding):
        dbpv_offline(TOY, point, binding, random.Random(0))
    table, _, _ = toy_designated()
    with pytest.raises(InvalidOwnerBinding):
        PrecompTable(TOY, table.bases, table.scalars, table.stored, binding)


def test_signing_table_takes_no_owner_binding():
    table = toy_table()
    with pytest.raises(InvalidOwnerBinding):
        PrecompTable(TOY, table.bases, table.scalars, table.stored, b"\x11" * 32)
    assert PrecompTable(TOY, table.bases, table.scalars, table.stored) == table


# More entries than k made bpv_online raise IndexError; fewer gave a file
# that failed to load with TruncatedFile.  The points are checked too: a
# column one entry short, or a base with no column at all.
@pytest.mark.parametrize("k,columns", [
    (1, lambda stored: stored),
    (16, lambda stored: stored),
    (TOY.k, lambda stored: [stored[0], stored[1][:-1]]),
    (TOY.k, lambda stored: stored[:1]),
], ids=["1", "16", "short-column", "missing-column"])
def test_table_needs_exactly_k_entries(k, columns):
    table, _, _ = toy_designated()
    with pytest.raises(TableIntegrity):
        PrecompTable(BpvParams(v=1, k=k, allow_unsafe=True), table.bases, table.scalars,
                     columns(table.stored), table.owner_binding)


# A table over (X,) used to save as kind 0 and load back over G, another table with no
# error; one over (G, X, X) saved as kind 0x2, which neither reader accepts.  The bases
# are refused before the identity and the owner binding are looked at.
@pytest.mark.parametrize("bases,binding", [
    (lambda x: (x,), b""),
    (lambda x: (IDENTITY,), b""),
    (lambda x: (G, x, x), bytes(64)),
    (lambda x: (G, IDENTITY, x), b""),
    (lambda x: (), b""),
], ids=["X", "identity", "G-X-X", "G-identity-X", "none"])
def test_a_table_is_over_g_or_over_g_and_one_point(bases, binding):
    table, _, point = toy_designated()
    bases = bases(point)
    with pytest.raises(UnsupportedParams, match=r"\(G,\) or \(G, X\)"):
        PrecompTable(TOY, bases, table.scalars, table.stored[1:] * len(bases), binding)


def test_entry_bytes_accounting():
    assert toy_table().entry_bytes == TOY.k * 64
    table, _, _ = toy_designated()
    assert table.entry_bytes == TOY.k * 96
    full = bpv_offline(BpvParams(28, 256), random.Random(4))
    assert full.entry_bytes == 16384


# --------------------------------------------------------------------------
# Online phase
# --------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_online_output_is_consistent_pair(seed):
    table = toy_table()
    r, point = bpv_online(table, random.Random(seed))
    assert point == r * G


def test_online_uses_only_subset_additions():
    params = BpvParams(v=5, k=12, allow_unsafe=True)
    table = bpv_offline(params, random.Random(5))
    with OpCounter() as ctr:
        bpv_online(table, random.Random(6))
    assert (ctr.scalar_mults, ctr.point_adds) == (0, params.v - 1)


def test_online_single_element_subset_needs_no_additions():
    params = BpvParams(v=1, k=3, allow_unsafe=True)
    table = bpv_offline(params, random.Random(7))
    with OpCounter() as ctr:
        r, point = bpv_online(table, random.Random(8))
    assert (ctr.scalar_mults, ctr.point_adds) == (0, 0)
    assert (r, point) in [(r_i, stored_point(table, 1, i)) for i, r_i in enumerate(table.scalars)]


def test_online_full_subset_equals_total_sum():
    params = BpvParams(v=4, k=4, allow_unsafe=True)
    table = bpv_offline(params, random.Random(9))
    r, point = bpv_online(table, random.Random(10))
    total = Scalar(0)
    for r_i in table.scalars:
        total = total + r_i
    assert r == total
    assert point == total * G


def test_online_outputs_vary_across_calls():
    params = BpvParams(v=3, k=64, allow_unsafe=True)
    table = bpv_offline(params, random.Random(11))
    rng = random.Random(12)
    outputs = {bpv_online(table, rng)[0].v for _ in range(50)}
    assert len(outputs) > 45


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_designated_online_consistent_triple(seed):
    table, d, _point = toy_designated()
    r, point_g, point_d = dbpv_online(table, random.Random(seed))
    assert point_g == r * G
    assert point_d == d * point_g


def test_designated_online_cost_is_twice_the_additions():
    params = BpvParams(v=6, k=16, allow_unsafe=True)
    point = Scalar(99) * G
    table = dbpv_offline(params, point, b"\x11" * 32, random.Random(13))
    with OpCounter() as ctr:
        dbpv_online(table, random.Random(14))
    assert (ctr.scalar_mults, ctr.point_adds) == (0, 2 * (params.v - 1))


def test_designated_online_refuses_a_standard_table():
    # It used to return a (G,) table's pair (r, R), which a caller unpacking three values
    # met as a bare ValueError.
    with pytest.raises(UnsupportedParams, match="not a standard one"):
        dbpv_online(toy_table(), random.Random(15))


# --------------------------------------------------------------------------
# Subset sampling
# --------------------------------------------------------------------------


def test_subsets_are_distinct_in_range_and_right_sized():
    params = BpvParams(18, 1024)
    rng = random.Random(15)
    for _ in range(100):
        indices = sample_subset(params, rng)
        assert len(indices) == params.v
        assert len(set(indices)) == params.v
        assert all(0 <= i < params.k for i in indices)


def test_index_frequencies_are_uniform():
    params = BpvParams(28, 256)
    rng = random.Random(16)
    draws = 10_000
    counts = [0] * params.k
    for _ in range(draws):
        for i in sample_subset(params, rng):
            counts[i] += 1
    expect = draws * params.v / params.k
    sd = math.sqrt(draws * (params.v / params.k) * (1 - params.v / params.k))
    assert all(abs(c - expect) < 5 * sd for c in counts)
    chi2 = sum((c - expect) ** 2 / expect for c in counts)
    # ~chi-square with 255 degrees of freedom; 400 is far out in the tail.
    assert chi2 < 400


def test_sampling_is_seed_deterministic():
    params = BpvParams(28, 256)
    a = sample_subset(params, random.Random(17))
    b = sample_subset(params, random.Random(17))
    assert a == b


# --------------------------------------------------------------------------
# Subset-space size
# --------------------------------------------------------------------------


def test_subset_space_bits_matches_high_precision_oracle():
    mpmath.mp.dps = 80
    for v, k in ((28, 256), (18, 1024), (2, 4), (1, 1)):
        got = subset_space_bits(BpvParams(v, k, allow_unsafe=True))
        want = mpmath.log(mpmath.binomial(k, v), 2)
        assert abs(got - float(want)) <= 1e-6 * max(1.0, float(want))


def test_subset_space_bits_monotone_in_table_size():
    small = subset_space_bits(BpvParams(28, 256))
    large = subset_space_bits(BpvParams(18, 1024))
    assert 120 < small < large < 128


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def test_plain_table_round_trips_bit_exact():
    table = toy_table()
    blob = serialize_table(table)
    again = deserialize_table(blob)
    assert again == table
    assert serialize_table(again) == blob


def test_designated_table_round_trips_bit_exact():
    table, _, point = toy_designated()
    blob = serialize_table(table)
    again = deserialize_table(blob)
    assert again == table
    assert again.bases == (G, point)
    assert again.owner_binding == table.owner_binding
    assert serialize_table(again) == blob


def test_every_single_bit_flip_is_caught_by_the_integrity_hash():
    blob = serialize_table(toy_table())
    rng = random.Random(18)
    for _ in range(200):
        pos = rng.randrange(len(blob) * 8)
        bad = bytearray(blob)
        bad[pos // 8] ^= 1 << (pos % 8)
        with pytest.raises(IntegrityMismatch):
            deserialize_table(bytes(bad))


def _rehash(raw: bytearray) -> bytes:
    raw[-32:] = hashlib.sha256(bytes(raw[:-32])).digest()
    return bytes(raw)


def test_wrong_magic_detected_even_with_valid_hash():
    raw = bytearray(serialize_table(toy_table()))
    raw[0] = ord("X")
    with pytest.raises(BadMagic):
        deserialize_table(_rehash(raw))


# "1" is the first open format, which also stored every r_i*B.
@pytest.mark.parametrize("version", [b"9", b"1"])
def test_unknown_version_byte_detected(version):
    raw = bytearray(serialize_table(toy_table()))
    raw[7] = version[0]
    with pytest.raises(UnsupportedVersion):
        deserialize_table(_rehash(raw))


def test_unknown_group_or_kind_detected():
    raw = bytearray(serialize_table(toy_table()))
    raw[8] = 0x7F
    with pytest.raises(UnsupportedVersion):
        deserialize_table(_rehash(raw))
    raw = bytearray(serialize_table(toy_table()))
    raw[9] = 0x02
    with pytest.raises(UnsupportedVersion):
        deserialize_table(_rehash(raw))


def test_truncation_detected():
    blob = serialize_table(toy_table())
    with pytest.raises(TruncatedFile):
        deserialize_table(blob[:10])
    raw = bytearray(blob[:-80])
    with pytest.raises(TruncatedFile):
        deserialize_table(_rehash(raw))


def test_loading_counts_one_mult_per_computed_point(monkeypatch):
    # The open file holds no point but X: a plain load decodes nothing.
    designated, _, _ = toy_designated()
    decoded = []
    real = bpv.decode_element
    monkeypatch.setattr(bpv, "decode_element", lambda data: decoded.append(data) or real(data))
    for table, mults, decodes in ((toy_table(), TOY.k, 0), (designated, 2 * TOY.k, 1)):
        del decoded[:]
        with OpCounter() as ctr:
            assert deserialize_table(serialize_table(table)) == table
        assert (ctr.scalar_mults, ctr.point_adds) == (mults, 0)
        assert len(decoded) == decodes


# --------------------------------------------------------------------------
# The one stored point of an open file, X: faults planted in re-hashed files
# --------------------------------------------------------------------------


HEADER_LEN = 18  # magic, group id, kind, k, v


def _plant(table, point_bytes):
    """The designated table's open file with X replaced, hash recomputed."""
    raw = bytearray(serialize_table(table))
    raw[HEADER_LEN : HEADER_LEN + 32] = point_bytes
    return _rehash(raw)


def test_order_8_point_is_torsion_of_order_exactly_8():
    assert times(8, T8).is_identity()
    assert not times(4, T8).is_identity()


# An identity X used to load from both formats (the build refused it), and
# encrypt then failed with InvalidSharedPoint.
@pytest.mark.parametrize("fault,error", [
    ("order-8-torsion", MalformedElement),
    ("y-not-below-P", MalformedElement),
    ("not-on-curve", MalformedElement),
    ("sign-bit-on-x-zero", MalformedElement),
    ("identity", InvalidDesignatedPoint),
])
def test_load_rejects_a_planted_point(fault, error):
    table, _, point = toy_designated()
    planted = {
        "order-8-torsion": (point + T8).encode(),
        "y-not-below-P": (P + 1).to_bytes(32, "little"),
        "not-on-curve": (2).to_bytes(32, "little"),  # no x on the curve has y = 2
        "sign-bit-on-x-zero": (1 | 1 << 255).to_bytes(32, "little"),
        "identity": IDENTITY.encode(),
    }[fault]
    assert deserialize_table(_plant(table, point.encode())) == table
    with pytest.raises(error):
        deserialize_table(_plant(table, planted))


def test_kind_byte_distinguishes_table_flavours():
    plain = serialize_table(toy_table())
    assert plain[9] == 0x00
    assert deserialize_table(plain).bases == (G,)
    table, _, point = toy_designated()
    designated = serialize_table(table)
    assert designated[9] == 0x01
    assert deserialize_table(designated).bases == (G, point)


# Digests of serialize_table output for two seeded k=16 tables.  The open
# format has moved once: IODCBPV1 also stored every r_i*B, which its load
# only compared with the point it had just computed from r_i, so IODCBPV3
# holds the scalars alone.  It must not move again unnoticed.
@pytest.mark.parametrize("kind,digest", [
    ("plain", "a1783beeb2a07250e7e07c500b7a9ae782c9e18df08827f769866148296a6b97"),
    ("designated", "0f02a39f74b8045fd31098f1e2ba7df2ecabb7f7600f6689765e7a57ad13bf1d"),
])
def test_serialized_tables_keep_their_pinned_bytes(kind, digest):
    params = BpvParams(v=4, k=16, allow_unsafe=True)
    if kind == "plain":
        table = bpv_offline(params, random.Random(2024))
    else:
        binding = hashlib.sha256(b"receiver-record").digest()
        table = dbpv_offline(params, Scalar(123457) * G, binding, random.Random(2025))
    blob = serialize_table(table)
    assert hashlib.sha256(blob).hexdigest() == digest
    assert serialize_table(deserialize_table(blob)) == blob


# --------------------------------------------------------------------------
# Sealed format
# --------------------------------------------------------------------------


SEAL = bytes(range(32))


def _clear_len(blob: bytes) -> int:
    """Header, owner binding (designated only) and nonce of a sealed blob."""
    return HEADER_LEN + 32 * blob[9] + 12


def _reseal(blob: bytes, offset: int, value: bytes) -> bytes:
    """The sealed blob with ``value`` written at ``offset`` of its opened body, sealed again."""
    clear = blob[: _clear_len(blob)]
    aead = ChaCha20Poly1305(SEAL)
    body = bytearray(aead.decrypt(clear[-12:], blob[len(clear):], clear))
    body[offset : offset + len(value)] = value
    return clear + aead.encrypt(clear[-12:], bytes(body), clear)


def _sealed(table):
    """The table sealed under SEAL; the nonce is the first draw of random.Random(40)."""
    return serialize_table(table, seal_key=SEAL, rng=random.Random(40))


@pytest.mark.parametrize("kind", ["plain", "designated"])
def test_sealed_table_round_trips_bit_exact_with_no_group_operation(kind):
    table = toy_table() if kind == "plain" else toy_designated()[0]
    blob = _sealed(table)
    assert blob[:8] == b"IODCBPV2"
    with OpCounter() as ctr:
        again = deserialize_table(blob, seal_key=SEAL)
    assert (ctr.scalar_mults, ctr.point_adds) == (0, 0)
    assert again == table
    assert again.bases == table.bases
    assert again.owner_binding == table.owner_binding
    assert _sealed(again) == blob
    draw = bpv_online if kind == "plain" else dbpv_online
    assert draw(again, random.Random(41)) == draw(table, random.Random(41))


def test_sealing_without_an_rng_is_refused_and_the_open_format_needs_none():
    table = toy_table()
    with pytest.raises(TypeError, match="^sealing a table needs an rng for its nonce$"):
        serialize_table(table, seal_key=SEAL)
    assert serialize_table(table) == serialize_table(table, rng=random.Random(1))


def test_tables_at_production_size_are_8_kib_open_and_24_and_40_kib_sealed():
    rng = random.Random(42)
    params = BpvParams(28, 256)
    plain = bpv_offline(params, rng)
    designated = dbpv_offline(params, Scalar(99) * G, bytes(32), rng)
    assert len(_sealed(plain)) == 18 + 12 + 256 * (32 + 64) + 16 == 24_622
    assert len(_sealed(designated)) == 18 + 32 + 12 + 64 + 256 * (32 + 2 * 64) + 16 == 41_102
    assert len(serialize_table(plain)) == 18 + 256 * 32 + 32 == 8_242
    assert len(serialize_table(designated)) == 18 + 64 + 256 * 32 + 32 == 8_306


@pytest.mark.parametrize("key", [None, bytes(32), SEAL[:31], SEAL + b"\x00"],
                         ids=["no-key", "other-key", "short-key", "long-key"])
def test_sealed_table_opens_only_under_its_seal_key(key):
    blob = _sealed(toy_table())
    with pytest.raises(IntegrityMismatch):
        deserialize_table(blob, seal_key=key)


@pytest.mark.parametrize("fault,error", [
    ("off-curve", MalformedElement),
    ("x-not-below-P", MalformedElement),
    ("y-not-below-P", MalformedElement),
    ("scalar-not-below-N", MalformedScalar),
])
@pytest.mark.parametrize("kind,column,offset", [
    ("plain", 1, 32),
    ("designated", 1, 64 + 32),
    ("designated", 2, 64 + 32 + 64),
    ("designated", 0, 0),
], ids=["plain-R", "designated-R", "designated-S", "designated-X"])
def test_sealed_load_rejects_a_malformed_value_under_the_right_key(kind, column, offset, fault, error):
    table = toy_table() if kind == "plain" else toy_designated()[0]
    point = stored_point(table, column, 0) if column else table.bases[1]
    x, y = affine(point)
    where, value = {
        "off-curve": (offset, ((x + 1) % P).to_bytes(32, "little")),
        "x-not-below-P": (offset, (x + P).to_bytes(32, "little")),
        "y-not-below-P": (offset + 32, (y + P).to_bytes(32, "little")),
        "scalar-not-below-N": (64 * (kind == "designated"), N.to_bytes(32, "little")),
    }[fault]
    blob = _sealed(table)
    assert deserialize_table(_reseal(blob, where, b""), seal_key=SEAL) == table
    with pytest.raises(error):
        deserialize_table(_reseal(blob, where, value), seal_key=SEAL)


def test_sealed_load_refuses_an_identity_designated_point():
    blob = _sealed(toy_designated()[0])
    identity = (0).to_bytes(32, "little") + (1).to_bytes(32, "little")
    with pytest.raises(InvalidDesignatedPoint):
        deserialize_table(_reseal(blob, 0, identity), seal_key=SEAL)


def test_open_table_is_refused_with_no_product_when_a_seal_key_is_given():
    # The caller's key picks the format: a planted open table, whose
    # scalars its writer knows, must not be read in place of a sealed one.
    designated, _, _ = toy_designated()
    for table in (toy_table(), designated):
        with OpCounter() as ctr, pytest.raises(UnsupportedVersion):
            deserialize_table(serialize_table(table), seal_key=SEAL)
        assert (ctr.scalar_mults, ctr.point_adds) == (0, 0)


# --------------------------------------------------------------------------
# Explicit verification pass
# --------------------------------------------------------------------------


def test_verify_table_accepts_honest_tables():
    verify_table(toy_table())
    table, _, _ = toy_designated()
    verify_table(table)


def test_verify_table_counts_one_mult_per_recomputed_point():
    designated, _, _ = toy_designated()
    for table, mults in ((toy_table(), TOY.k), (designated, 2 * TOY.k)):
        with OpCounter() as ctr:
            verify_table(table)
        assert (ctr.scalar_mults, ctr.point_adds) == (mults, 0)


def test_every_table_path_normalises_once_per_base(monkeypatch):
    # Build, open load and check each take one shared inversion per base: the
    # products go to addends as they come, with no normalisation of their own.
    group._g_comb()
    plain, designated = toy_table(), toy_designated()[0]
    files = serialize_table(plain), serialize_table(designated)
    calls = []
    real = group._normalize
    monkeypatch.setattr(group, "_normalize", lambda coords: calls.append(len(coords)) or real(coords))
    steps = (
        (toy_table, 1),
        (toy_designated, 2),
        (lambda: deserialize_table(files[0]), 1),
        (lambda: deserialize_table(files[1]), 2),
        (lambda: verify_table(plain), 1),
        (lambda: verify_table(designated), 2),
    )
    for step, bases in steps:
        del calls[:]
        step()
        assert calls == [TOY.k] * bases


def test_verify_table_flags_swapped_points():
    table = toy_table()
    table.stored[0][1] = table.stored[0][0]
    with pytest.raises(TableIntegrity):
        verify_table(table)
    designated, _, point = toy_designated()
    designated.stored[1][2] = designated.stored[0][2]
    with pytest.raises(TableIntegrity):
        verify_table(designated)


# verify_table used to check a second copy of the points while the online
# phase summed ``stored``: with two stored points swapped it passed, and a
# signature whose subset held just one of them failed to verify.
@pytest.mark.parametrize("kind,column", [("plain", 1), ("designated", 1), ("designated", 2)],
                         ids=["plain-R", "designated-R", "designated-S"])
def test_verify_table_checks_the_points_the_online_phase_sums(kind, column):
    table = toy_table() if kind == "plain" else toy_designated()[0]
    stored = table.stored[column - 1]
    stored[0], stored[1] = stored[1], stored[0]
    base = "generator" if column == 1 else "designated"
    with pytest.raises(TableIntegrity, match=f"entry 0: {base} point"):
        verify_table(table)


def test_fresh_randomness_sources_give_distinct_tables():
    a = bpv_offline(TOY, random.Random(19))
    b = bpv_offline(TOY, random.Random(20))
    assert a != b
    assert serialize_table(a) != serialize_table(b)
