"""Counting by scope: ``with OpCounter() as ctr:`` counts what runs inside it.

Covers the scope itself (threads, nesting), the six functions that still
take a trailing ``ctr``, the guard that no other function takes one, and
every cell of the README's budget table at the default table size.
"""

import functools
import importlib
import inspect
import pkgutil
import random
import re
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import iodcrypt
from iodcrypt import encrypt as encrypt_module
from iodcrypt import selfcert as selfcert_module
from iodcrypt import sign as sign_module
from iodcrypt.bpv import (BpvParams, bpv_offline, dbpv_offline, deserialize_table,
                          serialize_table)
from iodcrypt.encrypt import enc_kg_sender, reference_encrypt
from iodcrypt.group import G, OpCounter, Scalar, point_add, scalar_mult
from iodcrypt.selfcert import (SelfCertKeypair, aq_hang_finalize, aq_hang_initiate, aq_kg,
                               aq_shared_static, kgc_setup, reconstruct_pub)
from iodcrypt.sign import VerifierContext, reference_sign, reference_verify, sign, sign_kg

ROOT = Path(__file__).resolve().parents[1]
PARAMS = BpvParams(v=28, k=256)
V, K = PARAMS.v, PARAMS.k
SEAL = bytes(range(32))
MESSAGE = b"telemetry frame"

# The six functions that still take a trailing ``ctr``, with its position, because
# perfbench/workloads.py passes it to them.  They lose it once perfbench counts by
# scope (ROADMAP item 0); this set then becomes empty.
KEPT_CTR = {
    "iodcrypt.sign.sign": 3,
    "iodcrypt.sign.verify": 3,
    "iodcrypt.encrypt.encrypt": 3,
    "iodcrypt.encrypt.decrypt": 2,
    "iodcrypt.selfcert.aq_hang_initiate": 3,
    "iodcrypt.selfcert.aq_hang_finalize": 4,
}
# aq_hang_finalize keeps ``system_public`` too, unread, because perfbench passes ``ctr``
# after it by position; it goes with ``ctr``.
KEPT_SYSTEM_PUBLIC = {"aq_hang_finalize": 3}


@pytest.fixture(scope="module")
def world():
    rng = random.Random(2467)
    kgc = kgc_setup(rng)
    signer = sign_kg(kgc, b"drone-7", PARAMS, rng)
    receiver = aq_kg(kgc, b"ground-station", rng)
    sender = enc_kg_sender(receiver.record, kgc.public, PARAMS, rng)
    return SimpleNamespace(
        rng=rng, kgc=kgc, signer=signer, receiver=receiver, sender=sender,
        vctx=VerifierContext.build(signer.keypair.record, kgc.public),
        sig=sign(signer, MESSAGE, rng),
        ct=encrypt_module.encrypt(sender, MESSAGE, rng),
    )


def _counts(ctr):
    return ctr.scalar_mults, ctr.point_adds


def _fresh(keypair):
    """The same key as a new keypair, which has finalized no handshake."""
    return SelfCertKeypair(keypair.record, keypair.secret, keypair.cached_term)


# --------------------------------------------------------------------------
# The scope itself
# --------------------------------------------------------------------------


def test_concurrent_threads_each_count_only_their_own_signs(world):
    # More threads than cores, switching often, each signing in its own scope.
    rounds, threads = 40, 4
    start = threading.Barrier(threads)
    counters = [OpCounter() for _ in range(threads)]
    errors = []

    def run(ctr, seed):
        try:
            rng = random.Random(seed)
            start.wait(timeout=60)
            with ctr:
                for _ in range(rounds):
                    sign(world.signer, MESSAGE, rng)
        except Exception as exc:  # surfaced below; a thread cannot fail the test itself
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(ctr, seed)) for seed, ctr in enumerate(counters)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with OpCounter() as outer:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert [_counts(ctr) for ctr in counters] == [(0, rounds * (V - 1))] * threads
    assert _counts(outer) == (0, 0)


def test_the_innermost_scope_takes_the_counts(world):
    with OpCounter() as outer:
        point = scalar_mult(Scalar(7), G)
        with OpCounter() as inner:
            sign(world.signer, MESSAGE, random.Random(1))
            with OpCounter() as innermost:
                point_add(point, G)
            scalar_mult(Scalar(3), point)
        point_add(point, G)
    assert _counts(innermost) == (0, 1)
    assert _counts(inner) == (1, V - 1)
    assert _counts(outer) == (1, 1)


def test_a_scope_entered_again_inside_itself_still_counts_after_the_inner_exit(world):
    with OpCounter() as ctr:
        sign(world.signer, MESSAGE, random.Random(2), ctr)
        scalar_mult(Scalar(5), G)
    scalar_mult(Scalar(5), G)
    assert _counts(ctr) == (1, V - 1)


def test_nothing_is_counted_outside_every_scope(world):
    ctr = OpCounter()
    sign(world.signer, MESSAGE, random.Random(3))
    scalar_mult(Scalar(5), G)
    assert _counts(ctr) == (0, 0)


# --------------------------------------------------------------------------
# The six functions that keep ``ctr``
# --------------------------------------------------------------------------


def _kept_calls(world):
    """Each kept function's module, and a call f(fn, ctr) passing ``ctr`` as perfbench does.

    The handshake station already knows its peer, so each finalize is a
    known-peer one and every call of a function counts the same.
    """
    rng = random.Random(4)
    station = _fresh(world.receiver)
    peer = aq_kg(world.kgc, b"drone-9", rng)
    peer_message = aq_hang_initiate(peer, rng).message
    aq_hang_finalize(station, aq_hang_initiate(station, rng), peer_message)
    state = aq_hang_initiate(station, rng)
    table = world.signer.table
    return {
        "sign": (sign_module, lambda f, ctr: f(world.signer, MESSAGE, rng, ctr)),
        "verify": (sign_module, lambda f, ctr: f(world.vctx, MESSAGE, world.sig, ctr)),
        "encrypt": (encrypt_module, lambda f, ctr: f(world.sender, MESSAGE, rng, ctr)),
        "decrypt": (encrypt_module, lambda f, ctr: f(world.receiver, world.ct, ctr)),
        "aq_hang_initiate": (selfcert_module,
                             lambda f, ctr: f(station, rng, table=table, ctr=ctr)),
        "aq_hang_finalize": (selfcert_module,
                             lambda f, ctr: f(station, state, peer_message, None, ctr)),
    }


KEPT_NAMES = ("sign", "verify", "encrypt", "decrypt", "aq_hang_initiate", "aq_hang_finalize")


@pytest.mark.parametrize("name", KEPT_NAMES)
def test_an_explicit_ctr_counts_what_an_enclosing_scope_counts(world, name):
    module, call = _kept_calls(world)[name]
    fn = getattr(module, name)
    explicit = OpCounter()
    call(fn, explicit)
    with OpCounter() as scoped:
        call(fn, None)
    assert _counts(explicit) == _counts(scoped) != (0, 0)
    # Bound inside an enclosing scope, the explicit counter takes the counts.
    inner = OpCounter()
    with OpCounter() as outer:
        call(fn, inner)
    assert _counts(inner) == _counts(scoped) and _counts(outer) == (0, 0)


def _wrap_by_name(monkeypatch, module, name):
    """Replace ``name`` in every iodcrypt module that refers to it, as perfbench's tracer does."""
    original = getattr(module, name)
    calls = []

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for holder in [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "iodcrypt" or key.startswith("iodcrypt."))]:
        for attr, value in list(vars(holder).items()):
            if value is original:
                monkeypatch.setattr(holder, attr, wrapped)
    return calls


@pytest.mark.parametrize("name", KEPT_NAMES)
def test_a_name_wrapper_sees_one_call_per_op(world, monkeypatch, name):
    module, call = _kept_calls(world)[name]
    calls = _wrap_by_name(monkeypatch, module, name)
    call(getattr(module, name), OpCounter())
    call(getattr(module, name), None)
    with OpCounter():
        call(getattr(module, name), None)
    assert calls == [name] * 3


def _functions():
    """Every function and method defined in an iodcrypt module, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(iodcrypt.__path__):
        module = importlib.import_module(f"iodcrypt.{info.name}")
        owners = [module] + [value for value in vars(module).values()
                             if inspect.isclass(value) and value.__module__ == module.__name__]
        for owner in owners:
            for value in vars(owner).values():
                value = getattr(value, "__func__", value)  # a classmethod's function
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def test_only_the_six_kept_functions_take_a_ctr():
    # The six keep it for perfbench, and lose it when perfbench counts by scope
    # (ROADMAP item 0).  Every other count is taken by ``with OpCounter()``.
    functions = _functions()
    assert len(functions) > 100
    taking = {}
    for name, fn in functions.items():
        params = list(inspect.signature(fn).parameters.values())
        names = [param.name for param in params]
        if "ctr" in names:
            taking[name] = names.index("ctr")
            assert params[-1].name == "ctr" and params[-1].default is None, name
    assert taking == KEPT_CTR


def test_only_aq_hang_finalize_keeps_the_unread_system_public():
    # Every keypair carries x*D, so the static secret never needs D.
    taking = {}
    for name in ("aq_shared_static", "aq_hang_initiate", "aq_hang_finalize"):
        params = inspect.signature(getattr(selfcert_module, name)).parameters
        if "system_public" in params:
            taking[name] = list(params).index("system_public")
            assert params["system_public"].default is None, name
    assert taking == KEPT_SYSTEM_PUBLIC
    assert list(inspect.signature(aq_shared_static).parameters) == ["own", "peer"]


# --------------------------------------------------------------------------
# The README's budget table, cell by cell
# --------------------------------------------------------------------------


def _readme_budget_rows():
    """(operation, scalar mults cell, point adds cell) of each row of the README's budget table."""
    lines = (ROOT / "README.md").read_text().splitlines()
    head = next(i for i, line in enumerate(lines)
                if re.fullmatch(r"\|\s*operation\s*\|\s*scalar mults\s*\|\s*point adds\s*\|", line))
    rows = []
    for line in lines[head + 2:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip().replace("`", "") for cell in line.strip("|").split("|")))
    return rows


# Each form a cell may take, at v = 28, k = 256.
_FORMS = {"v−1": V - 1, "2(v−1)": 2 * (V - 1), "k": K, "2k": 2 * K}


def _cell(text):
    """A cell's counts: one, or for "k (designated: 2k)" the plain and the designated one."""
    match = re.fullmatch(r"(.+) \(designated: (.+)\)", text)
    return [int(part) if part.isdigit() else _FORMS[part]
            for part in (match.groups() if match else (text,))]


def _count(fn, *args, **kwargs):
    """(scalar mults, point adds) of one call; its arguments are evaluated outside the scope."""
    with OpCounter() as ctr:
        fn(*args, **kwargs)
    return _counts(ctr)


def _measured(world):
    """Each README row's counts, measured in a scope: one run, or plain and designated."""
    rng = random.Random(9)
    a, b = _fresh(world.signer.keypair), world.receiver
    known = _fresh(b)
    peer_message = aq_hang_initiate(a, rng).message
    aq_hang_finalize(known, aq_hang_initiate(known, rng), peer_message)
    recipient_key = reconstruct_pub(b.record, world.kgc.public)
    tables = (world.signer.table, world.sender.table)
    return {
        "sign (table)": [_count(sign, world.signer, MESSAGE, rng)],
        "encrypt (table)": [_count(encrypt_module.encrypt, world.sender, MESSAGE, rng)],
        "verify": [_count(sign_module.verify, world.vctx, MESSAGE, world.sig)],
        "decrypt": [_count(encrypt_module.decrypt, b, world.ct)],
        "static shared secret": [_count(aq_shared_static, a, b.record)],
        "handshake initiate (no table)": [_count(aq_hang_initiate, a, rng)],
        "handshake initiate (table)": [_count(aq_hang_initiate, a, rng, table=tables[0])],
        "handshake finalize (cached x·D)": [_count(aq_hang_finalize, a, aq_hang_initiate(a, rng),
                                                   aq_hang_initiate(b, rng).message)],
        "handshake finalize (known peer)": [
            _count(aq_hang_finalize, known, aq_hang_initiate(known, rng), peer_message)],
        "reference_sign": [_count(reference_sign, a.secret, MESSAGE, rng)],
        "reference_verify": [_count(reference_verify, scalar_mult(world.signer.keypair.secret, G),
                                    MESSAGE, world.sig)],
        "reference_encrypt": [_count(reference_encrypt, recipient_key, MESSAGE, rng)],
        "table gen": [_count(bpv_offline, PARAMS, rng),
                      _count(dbpv_offline, PARAMS, recipient_key, b.record.binding(), rng)],
        "table load (open)": [_count(deserialize_table, serialize_table(t)) for t in tables],
        "table load (sealed)": [
            _count(deserialize_table, serialize_table(t, seal_key=SEAL, rng=rng), seal_key=SEAL)
            for t in tables],
    }


def test_every_readme_budget_cell_holds_at_the_default_table_size(world):
    rows = _readme_budget_rows()
    measured = _measured(world)
    assert len(rows) == 15
    assert [op for op, _, _ in rows] == list(measured)
    for op, mults, adds in rows:
        runs = measured[op]
        expected_mults, expected_adds = _cell(mults), _cell(adds)
        for i, (got_mults, got_adds) in enumerate(runs):
            # A single figure holds for both runs of a table row.
            assert got_mults == expected_mults[min(i, len(expected_mults) - 1)], op
            assert got_adds == expected_adds[min(i, len(expected_adds) - 1)], op
        # "designated: 2k" is a run of its own.
        assert len(runs) >= max(len(expected_mults), len(expected_adds)), op
