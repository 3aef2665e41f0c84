import random

import iodcrypt.bpv as bpv
import iodcrypt.sign as sig
from iodcrypt.selfcert import aq_kg, kgc_setup

from perfbench.spans import (CountingRng, NAME, Tracer, aggregate, instrument, self_times)


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_nested_children():
    spans = [span("a", 0, 100, -1), span("b", 10, 60, 0), span("c", 20, 30, 1)]
    assert self_times(spans) == [50, 40, 10]


def test_self_time_subtracts_siblings_once_each():
    spans = [span("a", 0, 100, -1), span("b", 10, 20, 0), span("b", 30, 50, 0),
             span("c", 60, 61, 0)]
    assert self_times(spans) == [69, 10, 20, 1]
    row = aggregate(spans)["b"]
    assert row["calls"] == 2
    assert abs(row["total_ms"] - 30e-6) < 1e-12 and abs(row["self_ms"] - 30e-6) < 1e-12


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0, 100, -1), span("b", 10, 50, 0), span("c", 40, 70, 0)]
    assert self_times(spans)[0] == 40


def test_aggregate_under_a_root():
    spans = [span("cli.sign", 0, 100, -1), span("x", 10, 20, 0), span("x", 200, 210, -1)]
    assert aggregate(spans, under="cli.sign")["x"]["calls"] == 1


def test_instrument_reaches_imported_names_and_restores_them():
    original = bpv.decode_element
    tracer = Tracer()
    rng = random.Random(3)
    params = bpv.BpvParams(v=3, k=8, allow_unsafe=True)
    table_bytes = bpv.serialize_table(bpv.bpv_offline(params, rng))
    with instrument(tracer):
        assert bpv.decode_element is not original
        table = bpv.deserialize_table(table_bytes)
        ctx = sig.SignerContext(keypair=aq_kg(kgc_setup(rng), b"d", rng), table=table)
        sig.sign(ctx, b"m", rng)
    assert bpv.decode_element is original
    names = {rec[NAME] for rec in tracer.spans}
    assert {"bpv.deserialize_table", "group.decode_element", "sign.sign", "bpv.bpv_online",
            "group.point_add", "group.GroupElement.encode"} <= names


def test_counting_rng_counts_only_subset_draws():
    tracer = Tracer()
    rng = CountingRng(tracer, 7)
    params = bpv.BpvParams(v=3, k=8, allow_unsafe=True)
    with instrument(tracer):
        table = bpv.bpv_offline(params, rng)
        assert rng.subset_draws == 0
        bpv.bpv_online(table, rng)
    assert rng.subset_draws >= 3
