from perfbench.summary import latency_summary, mix_rate, percentile


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 990) == 990
    assert percentile(values, 500) == 500
    assert percentile([5.0], 990) == 5.0


def test_p99_needs_a_thousand_samples():
    assert set(latency_summary("verify", [1.0] * 999)) == {"verify_p50_ms"}
    full = latency_summary("verify", [float(i) for i in range(1000)])
    assert set(full) == {"verify_p50_ms", "verify_p99_ms"}
    # Nearest rank: ten of the thousand samples lie beyond the p99.
    assert full["verify_p99_ms"] == {"value": 989.0, "unit": "ms", "samples": 1000}
    assert latency_summary("verify", []) == {}


def test_mix_rate_counts_every_operation_at_its_full_time():
    ops = [("a", 1_000_000)] * 8 + [("b", 3_000_000)] * 10
    assert mix_rate(ops) == 18 / (8 * 0.001 + 10 * 0.003)
    # Slowing only two of the 'a' operations lowers the rate.
    slow_tail = [("a", 1_000_000)] * 6 + [("a", 9_000_000)] * 2 + [("b", 3_000_000)] * 10
    assert mix_rate(slow_tail) < mix_rate(ops)
