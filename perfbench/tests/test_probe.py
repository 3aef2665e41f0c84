from perfbench.probe import PROBE_REF_NS, Recorder


def test_each_operation_is_scaled_by_the_probes_around_it():
    rec = Recorder()
    # One probe before each operation; the host halves its speed halfway.
    rec.probes = [(i, PROBE_REF_NS if i < 10 else 2 * PROBE_REF_NS) for i in range(20)]
    rec.ops = [("sign", 1000)] * 20
    scaled = rec.scaled()
    assert scaled[0] == ("sign", 1000.0)  # host at reference speed
    assert scaled[19] == ("sign", 500.0)  # host twice as slow


def test_probes_are_taken_every_n_operations():
    rec = Recorder(probe_every=3)
    for _ in range(7):
        rec.add("verify", 10)
    assert [pos for pos, _ in rec.probes] == [3, 6]
    assert rec.busy == 70


def test_a_span_of_probes_brackets_each_operation():
    rec = Recorder(span=4)
    rec.probes = [(0, 1), (0, 1), (1, 9), (1, 9), (2, 5), (2, 5)]
    rec.ops = [("sign", PROBE_REF_NS)] * 2
    # The first operation sees the two probes before it and the two after it.
    assert rec.scaled()[0] == ("sign", PROBE_REF_NS * PROBE_REF_NS / 5)
