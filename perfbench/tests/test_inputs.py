from itertools import islice

from perfbench import inputs


def _frames(seed, n=40):
    return list(islice(inputs.uplink_frames(seed), n))


def test_same_seed_gives_identical_inputs():
    assert _frames(5) == _frames(5)
    assert inputs.cli_frame(5, 3) == inputs.cli_frame(5, 3)
    first, second = inputs.DownlinkInputs(5), inputs.DownlinkInputs(5)
    assert first.files == second.files
    assert [m.wire for m in first.take(12)] == [m.wire for m in second.take(12)]


def test_different_seed_gives_different_inputs():
    assert _frames(5) != _frames(6)
    assert inputs.cli_frame(5, 0) != inputs.cli_frame(6, 0)
    assert inputs.DownlinkInputs(5).files != inputs.DownlinkInputs(6).files


def test_uplink_files_are_deterministic():
    assert inputs.uplink_files(9) == inputs.uplink_files(9)


def test_half_of_each_sixteen_frames_is_encrypted():
    frames = _frames(1, 64)
    for start in range(0, 64, 16):
        assert sum(f.encrypt for f in frames[start:start + 16]) == 8
    assert all(inputs.FRAME_MIN <= len(f.data) <= inputs.FRAME_MAX for f in frames)


def test_downlink_mix_follows_the_uplink():
    weights = dict(inputs.DOWNLINK_MIX)
    assert weights["verify"] == 2 * weights["decrypt"]  # sign every frame, encrypt half
    assert weights["verify"] == inputs.SESSION_FRAMES * weights["handshake"]
    kinds = [m.kind for m in inputs.DownlinkInputs(3).take(400)]
    assert 1.5 < kinds.count("verify") / kinds.count("decrypt") < 2.6
