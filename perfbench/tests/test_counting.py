"""A wrong output must show up in the failure count."""

import json
import random
from itertools import islice, repeat

import iodcrypt.encrypt as enc
import iodcrypt.sign as sig

from perfbench import inputs, run, workloads
from perfbench.probe import Recorder
from perfbench.workloads import Result


def _bit_flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def test_planted_wrong_uplink_outputs_are_counted():
    files = inputs.uplink_files(2)
    signer, sender = workloads.uplink_setup(files)
    rng = random.Random(0)
    frames = [inputs.Frame(data=f.data, encrypt=True, check=True)
              for f in islice(inputs.uplink_frames(2), 3)]
    samples = []
    for frame in frames:
        sig_file = sig.serialize_signature_file(inputs.DRONE_ID, sig.sign(signer, frame.data, rng))
        ct_file = enc.serialize_ciphertext_file(enc.encrypt(sender, frame.data, rng))
        samples.append((frame, sig_file, ct_file))
    good = Result()
    workloads.check_uplink(samples, files, good)
    assert good.failed == 0

    frame, sig_file, ct_file = samples[0]
    samples[0] = (frame, _bit_flip(sig_file, len(sig_file) - 40), _bit_flip(ct_file, len(ct_file) - 1))
    planted = Result()
    workloads.check_uplink(samples, files, planted)
    assert planted.failed == 2


def test_downlink_wrong_accepts_and_rejects_are_counted():
    stream = inputs.DownlinkInputs(4)
    station = workloads.downlink_setup(stream.files)
    messages = stream.take(40)
    assert any(m.tampered for m in messages)
    rng = random.Random(0)
    answers = [(m, *workloads.serve(m, station, rng)) for m in messages]
    result = Result()
    workloads.judge_all(answers, result)
    assert result.failed == 0

    flipped = [(m, not accepted, value) for m, accepted, value in answers[:5]]
    result = Result()
    workloads.judge_all(flipped, result)
    assert result.failed == 5


def test_an_exception_in_an_operation_is_a_failure():
    files = inputs.uplink_files(2)
    signer, _ = workloads.uplink_setup(files)
    broken_sender = enc.SenderContext.__new__(enc.SenderContext)  # no table: encrypt raises
    result = Result()
    frames = [inputs.Frame(data=b"x" * 64, encrypt=True, check=False)]
    workloads._uplink_loop(signer, broken_sender, frames, random.Random(0), result, Recorder(),
                           count=1)
    assert (result.attempted, result.failed) == (2, 1)


def test_a_run_in_which_every_operation_fails_still_ends():
    files = inputs.uplink_files(2)
    signer, _ = workloads.uplink_setup(files)
    # Without tables, every sign and every encrypt raises.
    broken_signer = sig.SignerContext(keypair=signer.keypair, table=None)
    broken_sender = enc.SenderContext.__new__(enc.SenderContext)
    result = Result()
    workloads._uplink_loop(broken_signer, broken_sender, inputs.uplink_frames(2), random.Random(0),
                           result, Recorder(), budget_ns=20_000_000)
    assert result.attempted > 0 and result.failed == result.attempted

    verify = next(m for m in inputs.DownlinkInputs(4).take(20) if m.kind == "verify")
    no_fleet = (None, None, {})  # no verifier context: every verify raises
    result = Result()
    workloads._downlink_loop(no_fleet, repeat(verify), random.Random(0), result, Recorder(),
                             budget_ns=20_000_000)
    assert result.attempted > 0 and result.failed == result.attempted


def test_a_failing_set_up_still_prints_a_result(monkeypatch, tmp_path, capsys):
    def broken(*_):
        raise RuntimeError("set-up step kgc init exited 1")

    monkeypatch.setitem(workloads.RUNNERS, "cli-fleet", broken)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "_import_library", lambda: None)
    assert run.main(["--workload", "cli-fleet", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
