"""The three workloads: drone uplink, ground downlink, and whole CLI processes.

Each workload is one closed-loop client in one process: it sends the next
operation only when the previous one has returned, because the library
has no request queue whose waiting an open loop could measure.  CLI
children run one at a time.

Every timed operation goes from bytes in to bytes out, so file encoding
and the subgroup check of decoding are inside the number, as they are for
a user.  Output checks run outside the timed spans, and so do the
host-speed probes (see ``probe.py``).

``run_<workload>(seed, seconds, trace, work_dir, result)`` fills in a
Result.  With ``trace`` false it reports the end-to-end metrics; with
``trace`` true it runs a fixed number of operations untraced and then
traced, and reports the per-layer metrics from the spans.  A failed
operation counts its time against the budget too, so a run in which every
operation fails still ends.
"""

from __future__ import annotations

import io
import os
import random
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import iodcrypt.bpv as bpv
import iodcrypt.cli as cli
import iodcrypt.encrypt as enc
import iodcrypt.group as group
import iodcrypt.selfcert as selfcert
import iodcrypt.sign as sig
from iodcrypt.errors import IodCryptError, MacMismatch, MalformedElement

from perfbench import inputs
from perfbench.probe import PROBE_REF_NS, Recorder, probe_ns
from perfbench.spans import WRAPPED_LABELS, CountingRng, Tracer, aggregate, instrument
from perfbench.summary import latency_summary, mix_rate

SETUP_REPEATS = 5  # set-ups per run; setup_s is their median
# Operations between two host-speed probes: about a twentieth of busy time.
PROBE_EVERY = {"drone-uplink": 16, "ground-downlink": 2}
SETUP_PROBES = 10  # probes before and after each set-up
CHILD_PROBES = 10  # probes before each CLI child, and after the last
# Frames or messages per --seconds in a traced run, about half of what
# the seed code's untraced loop gets through.
TRACE_RATE = {"drone-uplink": 100, "ground-downlink": 20}
CLI_TRACE_ROUND_S = 7
DOWNLINK_CHUNK = 200
CHILD_TIMEOUT_S = 120

PROTOCOL_OPS = ("sign", "encrypt", "verify", "decrypt", "handshake")
CLI_COMMANDS = ("table_gen", "sign", "verify", "encrypt", "decrypt")
# The console-script entry point, spelled out: the checkout is not installed.
CLI_ENTRY = "import sys; from iodcrypt.cli import main; sys.exit(main())"


@dataclass
class Result:
    metrics: dict[str, dict] = field(default_factory=dict)
    detail: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _program_rng(seed: int, tracer: Tracer | None = None):
    """The randomness handed to the program: seeded, so a seed repeats every nonce."""
    if tracer is not None:
        return CountingRng(tracer, f"{seed}:program")
    return random.Random(f"{seed}:program")


def _timed_setups(build, repeats: int):
    """Run the program's set-up ``repeats`` times.

    Returns the median set-up time scaled to the reference host, the raw
    median, and the state the last set-up built.
    """
    scaled, raw = [], []
    state = None
    for _ in range(repeats):
        before = [probe_ns() for _ in range(SETUP_PROBES)]
        start = perf_counter_ns()
        state = build()
        elapsed = perf_counter_ns() - start
        after = [probe_ns() for _ in range(SETUP_PROBES)]
        raw.append(elapsed / 1e9)
        scaled.append(elapsed / 1e9 * PROBE_REF_NS / statistics.median(before + after))
    return statistics.median(scaled), statistics.median(raw), state


def _by_kind(ops) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for kind, ns in ops:
        out.setdefault(kind, []).append(ns)
    return out


def _end_to_end(result: Result, setup, rec: Recorder, cli_children: bool = False) -> None:
    """setup_s and msgs_per_s on the reference host; per-kind figures go to the detail.

    The detail holds each kind's raw latencies (p50, and p99 from 1 000 samples;
    for CLI children the median in seconds) and its median on the
    reference host (``_ref``).
    """
    if not rec.ops:
        return  # every operation failed: there is no rate to report
    setup_scaled, setup_raw = setup
    scaled = rec.scaled()
    result.metrics = {"setup_s": _metric(setup_scaled, "s"),
                      "msgs_per_s": _metric(mix_rate(scaled), "1/s")}
    detail = result.detail
    detail["setup_raw_s"] = {"value": setup_raw, "unit": "s"}
    detail["host_probe_ms"] = {"value": rec.probe_median_ms(), "unit": "ms",
                               "samples": len(rec.probes)}
    ref = _by_kind(scaled)
    for kind, raw_ns in _by_kind(rec.ops).items():
        n = len(raw_ns)
        if cli_children:
            detail[f"cli_{kind}_s"] = {"value": statistics.median(raw_ns) / 1e9, "unit": "s",
                                       "samples": n}
            detail[f"cli_{kind}_ref_s"] = {"value": statistics.median(ref[kind]) / 1e9,
                                           "unit": "s", "samples": n}
        else:
            detail.update(latency_summary(kind, [ns / 1e6 for ns in raw_ns]))
            detail[f"{kind}_ref_p50_ms"] = {"value": statistics.median(ref[kind]) / 1e6,
                                            "unit": "ms", "samples": n}


def _overhead(traced: Recorder, plain: Recorder) -> float:
    """Traced over untraced time of the same operations, both on the reference host."""
    return sum(ns for _, ns in traced.scaled()) / sum(ns for _, ns in plain.scaled())


# ---------------------------------------------------------------------------
# drone-uplink: the online path, additions and encodes only
# ---------------------------------------------------------------------------


def uplink_setup(files: inputs.UplinkFiles):
    """What a drone does at boot: load its key and both tables from bytes."""
    keypair = selfcert.deserialize_drone_keypair(files.drone_key)
    table = bpv.deserialize_table(files.sign_table)
    designated = bpv.deserialize_table(files.designated_table)
    ground = selfcert.deserialize_record(files.ground_record)
    return (sig.SignerContext(keypair=keypair, table=table),
            enc.SenderContext(table=designated, receiver=ground))


def _uplink_loop(signer, sender, frames, rng, result, rec: Recorder, *, budget_ns=None,
                 count=None, tracer=None, counts=None):
    """Sign every frame and encrypt the flagged ones.

    Times go to ``rec``; returns the frames sampled for checking, with
    their outputs.
    """
    samples = []
    drone_id = signer.keypair.record.drone_id
    done = 0
    for frame in frames:
        if (budget_ns is not None and rec.busy >= budget_ns) or (count is not None and done >= count):
            break
        outputs = {}
        for op in ("sign", "encrypt") if frame.encrypt else ("sign",):
            ctr = group.OpCounter() if counts is not None else None
            if tracer is not None:
                tracer.request_id += 1
            result.attempted += 1
            start = perf_counter_ns()
            try:
                if op == "sign":
                    out = sig.serialize_signature_file(
                        drone_id, sig.sign(signer, frame.data, rng, ctr))
                else:
                    out = enc.serialize_ciphertext_file(enc.encrypt(sender, frame.data, rng, ctr))
            except Exception as exc:  # an unexpected exception is a failed operation
                rec.busy += perf_counter_ns() - start
                result.fail(f"{op}: {type(exc).__name__}: {exc}")
                continue
            rec.add(op, perf_counter_ns() - start)
            outputs[op] = out
            if counts is not None:
                _add_counts(counts, op, ctr)
        done += 1
        if frame.check:
            samples.append((frame, outputs.get("sign"), outputs.get("encrypt")))
    return samples


def check_uplink(samples, files: inputs.UplinkFiles, result: Result) -> None:
    """Sampled signatures must pass the reference verifier; ciphertexts must open."""
    drone = selfcert.deserialize_drone_keypair(files.drone_key)
    ground = selfcert.deserialize_drone_keypair(files.ground_key)
    public = drone.secret * group.G
    for frame, sig_file, ct_file in samples:
        if sig_file is not None:
            try:
                signer_id, signature = sig.deserialize_signature_file(sig_file)
                good = (signer_id == drone.record.drone_id
                        and sig.reference_verify(public, frame.data, signature))
            except IodCryptError:
                good = False
            if not good:
                result.fail("sign: output fails the reference verifier")
        if ct_file is not None:
            try:
                good = enc.decrypt(ground, enc.deserialize_ciphertext_file(ct_file)) == frame.data
            except IodCryptError:
                good = False
            if not good:
                result.fail("encrypt: output does not decrypt to its frame")


def run_drone_uplink(seed: int, seconds: int, trace: bool, work_dir: Path,
                    result: Result) -> None:
    files = inputs.uplink_files(seed)
    every = PROBE_EVERY["drone-uplink"]
    if not trace:
        setup_scaled, setup_raw, (signer, sender) = _timed_setups(
            lambda: uplink_setup(files), SETUP_REPEATS)
        rec = Recorder(every)
        samples = _uplink_loop(signer, sender, inputs.uplink_frames(seed), _program_rng(seed),
                               result, rec, budget_ns=seconds * 10**9)
        check_uplink(samples, files, result)
        _end_to_end(result, (setup_scaled, setup_raw), rec)
        result.detail["checked_frames"] = {"value": len(samples), "unit": "count"}
        return

    count = TRACE_RATE["drone-uplink"] * seconds
    signer, sender = uplink_setup(files)
    plain = Recorder(every)
    _uplink_loop(signer, sender, inputs.uplink_frames(seed), _program_rng(seed), Result(),
                 plain, count=count)
    tracer = Tracer()
    rng = _program_rng(seed, tracer)
    counts = _new_counts()
    traced = Recorder(every)
    with instrument(tracer):
        with tracer.span("setup"):
            signer, sender = uplink_setup(files)
        samples = _uplink_loop(signer, sender, inputs.uplink_frames(seed), rng, result,
                               traced, count=count, tracer=tracer, counts=counts)
    check_uplink(samples, files, result)
    result.metrics = layer_metrics(tracer, counts=counts, rng=rng,
                                   overhead=_overhead(traced, plain),
                                   heap_kib=table_heap_kib(files.sign_table))
    tracer.write(work_dir / "trace.json")


def table_heap_kib(table_bytes: bytes) -> float:
    """Heap that one loaded table keeps alive, measured in its own pass."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = bpv.deserialize_table(table_bytes)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del table
    return (after - before) / 1024


# ---------------------------------------------------------------------------
# ground-downlink: the receiving side, scalar multiplications and decodes
# ---------------------------------------------------------------------------


def downlink_setup(files: inputs.DownlinkFiles):
    """Load the station key and build a verifier context per fleet member."""
    ground = selfcert.deserialize_drone_keypair(files.ground_key)
    system_public = selfcert.deserialize_system_public(files.system_public)
    contexts = {}
    for record_bytes in files.records:
        record = selfcert.deserialize_record(record_bytes)
        contexts[record.drone_id] = sig.VerifierContext.build(record, system_public)
    return ground, system_public, contexts


def serve(msg: inputs.Message, station, rng, ctr=None):
    """One wire message in, one answer out: a verdict, plaintext or session key.

    Returns (accepted, value).  A rejection is a false verdict or one of
    the two errors a tampered ciphertext may raise.
    """
    ground, system_public, contexts = station
    if msg.kind == "verify":
        signer_id, signature = sig.deserialize_signature_file(msg.wire)
        return sig.verify(contexts[signer_id], msg.payload, signature, ctr), None
    if msg.kind == "decrypt":
        try:
            return True, enc.decrypt(ground, enc.deserialize_ciphertext_file(msg.wire), ctr)
        except (MacMismatch, MalformedElement):
            return False, None
    state = selfcert.aq_hang_initiate(ground, rng, ctr=ctr)
    session = selfcert.aq_hang_finalize(ground, state, msg.wire, system_public, ctr)
    return True, (state.message, session.key)


def judge(msg: inputs.Message, accepted: bool, value) -> str | None:
    """None when the answer is right, else what was wrong with it."""
    if msg.tampered:
        return "tampered message accepted" if accepted else None
    if not accepted:
        return "untampered message rejected"
    if msg.kind == "decrypt" and value != msg.payload:
        return "plaintext differs from the frame"
    if msg.kind == "handshake":
        reply, key = value
        drone_side = selfcert.aq_hang_finalize(msg.drone, msg.state, reply)
        if drone_side.key != key:
            return "the two sides derived different session keys"
    return None


def _downlink_loop(station, messages, rng, result, rec: Recorder, *, budget_ns=None,
                   tracer=None, counts=None):
    """Serve messages until the budget or the messages run out.

    Times go to ``rec``.  Returns the answers, which are judged afterwards
    so that the checks stay outside both the timed and the traced spans.
    """
    answers = []
    for msg in messages:
        if budget_ns is not None and rec.busy >= budget_ns:
            break
        ctr = group.OpCounter() if counts is not None else None
        if tracer is not None:
            tracer.request_id += 1
        result.attempted += 1
        start = perf_counter_ns()
        try:
            accepted, value = serve(msg, station, rng, ctr)
        except Exception as exc:  # an unexpected exception is a failed operation
            rec.busy += perf_counter_ns() - start
            result.fail(f"{msg.kind}: {type(exc).__name__}: {exc}")
            continue
        rec.add(msg.kind, perf_counter_ns() - start)
        answers.append((msg, accepted, value))
        if counts is not None:
            _add_counts(counts, msg.kind, ctr)
    return answers


def judge_all(answers, result: Result) -> None:
    for msg, accepted, value in answers:
        problem = judge(msg, accepted, value)
        if problem:
            result.fail(f"{msg.kind}: {problem}")


def _stream(source: inputs.DownlinkInputs):
    """The endless message stream, made in chunks outside the timed spans."""
    while True:
        yield from source.take(DOWNLINK_CHUNK)


def run_ground_downlink(seed: int, seconds: int, trace: bool, work_dir: Path,
                       result: Result) -> None:
    source = inputs.DownlinkInputs(seed)
    files = source.files
    every = PROBE_EVERY["ground-downlink"]
    if not trace:
        setup_scaled, setup_raw, station = _timed_setups(
            lambda: downlink_setup(files), SETUP_REPEATS)
        rec = Recorder(every)
        answers = _downlink_loop(station, _stream(source), _program_rng(seed), result, rec,
                                 budget_ns=seconds * 10**9)
        judge_all(answers, result)
        _end_to_end(result, (setup_scaled, setup_raw), rec)
        return

    messages = source.take(TRACE_RATE["ground-downlink"] * seconds)
    plain = Recorder(every)
    _downlink_loop(downlink_setup(files), messages, _program_rng(seed), Result(), plain)
    tracer = Tracer()
    rng = _program_rng(seed, tracer)
    counts = _new_counts()
    traced = Recorder(every)
    with instrument(tracer):
        with tracer.span("setup"):
            station = downlink_setup(files)
        answers = _downlink_loop(station, messages, rng, result, traced, tracer=tracer,
                                 counts=counts)
    judge_all(answers, result)
    result.metrics = layer_metrics(tracer, counts=counts, rng=rng,
                                   overhead=_overhead(traced, plain))
    tracer.write(work_dir / "trace.json")


# ---------------------------------------------------------------------------
# cli-fleet: whole processes, dominated by start-up, import and table loads
# ---------------------------------------------------------------------------

_SETUP_ARGV = (("kgc", "init"), ("kgc", "issue", "--id", "drone-7"),
               ("kgc", "issue", "--id", "ground"),
               ("table", "gen", "--designated", "--recipient", "ground"))


def _round_argv(home: Path, frame: Path) -> dict[str, list[str]]:
    h = ["--home", str(home)]
    return {
        "table_gen": [*h, "table", "gen"],
        "sign": [*h, "sign", "--key", "drone-7", str(frame)],
        "verify": [*h, "verify", "--sig", f"{frame}.sig", str(frame)],
        "encrypt": [*h, "encrypt", "--to", "ground", str(frame)],
        "decrypt": [*h, "decrypt", "--key", "ground", f"{frame}.enc"],
    }


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _child(args: list[str], env) -> tuple[int, int, str]:
    """Run one process to completion; (exit code, wall ns, stderr)."""
    start = perf_counter_ns()
    proc = subprocess.run([sys.executable, *args], env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, perf_counter_ns() - start, proc.stderr.decode(errors="replace")


def _cli_child(argv: list[str], env) -> tuple[int, int, str]:
    return _child(["-c", CLI_ENTRY, *argv], env)


def _prepare_home(home: Path, env) -> None:
    """The program's own set-up, as fresh processes."""
    shutil.rmtree(home, ignore_errors=True)
    for words in _SETUP_ARGV:
        code, _, err = _cli_child(["--home", str(home), *words], env)
        if code != 0:
            raise RuntimeError(f"set-up step {' '.join(words)} exited {code}: {err.strip()}")


def _new_round_file(work_dir: Path, seed: int, round_no: int) -> tuple[Path, bytes]:
    frame = work_dir / "frame.bin"
    for suffix in (".sig", ".enc", ".dec"):
        Path(f"{frame}{suffix}").unlink(missing_ok=True)
    data = inputs.cli_frame(seed, round_no)
    frame.write_bytes(data)
    return frame, data


def _check_round(frame: Path, data: bytes, result: Result) -> None:
    decrypted = Path(f"{frame}.dec")
    if not decrypted.exists() or decrypted.read_bytes() != data:
        result.fail("decrypt: output does not match the encrypted file")


def _cli_round_in_process(home: Path, frame: Path, result: Result, rec: Recorder,
                          tracer: Tracer | None = None) -> None:
    """One round through ``cli.main`` with the children's argv."""
    for cmd, argv in _round_argv(home, frame).items():
        rec.probe(CHILD_PROBES)
        result.attempted += 1
        start = perf_counter_ns()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                tracer.request_id += 1
                with tracer.span(f"cli.{cmd}"):
                    code = cli.main(argv)
        rec.add(cmd, perf_counter_ns() - start)
        if code != 0:
            result.fail(f"{cmd}: in-process exit {code}")


def run_cli_fleet(seed: int, seconds: int, trace: bool, work_dir: Path,
                 result: Result) -> None:
    env = _child_env()
    home = work_dir / "home"
    if not trace:
        setup_scaled, setup_raw, _ = _timed_setups(
            lambda: _prepare_home(home, env), SETUP_REPEATS)
        rec = Recorder(span=2 * CHILD_PROBES)
        round_no = 0
        while rec.busy < seconds * 10**9 or round_no == 0:
            frame, data = _new_round_file(work_dir, seed, round_no)
            for cmd, argv in _round_argv(home, frame).items():
                rec.probe(CHILD_PROBES)
                result.attempted += 1
                code, wall, err = _cli_child(argv, env)
                rec.add(cmd, wall)
                if code != 0:
                    result.fail(f"{cmd}: exit {code}: {err.strip()}")
            _check_round(frame, data, result)
            round_no += 1
        rec.probe(CHILD_PROBES)
        _end_to_end(result, (setup_scaled, setup_raw), rec, cli_children=True)
        return

    _prepare_home(home, env)
    tracer = Tracer()
    plain, traced = Recorder(span=2 * CHILD_PROBES), Recorder(span=2 * CHILD_PROBES)
    # Untraced and traced rounds alternate, so drift in host speed hits both.
    for round_no in range(max(1, seconds // CLI_TRACE_ROUND_S)):
        frame, _ = _new_round_file(work_dir, seed, round_no)
        _cli_round_in_process(home, frame, Result(), plain)
        frame, data = _new_round_file(work_dir, seed, round_no)
        with instrument(tracer):
            _cli_round_in_process(home, frame, result, traced, tracer)
        _check_round(frame, data, result)
    plain.probe(CHILD_PROBES)
    traced.probe(CHILD_PROBES)
    startup, imported = [], []
    for _ in range(5):
        startup.append(_child(["-c", "pass"], env)[1] / 1e6)
        imported.append(_child(["-c", "import iodcrypt.cli"], env)[1] / 1e6)
    cli_layer = {"cli.python_startup_ms": statistics.median(startup),
                 "cli.import_ms": statistics.median(imported) - statistics.median(startup)}
    result.metrics = layer_metrics(tracer, cli_layer=cli_layer, overhead=_overhead(traced, plain))
    for cmd in CLI_COMMANDS:
        inside = aggregate(tracer.spans, under=f"cli.{cmd}")
        for key in ("total_ms", "self_ms"):
            top = sorted(inside.items(), key=lambda item: -item[1][key])[:3]
            result.detail[f"cli.{cmd}.largest_{key}"] = {name: row[key] for name, row in top}
    tracer.write(work_dir / "trace.json")


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced run
# ---------------------------------------------------------------------------


def _new_counts() -> dict[str, list[int]]:
    return {op: [0, 0, 0] for op in PROTOCOL_OPS}  # operations, mults, adds


def _add_counts(counts, op: str, ctr) -> None:
    row = counts[op]
    row[0] += 1
    row[1] += ctr.scalar_mults
    row[2] += ctr.point_adds


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in output order."""
    names = []
    for label in WRAPPED_LABELS:
        names += [(f"{label}.calls", "count"), (f"{label}.total_ms", "ms"),
                  (f"{label}.self_ms", "ms")]
    for cmd in CLI_COMMANDS:
        names += [(f"cli.{cmd}.total_ms", "ms"), (f"cli.{cmd}.self_ms", "ms")]
    names += [("cli.python_startup_ms", "ms"), ("cli.import_ms", "ms")]
    for op in PROTOCOL_OPS:
        names += [(f"group.opcounter.{op}.scalar_mults", "count/op"),
                  (f"group.opcounter.{op}.point_adds", "count/op")]
    names += [("bpv.sample_subset.draws_per_index", "ratio"), ("bpv.table.heap_kib", "KiB"),
              ("trace.overhead_ratio", "ratio")]
    return names


def layer_metrics(tracer: Tracer, *, counts=None, rng=None, cli_layer=None,
                  heap_kib: float = 0.0, overhead: float) -> dict[str, dict]:
    """All per-layer metrics; a layer the workload does not use reads 0."""
    values = {name: 0 for name, _ in per_layer_names()}
    for label, row in aggregate(tracer.spans).items():
        for key in ("calls", "total_ms", "self_ms"):
            if f"{label}.{key}" in values:
                values[f"{label}.{key}"] = row[key]
    values.update(cli_layer or {})
    for op, (n, mults, adds) in (counts or {}).items():
        if n:
            values[f"group.opcounter.{op}.scalar_mults"] = mults / n
            values[f"group.opcounter.{op}.point_adds"] = adds / n
    subset_calls = values["bpv.sample_subset.calls"]
    if rng is not None and subset_calls:
        values["bpv.sample_subset.draws_per_index"] = (
            rng.subset_draws / (subset_calls * inputs.PARAMS.v))
    values["bpv.table.heap_kib"] = heap_kib
    values["trace.overhead_ratio"] = overhead
    return {name: _metric(values[name], unit) for name, unit in per_layer_names()}


RUNNERS = {
    "drone-uplink": run_drone_uplink,
    "ground-downlink": run_ground_downlink,
    "cli-fleet": run_cli_fleet,
}
