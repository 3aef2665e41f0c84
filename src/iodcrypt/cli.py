"""Command-line front end over the key, table, signature, and ciphertext files.

Every subcommand is a thin composition of library calls — no protocol
logic lives here.  The default key directory is ``$IODCRYPT_HOME`` (or
``~/.iodcrypt``), overridable per call with ``--home``.  Conventional
file names inside it::

    kgc.sec       KGC master secret          system.pub   system public key
    <id>.key      drone private key (0600)   <id>.rec     public identity record
    bpv.tbl       standard nonce table       <id>.dtbl    designated table for <id>
    table.seal    table seal secret (0600)

Each file argument is read one way.  One that contains a path separator
is a path; any other is a name looked up only in the home:
``home/<name>``, then ``home/<name><suffix>``.  The working directory is
never searched.  The identity given to ``kgc issue --id``, and the signer
id that ``verify`` reads from a signature file, must be plain names: one
that contains a separator or a NUL, or is empty, ``.`` or ``..``, raises
``InvalidIdentity`` before any file is written or read for it, as does a
non-UTF-8 ``--id``.  A designated table is named after its recipient
record's identity (``home/<id>.dtbl``), whatever spelling named the
record.  ``encrypt`` takes the direct path only when that default table
is absent; a table named with ``--table`` is always loaded, so a missing
one is an I/O error (exit 3) and nothing is encrypted.

``table gen`` writes sealed tables (``IODCBPV2``) under the home's
``table.seal``: 32 random bytes, created by the first ``table gen`` and
never replaced, so every table of a home opens with it.  ``sign`` and
``encrypt`` read only sealed tables, opened with it: an open
(``IODCBPV3``) table raises ``UnsupportedVersion``, and in a home with no
``table.seal`` every table load fails with ``IntegrityMismatch``, as it
does for a table sealed in another home (exit 1).

Exit codes: 0 success; 1 cryptographic failure (one stderr line,
``ErrorClass: detail``); 2 usage error; 3 I/O error.  All writes are
atomic (temp file then rename) and secret files are created with
owner-only permissions where the platform supports it.

``kgc init`` refuses a home that already has a ``kgc.sec`` (exit 3) and
writes nothing: a new master key would fail every key issued under the
old one.  Deleting the file is how to start over.

``--test-seed`` makes randomness reproducible and must be paired with
``--insecure-test``; without that guard the flag is refused.

A process imports only what its command runs: ``encrypt`` only for
``table gen --designated``, ``encrypt`` and ``decrypt``; ``bench`` (and
``statistics``) only for ``bench``; ``json`` only for ``--json``.  The
package does not use ``dataclasses``, whose import and decorators took
about a quarter of the time to import this module.

A process also does only the work its command reads.  ``sign`` (the id
and x) and ``decrypt`` (x) read the key file with ``read_drone_key``,
which checks its header, length, id and x but decodes neither U nor x*D,
so they accept a file whose U or x*D is malformed; ``keyver`` and
``exchange`` decode and check both, x*D against x times the system key
too.  A ``sign`` process so loads no X25519 and no OpenSSL backend
module.  ``main`` builds the parser of the first command word in argv
alone; where its top level would print usage or help, or no command
word is given, it starts over with the whole parser, so every help text
and usage error reads as the whole one's.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
from pathlib import Path

from .bpv import (SEAL_KEY_LEN, SUPPORTED_PARAMS, BpvParams, PrecompTable, bpv_offline,
                  deserialize_table, serialize_table)
from .errors import (
    IntegrityMismatch,
    InvalidIdentity,
    IodCryptError,
    KeyVerFailed,
    TableIntegrity,
    UnsupportedParams,
    VerifyFailed,
)
from .group import scalar_mult
from .selfcert import (
    aq_hang_finalize,
    aq_hang_initiate,
    aq_kg,
    deserialize_drone_keypair,
    deserialize_kgc_keypair,
    deserialize_record,
    deserialize_system_public,
    key_ver,
    kgc_setup,
    read_drone_key,
    reconstruct_pub,
    serialize_drone_keypair,
    serialize_kgc_keypair,
    serialize_record,
    serialize_system_public,
)
from .sign import (
    SignerContext,
    VerifierContext,
    deserialize_signature_file,
    serialize_signature_file,
    sign,
    verify,
)

DEFAULT_PARAMS = SUPPORTED_PARAMS[0]
SEAL_FILE = "table.seal"
_FILE_ARG = "(a path if it has a separator, else a name in the home)"
# ``bench.PROFILES`` keys and ``bench.BENCH_OPS``, copied so only ``iodcrypt bench`` imports it.
BENCH_PROFILES = ("avr", "arm")
BENCH_OPS = ("bpv_online", "dbpv_online", "sign", "verify", "reference_sign", "encrypt",
             "decrypt", "aq_shared", "aq_hang", "table_load", "table_load_designated",
             "table_open")


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------


def _home(args) -> Path:
    if args.home:
        return Path(args.home)
    env = os.environ.get("IODCRYPT_HOME")
    if env:
        return Path(env)
    return Path.home() / ".iodcrypt"


def _rng(args):
    if args.test_seed is not None:
        return random.Random(args.test_seed)
    return random.SystemRandom()


def _write(path: Path, data: bytes, secret: bool = False, keep_existing: bool = False) -> None:
    """Atomic write: temp file in the target directory, then rename.

    mkstemp creates the file 0600; keep that for secrets and widen
    public files to the conventional umask-style mode.  With
    ``keep_existing`` the temp file is hard-linked into place instead,
    which fails when the name exists: a file already there, even one
    written a moment earlier by another process, is left as it is.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        os.fchmod(fd, 0o600 if secret else 0o644)
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        if keep_existing:
            try:
                os.link(tmp_name, path)
            except FileExistsError:
                pass
            os.unlink(tmp_name)
        else:
            os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _seal_key(args, rng=None) -> bytes:
    """The home's table seal secret; a home without one raises IntegrityMismatch.

    Given ``rng``, a home without one first gets random bytes from it.
    """
    path = _home(args) / SEAL_FILE
    if rng is not None and not path.exists():
        secret = rng.randrange(1 << (8 * SEAL_KEY_LEN)).to_bytes(SEAL_KEY_LEN, "little")
        _write(path, secret, secret=True, keep_existing=True)
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise IntegrityMismatch(f"a sealed table needs its seal key; {path} is missing") from None


def _plain_name(name: str) -> str:
    """``name`` if it names a file directly in the home, else InvalidIdentity."""
    if os.sep in name or "\0" in name or name in ("", ".", ".."):
        raise InvalidIdentity(f"{name!r} is not a plain file name")
    return name


def _resolve(args, name_or_path: str, suffix: str) -> Path:
    """A path if it contains a separator, else home/<name>, then home/<name><suffix>."""
    if os.sep in name_or_path:
        return Path(name_or_path)
    named = _home(args) / _plain_name(name_or_path)
    return named if named.exists() else named.with_name(name_or_path + suffix)


def _designated(args, record) -> Path:
    """home/<id>.dtbl, the default designated table for ``record``'s identity."""
    return _home(args) / f"{_plain_name(record.drone_id.decode(errors='replace'))}.dtbl"


def _load_table(args, path: Path) -> PrecompTable:
    """Open a table sealed in this home, refusing a (v, k) outside the vetted set."""
    table = deserialize_table(path.read_bytes(), seal_key=_seal_key(args))
    v, k = table.params.v, table.params.k
    if (v, k) not in SUPPORTED_PARAMS:
        raise UnsupportedParams(f"{path}: (v={v}, k={k}) not in the supported set {SUPPORTED_PARAMS}")
    return table


def _parse_params(text: str) -> BpvParams:
    try:
        v_str, k_str = text.split(",")
        v, k = int(v_str), int(k_str)
    except ValueError as exc:
        raise UnsupportedParams(f"parameters must look like '28,256', got {text!r}") from exc
    return BpvParams(v=v, k=k)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_kgc_init(args) -> int:
    home = _home(args)
    if (home / "kgc.sec").exists():
        raise FileExistsError(f"{home / 'kgc.sec'} exists; delete it to start a new realm")
    kgc = kgc_setup(_rng(args))
    _write(home / "kgc.sec", serialize_kgc_keypair(kgc), secret=True)
    _write(home / "system.pub", serialize_system_public(kgc.public))
    _emit(
        args,
        {"ok": True, "home": str(home), "files": ["kgc.sec", "system.pub"]},
        f"initialized key generation centre in {home}",
    )
    return 0


def cmd_kgc_issue(args) -> int:
    home = _home(args)
    try:
        drone_id = _plain_name(args.id).encode()
    except UnicodeEncodeError:  # bytes that are not UTF-8 arrive as surrogates
        raise InvalidIdentity(f"{args.id!r} is not valid UTF-8") from None
    kgc = deserialize_kgc_keypair((home / "kgc.sec").read_bytes())
    keypair = aq_kg(kgc, drone_id, _rng(args))
    key_path = home / f"{args.id}.key"
    rec_path = home / f"{args.id}.rec"
    _write(key_path, serialize_drone_keypair(keypair), secret=True)
    _write(rec_path, serialize_record(keypair.record))
    _emit(
        args,
        {"ok": True, "id": args.id, "key": str(key_path), "record": str(rec_path)},
        f"issued key for {args.id!r}: {key_path} (secret), {rec_path} (public)",
    )
    return 0


def _check_key(keypair, system_public) -> None:
    """Raise KeyVerFailed unless the key was issued under the system key D and holds x times D."""
    if not (key_ver(keypair.record, keypair.secret, system_public)
            and keypair.cached_term == scalar_mult(keypair.secret, system_public)):
        raise KeyVerFailed(f"key for {keypair.record.drone_id!r} fails verification")


def cmd_keyver(args) -> int:
    keypair = deserialize_drone_keypair(_resolve(args, args.key, ".key").read_bytes())
    system_public = deserialize_system_public(_resolve(args, args.system, ".pub").read_bytes())
    _check_key(keypair, system_public)
    _emit(
        args,
        {"ok": True, "id": keypair.record.drone_id.decode(errors="replace")},
        f"key for {keypair.record.drone_id!r} verifies against the system key",
    )
    return 0


def cmd_table_gen(args) -> int:
    params = _parse_params(args.params)
    rng = _rng(args)
    if args.designated:
        from .encrypt import enc_kg_sender

        record = deserialize_record(_resolve(args, args.recipient, ".rec").read_bytes())
        system_public = deserialize_system_public(_resolve(args, args.system, ".pub").read_bytes())
        ctx = enc_kg_sender(record, system_public, params, rng)
        table = ctx.table
        out = Path(args.out) if args.out else _designated(args, record)
    else:
        table = bpv_offline(params, rng)
        out = Path(args.out) if args.out else _home(args) / "bpv.tbl"
    _write(out, serialize_table(table, seal_key=_seal_key(args, rng), rng=rng), secret=True)
    _emit(
        args,
        {"ok": True, "path": str(out), "k": params.k, "v": params.v,
         "designated": bool(args.designated)},
        f"wrote {'designated ' if args.designated else ''}table ({params.k} entries) to {out}",
    )
    return 0


def cmd_sign(args) -> int:
    key = read_drone_key(_resolve(args, args.key, ".key").read_bytes())
    table = _load_table(args, _resolve(args, args.table, ".tbl"))
    message = Path(args.infile).read_bytes()
    sig = sign(SignerContext(key, table), message, _rng(args))
    out = Path(args.out) if args.out else Path(args.infile + ".sig")
    _write(out, serialize_signature_file(key.drone_id, sig))
    _emit(
        args,
        {"ok": True, "signature": str(out), "signer": key.drone_id.decode(errors="replace")},
        f"signed {args.infile} -> {out}",
    )
    return 0


def cmd_verify(args) -> int:
    signer_id, sig = deserialize_signature_file(Path(args.sig).read_bytes())
    record_arg = args.record or _plain_name(signer_id.decode(errors="replace"))
    record = deserialize_record(_resolve(args, record_arg, ".rec").read_bytes())
    if record.drone_id != signer_id:
        raise VerifyFailed(f"signature names {signer_id!r} but the record is {record.drone_id!r}")
    system_public = deserialize_system_public(_resolve(args, args.system, ".pub").read_bytes())
    vctx = VerifierContext.build(record, system_public)
    message = Path(args.infile).read_bytes()
    if not verify(vctx, message, sig):
        raise VerifyFailed(f"signature by {signer_id!r} does not verify for {args.infile}")
    _emit(
        args,
        {"ok": True, "signer": signer_id.decode(errors="replace")},
        f"good signature by {signer_id!r} on {args.infile}",
    )
    return 0


def cmd_encrypt(args) -> int:
    from .encrypt import (WIRE_OVERHEAD, SenderContext, encrypt, reference_encrypt,
                          serialize_ciphertext_file)

    record = deserialize_record(_resolve(args, args.to, ".rec").read_bytes())
    system_public = deserialize_system_public(_resolve(args, args.system, ".pub").read_bytes())
    message = Path(args.infile).read_bytes()
    rng = _rng(args)
    recipient_key = reconstruct_pub(record, system_public)
    table_path = _resolve(args, args.table, ".dtbl") if args.table else _designated(args, record)
    if args.table or table_path.exists():
        ctx = SenderContext(table=_load_table(args, table_path), receiver=record)
        if ctx.table.bases[1] != recipient_key:
            raise TableIntegrity(f"{table_path} was not built under this system key")
        ct = encrypt(ctx, message, rng)
        mode = "table"
    else:
        ct = reference_encrypt(recipient_key, message, rng)
        mode = "direct"
    out = Path(args.out) if args.out else Path(args.infile + ".enc")
    _write(out, serialize_ciphertext_file(ct))
    _emit(
        args,
        {"ok": True, "ciphertext": str(out), "mode": mode, "overhead_bytes": WIRE_OVERHEAD},
        f"encrypted {args.infile} -> {out} ({mode} path)",
    )
    return 0


def cmd_decrypt(args) -> int:
    from .encrypt import decrypt, deserialize_ciphertext_file

    key = read_drone_key(_resolve(args, args.key, ".key").read_bytes())
    ct = deserialize_ciphertext_file(Path(args.infile).read_bytes())
    message = decrypt(key, ct)
    out = Path(args.out or args.infile.removesuffix(".enc") + ".dec")
    _write(out, message)
    _emit(
        args,
        {"ok": True, "plaintext": str(out), "length": len(message)},
        f"decrypted {args.infile} -> {out} ({len(message)} bytes)",
    )
    return 0


def cmd_exchange(args) -> int:
    side_a = deserialize_drone_keypair(_resolve(args, args.key_a, ".key").read_bytes())
    side_b = deserialize_drone_keypair(_resolve(args, args.key_b, ".key").read_bytes())
    system_public = deserialize_system_public(_resolve(args, args.system, ".pub").read_bytes())
    for keypair in (side_a, side_b):
        _check_key(keypair, system_public)
    rng = _rng(args)
    state_a = aq_hang_initiate(side_a, rng)
    state_b = aq_hang_initiate(side_b, rng)
    session_a = aq_hang_finalize(side_a, state_a, state_b.message)
    session_b = aq_hang_finalize(side_b, state_b, state_a.message)
    if session_a.key != session_b.key:
        raise KeyVerFailed("the two sides derived different session keys")
    _emit(
        args,
        {
            "ok": True,
            "fingerprint_a": session_a.fingerprint(),
            "fingerprint_b": session_b.fingerprint(),
        },
        f"{side_a.record.drone_id.decode(errors='replace')}: {session_a.fingerprint()}\n"
        f"{side_b.record.drone_id.decode(errors='replace')}: {session_b.fingerprint()}\n"
        "session keys agree",
    )
    return 0


def cmd_bench(args) -> int:
    from .bench import (DeviceProfile, device_report, format_ldjson, format_text_table,
                        host_report, run_bench)

    if args.profile in BENCH_PROFILES:
        rows = device_report(args.profile)
        if args.op:
            rows = [row for row in rows if row["op"] == args.op]
            if not rows:
                raise UnsupportedParams(
                    f"no reference figures for op {args.op!r} on {args.profile!r}"
                )
    else:  # host measurement
        profile = None
        if args.voltage is not None:
            profile = DeviceProfile(name="host", voltage=args.voltage, current=args.current)
        rows = host_report(run_bench((args.op,), args.iterations, _rng(args)), profile)
    print(format_ldjson(rows) if args.json else format_text_table(rows))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _WholeParser(Exception):
    """Raised where a parser of one subcommand would print top-level usage or help."""


class _OneCommandParser(argparse.ArgumentParser):
    # The top level of build_parser(command): its usage and help would list one subcommand,
    # so main starts over with the whole parser, which prints them as they always read.
    def error(self, *_):
        raise _WholeParser

    print_help = error


COMMANDS = ("kgc", "keyver", "table", "sign", "verify", "encrypt", "decrypt", "exchange", "bench")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or only of ``command``, one of COMMANDS.

    A subcommand's own parser, its help and its errors are the same either
    way; the top level of a one-command parser raises instead of printing.
    """
    parser = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="iodcrypt",
        description="Self-certified keys, precomputed signing, and hybrid "
        "encryption for drone-class devices.",
    )
    # The global options go on the top level with their defaults, and on a parent
    # parser of every leaf subcommand, so they are accepted both before and after
    # the subcommand words.  SUPPRESS keeps a leaf from setting one it was not
    # given, so a value parsed at the top level stands unless the leaf has its own.
    common = argparse.ArgumentParser(add_help=False)
    for target, default in ((parser, {}), (common, {"default": argparse.SUPPRESS})):
        target.add_argument("--home", **default,
                            help="key directory (default: $IODCRYPT_HOME or ~/.iodcrypt)")
        target.add_argument("--json", action="store_true", **default, help="machine-readable output")
        target.add_argument("--test-seed", type=int, **default,
                            help="deterministic randomness for tests; requires --insecure-test")
        target.add_argument("--insecure-test", action="store_true", **default,
                            help="acknowledge that seeded randomness is insecure")
    commands = parser.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)

    if command in (None, "kgc"):
        kgc = commands.add_parser("kgc", help="key generation centre role")
        kgc_commands = kgc.add_subparsers(dest="kgc_command")
        kgc_init = kgc_commands.add_parser("init", parents=[common],
                                           help="create a fresh KGC master key (refused if one exists)")
        kgc_init.set_defaults(func=cmd_kgc_init)
        kgc_issue = kgc_commands.add_parser("issue", parents=[common],
                                            help="issue a self-certified key")
        kgc_issue.add_argument("--id", required=True, help="identity to issue for")
        kgc_issue.set_defaults(func=cmd_kgc_issue)

    if command in (None, "keyver"):
        keyver = commands.add_parser("keyver", parents=[common],
                                     help="check a key against the system key")
        keyver.add_argument("--key", required=True, help=f"drone key {_FILE_ARG}")
        keyver.add_argument("--system", default="system", help=f"system public key {_FILE_ARG}")
        keyver.set_defaults(func=cmd_keyver)

    if command in (None, "table"):
        table = commands.add_parser("table", help="precomputation tables")
        table_commands = table.add_subparsers(dest="table_command")
        table_gen = table_commands.add_parser("gen", parents=[common], help="generate a table")
        table_gen.add_argument("--designated", action="store_true",
                               help="bind the table to a recipient for encryption")
        table_gen.add_argument("--recipient", help=f"recipient record for --designated {_FILE_ARG}")
        table_gen.add_argument("--system", default="system", help=f"system public key {_FILE_ARG}")
        table_gen.add_argument("--params", default=f"{DEFAULT_PARAMS[0]},{DEFAULT_PARAMS[1]}",
                               help="v,k sizing (default %(default)s)")
        table_gen.add_argument("--out", help="output path")
        table_gen.set_defaults(func=cmd_table_gen)

    if command in (None, "sign"):
        sign_cmd = commands.add_parser("sign", parents=[common], help="sign a file")
        sign_cmd.add_argument("--key", required=True, help=f"signer key {_FILE_ARG}")
        sign_cmd.add_argument("--table", default="bpv", help=f"sealed nonce table {_FILE_ARG}")
        sign_cmd.add_argument("--out", help="signature output path (default <in>.sig)")
        sign_cmd.add_argument("infile", help="file to sign")
        sign_cmd.set_defaults(func=cmd_sign)

    if command in (None, "verify"):
        verify_cmd = commands.add_parser("verify", parents=[common],
                                         help="verify a detached signature")
        verify_cmd.add_argument("--sig", required=True, help="signature file")
        verify_cmd.add_argument("--record", help=f"signer record {_FILE_ARG}, default the signer id")
        verify_cmd.add_argument("--system", default="system", help=f"system public key {_FILE_ARG}")
        verify_cmd.add_argument("infile", help="signed file")
        verify_cmd.set_defaults(func=cmd_verify)

    if command in (None, "encrypt"):
        encrypt_cmd = commands.add_parser("encrypt", parents=[common],
                                          help="encrypt a file to an identity")
        encrypt_cmd.add_argument("--to", required=True, help=f"recipient record {_FILE_ARG}")
        encrypt_cmd.add_argument("--system", default="system", help=f"system public key {_FILE_ARG}")
        encrypt_cmd.add_argument("--table", help=f"sealed designated table {_FILE_ARG}, default <id>.dtbl")
        encrypt_cmd.add_argument("--out", help="ciphertext output path (default <in>.enc)")
        encrypt_cmd.add_argument("infile", help="file to encrypt")
        encrypt_cmd.set_defaults(func=cmd_encrypt)

    if command in (None, "decrypt"):
        decrypt_cmd = commands.add_parser("decrypt", parents=[common],
                                          help="decrypt a ciphertext file")
        decrypt_cmd.add_argument("--key", required=True, help=f"recipient key {_FILE_ARG}")
        decrypt_cmd.add_argument("--out", help="plaintext output path")
        decrypt_cmd.add_argument("infile", help="ciphertext file")
        decrypt_cmd.set_defaults(func=cmd_decrypt)

    if command in (None, "exchange"):
        exchange = commands.add_parser("exchange", parents=[common],
                                       help="run both sides of a key exchange")
        exchange.add_argument("--key-a", required=True, help=f"first key {_FILE_ARG}")
        exchange.add_argument("--key-b", required=True, help=f"second key {_FILE_ARG}")
        exchange.add_argument("--system", default="system", help=f"system public key {_FILE_ARG}")
        exchange.set_defaults(func=cmd_exchange)

    if command in (None, "bench"):
        bench = commands.add_parser("bench", parents=[common],
                                    help="benchmarks and energy projection")
        bench.add_argument("--profile", required=True, choices=[*BENCH_PROFILES, "host"])
        bench.add_argument("--op", choices=BENCH_OPS, help="operation to benchmark")
        bench.add_argument("--iterations", type=int, default=50)
        bench.add_argument("--voltage", type=float, help="host energy projection: volts")
        bench.add_argument("--current", type=float, help="host energy projection: amperes")
        bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # only the subcommand of the first command word, if there is one
        return _main(build_parser(next((w for w in argv if w in COMMANDS), None)), argv)
    except _WholeParser:
        return _main(build_parser(), argv)


def _main(parser, argv) -> int:
    args = parser.parse_args(argv)
    if args.test_seed is not None and not args.insecure_test:
        parser.error("--test-seed requires --insecure-test")
    if getattr(args, "designated", False) != bool(getattr(args, "recipient", None)):
        parser.error("--designated and --recipient must be given together")
    func = getattr(args, "func", None)
    if func is cmd_bench:
        from .bench import MIN_ITERATIONS

        if (args.voltage is None) != (args.current is None):
            parser.error("--voltage and --current must be given together")
        if args.profile == "host" and not args.op:
            parser.error("--profile host requires --op")
        if args.profile == "host" and args.iterations < MIN_ITERATIONS:
            parser.error(f"--iterations must be at least {MIN_ITERATIONS}")
    if func is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return func(args)
    except IodCryptError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
