"""End-to-end tests for the command-line interface.

Each test drives ``iodcrypt.cli.main`` in-process with an isolated key
directory, covering the documented exit-code contract:

    0  success
    1  cryptographic failure (one ``ErrorClass: detail`` line on stderr)
    2  usage error
    3  I/O error
"""

from __future__ import annotations

import json
import os
import random
import stat

import pytest

from iodcrypt.bpv import BpvParams, PrecompTable, bpv_offline, dbpv_offline, serialize_table
from iodcrypt import bench
from iodcrypt.cli import BENCH_OPS, BENCH_PROFILES, _write, main
from iodcrypt.encrypt import WIRE_OVERHEAD, deserialize_ciphertext_file
from iodcrypt.group import G, N, Scalar, addends
from iodcrypt.selfcert import (deserialize_drone_keypair, deserialize_record,
                               deserialize_system_public, reconstruct_pub)
from iodcrypt.sign import deserialize_signature_file, serialize_signature_file


# ---------------------------------------------------------------------------
# Shared pipeline: one KGC, two identities, both table kinds, one signature
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def realm(tmp_path_factory):
    home = tmp_path_factory.mktemp("cli-home")
    work = tmp_path_factory.mktemp("cli-work")
    message = work / "msg.txt"
    message.write_bytes(b"telemetry frame 0042: altitude holding\n")

    def run(*argv):
        rc = main([*argv, "--home", str(home)])
        assert rc == 0, f"pipeline step failed: {argv} -> {rc}"

    run("kgc", "init", "--test-seed", "101", "--insecure-test")
    run("kgc", "issue", "--id", "alpha", "--test-seed", "102", "--insecure-test")
    run("kgc", "issue", "--id", "bravo", "--test-seed", "103", "--insecure-test")
    run("table", "gen", "--test-seed", "104", "--insecure-test")
    run("table", "gen", "--designated", "--recipient", "bravo",
        "--test-seed", "105", "--insecure-test")
    run("sign", "--key", "alpha", str(message),
        "--test-seed", "106", "--insecure-test")
    return {"home": home, "work": work, "message": message,
            "signature": work / "msg.txt.sig"}


def cli(realm, *argv):
    return main([*argv, "--home", str(realm["home"])])


def _fresh_home(tmp_path, *ids):
    """A new KGC home with keys for ``ids`` and a sealed signing table."""
    home = tmp_path / "home"
    steps = [("kgc", "init"), *(("kgc", "issue", "--id", i) for i in ids), ("table", "gen")]
    for seed, argv in enumerate(steps, start=501):
        assert main([*argv, "--home", str(home), "--test-seed", str(seed), "--insecure-test"]) == 0
    return home


def _sealed_in(realm, table, rng):
    """``table`` sealed under the realm home's ``table.seal``, as ``table gen`` writes it."""
    return serialize_table(table, seal_key=(realm["home"] / "table.seal").read_bytes(), rng=rng)


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------


def test_pipeline_writes_expected_files(realm):
    expected = ["kgc.sec", "system.pub", "alpha.key", "alpha.rec",
                "bravo.key", "bravo.rec", "bpv.tbl", "bravo.dtbl", "table.seal"]
    for name in expected:
        assert (realm["home"] / name).exists(), name
    assert realm["signature"].exists()


def test_secret_files_are_owner_only(realm):
    for name in ("kgc.sec", "alpha.key", "bravo.key", "bpv.tbl", "bravo.dtbl", "table.seal"):
        mode = stat.S_IMODE(os.stat(realm["home"] / name).st_mode)
        assert mode == 0o600, f"{name}: {oct(mode)}"


def test_public_files_are_world_readable(realm):
    for name in ("system.pub", "alpha.rec", "bravo.rec"):
        mode = stat.S_IMODE(os.stat(realm["home"] / name).st_mode)
        assert mode & stat.S_IROTH, f"{name}: {oct(mode)}"


def test_no_temp_files_left_behind(realm):
    strays = [p.name for p in realm["home"].iterdir() if p.name.startswith(".")]
    assert strays == []


def test_keyver_accepts_issued_key(realm, capsys):
    assert cli(realm, "keyver", "--key", "alpha") == 0
    assert "verifies against the system key" in capsys.readouterr().out


def test_keyver_json_output(realm, capsys):
    assert cli(realm, "keyver", "--key", "bravo", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"id": "bravo", "ok": True}


def test_verify_accepts_signature(realm, capsys):
    rc = cli(realm, "verify", "--sig", str(realm["signature"]), str(realm["message"]))
    assert rc == 0
    assert "good signature" in capsys.readouterr().out


def test_encrypt_decrypt_roundtrip_table_mode(realm, capsys):
    # bravo has a designated table in the home dir, so the table path is used
    rc = cli(realm, "encrypt", "--to", "bravo", str(realm["message"]),
             "--test-seed", "201", "--insecure-test")
    assert rc == 0
    assert "(table path)" in capsys.readouterr().out
    ct_path = realm["work"] / "msg.txt.enc"
    assert ct_path.exists()

    rc = cli(realm, "decrypt", "--key", "bravo", str(ct_path))
    assert rc == 0
    out_path = realm["work"] / "msg.txt.dec"
    assert out_path.read_bytes() == realm["message"].read_bytes()


def test_encrypt_direct_mode_without_table(realm, capsys):
    # alpha has no designated table, so the sender falls back to the
    # direct construction; the recipient decrypts either form
    rc = cli(realm, "encrypt", "--to", "alpha", str(realm["message"]),
             "--out", str(realm["work"] / "direct.enc"),
             "--test-seed", "202", "--insecure-test")
    assert rc == 0
    assert "(direct path)" in capsys.readouterr().out

    rc = cli(realm, "decrypt", "--key", "alpha", str(realm["work"] / "direct.enc"),
             "--out", str(realm["work"] / "direct.dec"))
    assert rc == 0
    assert (realm["work"] / "direct.dec").read_bytes() == realm["message"].read_bytes()


# A missing --table used to fall through to the direct path with exit 0,
# so a typo in the table's name went unnoticed.
@pytest.mark.parametrize("bare", [True, False], ids=["bare", "path"])
def test_encrypt_with_a_missing_named_table_is_io_error(realm, tmp_path, capsys, bare):
    table, out = "no-such-table" if bare else str(tmp_path / "bravo.dtbl"), tmp_path / "missing.enc"
    rc = cli(realm, "encrypt", "--to", "bravo", "--table", table, "--out", str(out),
             str(realm["message"]), "--test-seed", "208", "--insecure-test")
    assert rc == 3
    assert capsys.readouterr().err.startswith("IOError:")
    assert not out.exists()


def test_encrypt_json_reports_the_wire_overhead(realm, capsys):
    out = realm["work"] / "json.enc"
    rc = cli(realm, "encrypt", "--to", "bravo", str(realm["message"]), "--out", str(out),
             "--json", "--test-seed", "207", "--insecure-test")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "table"
    assert payload["overhead_bytes"] == WIRE_OVERHEAD
    wire = deserialize_ciphertext_file(out.read_bytes()).encode()
    assert len(wire) - len(realm["message"].read_bytes()) == WIRE_OVERHEAD


def test_exchange_agrees_and_prints_both_fingerprints(realm, capsys):
    rc = cli(realm, "exchange", "--key-a", "alpha", "--key-b", "bravo",
             "--test-seed", "203", "--insecure-test")
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("alpha: ") and lines[1].startswith("bravo: ")
    assert lines[0].split(": ")[1] == lines[1].split(": ")[1]
    assert lines[2] == "session keys agree"


def test_exchange_json_output(realm, capsys):
    rc = cli(realm, "exchange", "--key-a", "alpha", "--key-b", "bravo",
             "--json", "--test-seed", "204", "--insecure-test")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["fingerprint_a"] == payload["fingerprint_b"]
    assert len(payload["fingerprint_a"]) == 16


def test_exchange_fresh_keys_per_invocation(realm, capsys):
    cli(realm, "exchange", "--key-a", "alpha", "--key-b", "bravo",
        "--json", "--test-seed", "205", "--insecure-test")
    first = json.loads(capsys.readouterr().out)["fingerprint_a"]
    cli(realm, "exchange", "--key-a", "alpha", "--key-b", "bravo",
        "--json", "--test-seed", "206", "--insecure-test")
    second = json.loads(capsys.readouterr().out)["fingerprint_a"]
    assert first != second


def test_table_gen_seals_every_table_under_one_home_secret(realm, tmp_path):
    seal = (realm["home"] / "table.seal").read_bytes()
    assert len(seal) == 32
    for name in ("bpv.tbl", "bravo.dtbl"):
        assert (realm["home"] / name).read_bytes()[:8] == b"IODCBPV2", name
    out = tmp_path / "again.tbl"
    assert cli(realm, "table", "gen", "--out", str(out),
               "--test-seed", "211", "--insecure-test") == 0
    assert (realm["home"] / "table.seal").read_bytes() == seal
    rc = cli(realm, "sign", "--key", "alpha", "--table", str(out), str(realm["message"]),
             "--out", str(tmp_path / "again.sig"), "--test-seed", "212", "--insecure-test")
    assert rc == 0
    assert cli(realm, "verify", "--sig", str(tmp_path / "again.sig"), str(realm["message"])) == 0


def test_seal_written_by_a_concurrent_run_is_kept(tmp_path):
    # The state a second first-run meets when the first one linked its
    # secret in between the second's existence check and its own link.
    path = tmp_path / "table.seal"
    path.write_bytes(b"\x01" * 32)
    _write(path, b"\x02" * 32, secret=True, keep_existing=True)
    assert path.read_bytes() == b"\x01" * 32
    assert [p.name for p in tmp_path.iterdir()] == ["table.seal"]


# ---------------------------------------------------------------------------
# Cryptographic failures -> exit 1
# ---------------------------------------------------------------------------


def test_open_table_written_by_the_library_is_refused(realm, tmp_path, capsys):
    table_path = tmp_path / "open.tbl"
    table_path.write_bytes(serialize_table(bpv_offline(BpvParams(28, 256), random.Random(213))))
    sig_path = tmp_path / "open.sig"
    assert cli(realm, "sign", "--key", "alpha", "--table", str(table_path), "--out", str(sig_path),
               str(realm["message"]), "--test-seed", "214", "--insecure-test") == 1
    assert capsys.readouterr().err.startswith("UnsupportedVersion:")
    assert not sig_path.exists()


def _one_entry(bases, owner_binding=b""):
    """An open k=256 table of one entry repeated: its writer knows every nonce, 28*c."""
    c = Scalar(0xC0FFEE)
    stored = [addends([c * base]) * 256 for base in bases]
    return serialize_table(PrecompTable(BpvParams(28, 256), bases, [c] * 256, stored, owner_binding))


@pytest.mark.parametrize("seal", ["present", "deleted"])
def test_planted_open_signing_table_signs_nothing(tmp_path, capsys, seal):
    # One signature s = 28c - e*x from this table would give x = (28c - s) / e.
    home = _fresh_home(tmp_path, "alpha")
    (home / "bpv.tbl").write_bytes(_one_entry((G,)))
    if seal == "deleted":
        (home / "table.seal").unlink()
    message = tmp_path / "frame"
    message.write_bytes(b"frame")
    capsys.readouterr()
    rc = main(["sign", "--home", str(home), "--key", "alpha", str(message),
               "--test-seed", "511", "--insecure-test"])
    assert rc == 1
    error = "UnsupportedVersion:" if seal == "present" else "IntegrityMismatch:"
    assert capsys.readouterr().err.startswith(error)
    assert not (tmp_path / "frame.sig").exists()


def test_planted_open_designated_table_encrypts_nothing(tmp_path, capsys):
    # The true X and owner binding, but nonces its writer knows, so the
    # ciphertext would open without the recipient's key.
    home = _fresh_home(tmp_path, "bravo")
    record = deserialize_record((home / "bravo.rec").read_bytes())
    recipient_key = reconstruct_pub(record, deserialize_system_public((home / "system.pub").read_bytes()))
    (home / "bravo.dtbl").write_bytes(_one_entry((G, recipient_key), record.binding()))
    message = tmp_path / "frame"
    message.write_bytes(b"frame")
    capsys.readouterr()
    rc = main(["encrypt", "--home", str(home), "--to", "bravo", str(message),
               "--test-seed", "512", "--insecure-test"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("UnsupportedVersion:")
    assert not (tmp_path / "frame.enc").exists()


def test_table_sealed_in_another_home_fails_to_load(realm, tmp_path, capsys):
    foreign_home = tmp_path / "other-home"
    assert main(["table", "gen", "--home", str(foreign_home),
                 "--test-seed", "321", "--insecure-test"]) == 0
    capsys.readouterr()
    sig_path = tmp_path / "foreign.sig"
    rc = cli(realm, "sign", "--key", "alpha", "--table", str(foreign_home / "bpv.tbl"),
             "--out", str(sig_path), str(realm["message"]), "--test-seed", "322", "--insecure-test")
    assert rc == 1
    assert capsys.readouterr().err.startswith("IntegrityMismatch:")
    assert not sig_path.exists()


def test_sealed_table_in_a_home_without_a_seal_fails_to_load(realm, tmp_path, capsys):
    sig_path = tmp_path / "unsealed.sig"
    rc = main(["sign", "--home", str(tmp_path), "--key", str(realm["home"] / "alpha.key"),
               "--table", str(realm["home"] / "bpv.tbl"), "--out", str(sig_path),
               str(realm["message"]), "--test-seed", "323", "--insecure-test"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("IntegrityMismatch: a sealed table needs its seal key")
    assert not sig_path.exists()


def test_verify_rejects_tampered_message(realm, capsys):
    tampered = realm["work"] / "tampered.txt"
    data = bytearray(realm["message"].read_bytes())
    data[0] ^= 0x01
    tampered.write_bytes(bytes(data))
    rc = cli(realm, "verify", "--sig", str(realm["signature"]), str(tampered))
    assert rc == 1
    assert capsys.readouterr().err.startswith("VerifyFailed:")


def test_verify_rejects_a_record_of_another_signer(realm, tmp_path, monkeypatch, capsys):
    # mallory signs, renames the signer in the file to alpha, and plants their
    # own record as ./alpha, which the signer id resolves to first.
    assert cli(realm, "kgc", "issue", "--id", "mallory", "--test-seed", "311", "--insecure-test") == 0
    sig_path = tmp_path / "msg.txt.sig"
    assert cli(realm, "sign", "--key", "mallory", "--out", str(sig_path), str(realm["message"]),
               "--test-seed", "312", "--insecure-test") == 0
    _, sig = deserialize_signature_file(sig_path.read_bytes())
    sig_path.write_bytes(serialize_signature_file(b"alpha", sig))
    mallory_rec = realm["home"] / "mallory.rec"
    (tmp_path / "alpha").write_bytes(mallory_rec.read_bytes())
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    for extra in ((), ("--record", str(mallory_rec))):
        rc = cli(realm, "verify", "--sig", str(sig_path), *extra, str(realm["message"]))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("VerifyFailed:") and "good signature" not in captured.out


def test_verify_reads_bare_names_only_from_the_home(realm, tmp_path, monkeypatch, capsys):
    # Another KGC's system key and alpha record, as ./system and ./alpha,
    # must not vouch for that KGC's signature.
    foreign = _fresh_home(tmp_path, "alpha")
    message = tmp_path / "frame"
    message.write_bytes(b"frame")
    assert main(["sign", "--home", str(foreign), "--key", "alpha", str(message),
                 "--test-seed", "513", "--insecure-test"]) == 0
    work = tmp_path / "work"
    work.mkdir()
    (work / "system").write_bytes((foreign / "system.pub").read_bytes())
    (work / "alpha").write_bytes((foreign / "alpha.rec").read_bytes())
    monkeypatch.chdir(work)
    capsys.readouterr()
    rc = cli(realm, "verify", "--sig", f"{message}.sig", str(message))
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("VerifyFailed:") and "good signature" not in captured.out


@pytest.mark.parametrize("signer_id", [b"../alpha", b"al\x00pha"], ids=["separator", "nul"])
def test_verify_refuses_a_signer_id_that_is_not_a_plain_name(realm, tmp_path, capsys, signer_id):
    _, sig = deserialize_signature_file(realm["signature"].read_bytes())
    sig_path = tmp_path / "msg.txt.sig"
    sig_path.write_bytes(serialize_signature_file(signer_id, sig))
    rc = cli(realm, "verify", "--sig", str(sig_path), str(realm["message"]))
    assert rc == 1
    assert capsys.readouterr().err.startswith("InvalidIdentity:")


# A non-UTF-8 --id (the byte 0xff, as argv decodes it) used to end in a
# UnicodeEncodeError traceback.
@pytest.mark.parametrize("identity", ["absolute", "../escape", "..", "\udcff"],
                         ids=["absolute", "../escape", "..", "not-utf-8"])
def test_kgc_issue_refuses_an_identity_that_is_not_a_plain_name(realm, tmp_path, capsys, identity):
    if identity == "absolute":
        identity = str(tmp_path / "outside")
    home = realm["home"]
    before = sorted(home.iterdir())
    rc = cli(realm, "kgc", "issue", "--id", identity, "--test-seed", "514", "--insecure-test")
    assert rc == 1
    assert capsys.readouterr().err.startswith("InvalidIdentity:")
    assert sorted(home.iterdir()) == before
    assert list(tmp_path.iterdir()) == []
    assert not any(home.parent.glob("escape*"))


def test_designated_table_is_named_after_the_recipients_identity(tmp_path, capsys):
    home = _fresh_home(tmp_path, "bravo")
    assert main(["table", "gen", "--home", str(home), "--designated", "--recipient", "bravo.rec",
                 "--test-seed", "515", "--insecure-test"]) == 0
    assert (home / "bravo.dtbl").exists() and not (home / "bravo.rec.dtbl").exists()
    message = tmp_path / "frame"
    message.write_bytes(b"frame")
    for seed, to in enumerate(("bravo", "bravo.rec", str(home / "bravo.rec")), start=516):
        capsys.readouterr()
        assert main(["encrypt", "--home", str(home), "--to", to, str(message), "--json",
                     "--test-seed", str(seed), "--insecure-test"]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "table"


def test_decrypt_rejects_corrupted_ciphertext(realm, capsys):
    ct_path = realm["work"] / "msg.txt.enc"
    if not ct_path.exists():  # make a ciphertext if the roundtrip test has not run
        assert cli(realm, "encrypt", "--to", "bravo", str(realm["message"]),
                   "--test-seed", "207", "--insecure-test") == 0
        capsys.readouterr()
    blob = bytearray(ct_path.read_bytes())
    blob[-1] ^= 0x80
    bad = realm["work"] / "corrupt.enc"
    bad.write_bytes(bytes(blob))
    rc = cli(realm, "decrypt", "--key", "bravo", str(bad))
    assert rc == 1
    assert capsys.readouterr().err.startswith("MacMismatch:")


def test_sign_refuses_designated_table(realm, capsys):
    rc = cli(realm, "sign", "--key", "alpha", "--table", "bravo.dtbl",
             str(realm["message"]), "--test-seed", "208", "--insecure-test")
    assert rc == 1
    assert capsys.readouterr().err.startswith("UnsupportedParams:")


def test_encrypt_refuses_a_signing_table(realm, tmp_path, capsys):
    out = tmp_path / "msg.enc"
    rc = cli(realm, "encrypt", "--to", "bravo", "--table", str(realm["home"] / "bpv.tbl"),
             "--out", str(out), str(realm["message"]), "--test-seed", "210", "--insecure-test")
    assert rc == 1
    assert capsys.readouterr().err.startswith("UnsupportedParams:")
    assert not out.exists()


def test_table_gen_rejects_unvetted_params(realm, capsys):
    rc = cli(realm, "table", "gen", "--params", "2,4",
             "--test-seed", "209", "--insecure-test")
    assert rc == 1
    assert capsys.readouterr().err.startswith("UnsupportedParams:")


_TOY = BpvParams(1, 1, allow_unsafe=True)


def test_sign_refuses_an_unvetted_table_size(realm, tmp_path, capsys):
    # With v = k = 1 every signature reuses the one nonce r, so two
    # signatures s_i = r - e_i*x give away x = (s1 - s2) / (e2 - e1).
    table_path = tmp_path / "toy.tbl"
    rng = random.Random(215)
    table_path.write_bytes(_sealed_in(realm, bpv_offline(_TOY, rng), rng))
    sigs = []
    for i in range(2):
        message, sig_path = tmp_path / f"frame{i}", tmp_path / f"frame{i}.sig"
        message.write_bytes(b"frame %d" % i)
        rc = cli(realm, "sign", "--key", "alpha", "--table", str(table_path), "--out", str(sig_path),
                 str(message), "--test-seed", str(216 + i), "--insecure-test")
        if rc == 0:
            sigs.append(deserialize_signature_file(sig_path.read_bytes())[1])
            continue
        assert rc == 1
        assert capsys.readouterr().err.startswith("UnsupportedParams:")
        assert not sig_path.exists()
    if len(sigs) == 2:
        (s1, e1), (s2, e2) = [(sig.s.value, sig.e.value) for sig in sigs]
        recovered = (s1 - s2) * pow(e2 - e1, -1, N) % N
        secret = deserialize_drone_keypair((realm["home"] / "alpha.key").read_bytes()).secret
        assert recovered != secret.value, "two signatures gave away the signing key"
    assert sigs == []


def test_encrypt_refuses_an_unvetted_designated_table_size(realm, tmp_path, capsys):
    home = realm["home"]
    record = deserialize_record((home / "bravo.rec").read_bytes())
    recipient_key = reconstruct_pub(record, deserialize_system_public((home / "system.pub").read_bytes()))
    rng = random.Random(218)
    table = dbpv_offline(_TOY, recipient_key, record.binding(), rng)
    table_path = tmp_path / "toy.dtbl"
    table_path.write_bytes(_sealed_in(realm, table, rng))
    out = tmp_path / "msg.enc"
    rc = cli(realm, "encrypt", "--to", "bravo", "--table", str(table_path),
             "--out", str(out), str(realm["message"]), "--test-seed", "219", "--insecure-test")
    assert rc == 1
    assert capsys.readouterr().err.startswith("UnsupportedParams:")
    assert not out.exists()


def test_encrypt_refuses_table_built_under_another_system_key(realm, tmp_path, capsys):
    # bravo's own record, but the table was built over the key that record
    # reconstructs to under a different KGC
    foreign_home = tmp_path / "other-kgc"
    assert main(["kgc", "init", "--home", str(foreign_home),
                 "--test-seed", "311", "--insecure-test"]) == 0
    table_path = tmp_path / "bravo-other.dtbl"
    assert cli(realm, "table", "gen", "--designated", "--recipient", "bravo",
               "--system", str(foreign_home / "system.pub"), "--out", str(table_path),
               "--test-seed", "312", "--insecure-test") == 0
    capsys.readouterr()
    out = tmp_path / "msg.enc"
    rc = cli(realm, "encrypt", "--to", "bravo", "--table", str(table_path),
             "--out", str(out), str(realm["message"]), "--test-seed", "313", "--insecure-test")
    assert rc == 1
    assert capsys.readouterr().err.startswith("TableIntegrity:")
    assert not out.exists()


def test_foreign_key_fails_keyver_and_exchange(realm, tmp_path, capsys):
    foreign_home = tmp_path / "foreign"
    assert main(["kgc", "init", "--home", str(foreign_home),
                 "--test-seed", "301", "--insecure-test"]) == 0
    assert main(["kgc", "issue", "--id", "intruder", "--home", str(foreign_home),
                 "--test-seed", "302", "--insecure-test"]) == 0
    capsys.readouterr()
    for ext in (".key", ".rec"):
        data = (foreign_home / f"intruder{ext}").read_bytes()
        (realm["home"] / f"intruder{ext}").write_bytes(data)

    rc = cli(realm, "keyver", "--key", "intruder")
    assert rc == 1
    assert capsys.readouterr().err.startswith("KeyVerFailed:")

    rc = cli(realm, "exchange", "--key-a", "alpha", "--key-b", "intruder",
             "--test-seed", "303", "--insecure-test")
    assert rc == 1
    assert capsys.readouterr().err.startswith("KeyVerFailed:")


# ---------------------------------------------------------------------------
# Usage errors -> exit 2
# ---------------------------------------------------------------------------


def test_test_seed_requires_insecure_flag(realm):
    with pytest.raises(SystemExit) as exc:
        cli(realm, "kgc", "init", "--test-seed", "7")
    assert exc.value.code == 2


@pytest.mark.parametrize("given", [["--designated"], ["--recipient", "bravo"]])
def test_designated_requires_recipient(realm, given):
    # Either flag alone is a usage error, so --recipient alone cannot write a signing table.
    with pytest.raises(SystemExit) as exc:
        cli(realm, "table", "gen", *given)
    assert exc.value.code == 2


def test_bench_host_below_the_iteration_floor_is_usage_error(realm):
    with pytest.raises(SystemExit) as exc:
        cli(realm, "bench", "--profile", "host", "--op", "sign", "--iterations", "5")
    assert exc.value.code == 2


@pytest.mark.parametrize("given", [["--voltage", "3.3"], ["--current", "0.04"]])
def test_bench_voltage_and_current_go_together(realm, given):
    with pytest.raises(SystemExit) as exc:
        cli(realm, "bench", "--profile", "host", "--op", "sign", *given)
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err


def test_global_flags_accepted_before_and_after_subcommand(realm, capsys):
    home = str(realm["home"])
    assert main(["--home", home, "--json", "keyver", "--key", "alpha"]) == 0
    before = json.loads(capsys.readouterr().out)
    assert main(["keyver", "--key", "alpha", "--home", home, "--json"]) == 0
    after = json.loads(capsys.readouterr().out)
    assert before == after == {"id": "alpha", "ok": True}


# ---------------------------------------------------------------------------
# I/O errors -> exit 3
# ---------------------------------------------------------------------------


def test_missing_input_file_is_io_error(realm, capsys):
    rc = cli(realm, "decrypt", "--key", "bravo", "no-such-file.enc")
    assert rc == 3
    assert capsys.readouterr().err.startswith("IOError:")


def test_missing_home_is_io_error(tmp_path, capsys):
    rc = main(["keyver", "--key", "alpha", "--home", str(tmp_path / "empty")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("IOError:")


def test_second_kgc_init_is_io_error_and_keeps_the_realm(tmp_path, capsys):
    # A new master key would fail keyver for every key issued under the old one.
    home = _fresh_home(tmp_path, "alpha")
    files = {name: (home / name).read_bytes() for name in ("kgc.sec", "system.pub")}
    capsys.readouterr()
    rc = main(["kgc", "init", "--home", str(home), "--test-seed", "9", "--insecure-test"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("IOError:")
    assert {name: (home / name).read_bytes() for name in files} == files
    assert main(["keyver", "--key", "alpha", "--home", str(home)]) == 0


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------


def test_bench_choices_are_the_bench_modules():
    # The parser holds copies, so that only ``iodcrypt bench`` imports the module.
    assert BENCH_OPS == bench.BENCH_OPS
    assert BENCH_PROFILES == tuple(bench.PROFILES)


def test_bench_device_profile_prints_reference_table(realm, capsys):
    assert cli(realm, "bench", "--profile", "avr") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split()[:2] == ["profile", "op"]
    assert len(lines) == 2 + 6  # header, rule, six reference rows
    assert any("sign" in line for line in lines[2:])


def test_bench_device_profile_filters_by_op(realm, capsys):
    assert cli(realm, "bench", "--profile", "arm", "--op", "sign") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert "sign" in lines[2]


def test_bench_device_profile_json_rows_parse(realm, capsys):
    assert cli(realm, "bench", "--profile", "avr", "--json") == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 6
    for row in rows:
        assert row["profile"] == "avr"
        assert row["energy_mj"] == pytest.approx(row["reported_energy_mj"], rel=0.02)


def test_bench_device_rejects_unlisted_op(realm, capsys):
    rc = cli(realm, "bench", "--profile", "avr", "--op", "bpv_online")
    assert rc == 1
    assert capsys.readouterr().err.startswith("UnsupportedParams:")


def test_bench_host_measures_op(realm, capsys):
    rc = cli(realm, "bench", "--profile", "host", "--op", "sign",
             "--iterations", "10", "--voltage", "3.3", "--current", "0.04",
             "--test-seed", "401", "--insecure-test")
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    row = lines[2].split()
    assert row[0] == "host" and row[1] == "sign"


def test_bench_host_requires_op(realm, capsys):
    rc = cli(realm, "bench", "--profile", "host")
    assert rc == 1
    assert capsys.readouterr().err.startswith("UnsupportedParams:")
