"""What each CLI command reads of a drone key file.

``sign`` reads the id and x, and ``decrypt`` reads x, through
``read_drone_key``: neither decodes U or x*D, so a key file whose U or
x*D is malformed still signs and decrypts.  ``keyver`` and ``exchange``
decode and check every point, and reject a flipped U or x*D with the
error classes they always gave.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from iodcrypt import bpv, cli, group, selfcert
from iodcrypt.cli import main
from iodcrypt.errors import MalformedElement
from iodcrypt.selfcert import deserialize_drone_keypair, read_drone_key


@pytest.fixture(scope="module")
def home(tmp_path_factory):
    home = tmp_path_factory.mktemp("key-file-home")
    steps = [("kgc", "init"), ("kgc", "issue", "--id", "alpha"),
             ("kgc", "issue", "--id", "bravo"), ("table", "gen")]
    for seed, argv in enumerate(steps, start=501):
        assert main([*argv, "--home", str(home), "--test-seed", str(seed), "--insecure-test"]) == 0
    return home


def _run(home, *argv):
    """(exit code, the error class that stderr names, or '')."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--home", str(home)])
    return code, err.getvalue().split(":")[0]


def _flipped(home, field, byte, mask):
    """alpha's key file with one bit of U or x*D flipped, written as home/flip.key."""
    raw = bytearray((home / "alpha.key").read_bytes())
    raw[len(raw) - (64 if field == "U" else 32) + byte] ^= mask
    (home / "flip.key").write_bytes(bytes(raw))
    return bytes(raw)


def _spy_decode_element(monkeypatch):
    seen = []

    def spy(data):
        seen.append(bytes(data))
        return group.decode_element(data)

    for module in (selfcert, bpv):
        monkeypatch.setattr(module, "decode_element", spy)
    return seen


def test_sign_and_decrypt_decode_no_point_of_the_key_file(home, tmp_path, monkeypatch):
    message = tmp_path / "msg"
    message.write_bytes(b"heading 270\n")
    assert _run(home, "encrypt", "--to", "alpha", str(message)) == (0, "")
    key = (home / "alpha.key").read_bytes()
    seen = _spy_decode_element(monkeypatch)
    assert _run(home, "sign", "--key", "alpha", str(message)) == (0, "")
    assert _run(home, "decrypt", "--key", "alpha", f"{message}.enc") == (0, "")
    assert seen == []
    assert (tmp_path / "msg.dec").read_bytes() == message.read_bytes()
    # The control: keyver decodes both points of the same file, then the system key.
    assert _run(home, "keyver", "--key", "alpha") == (0, "")
    assert seen[:2] == [key[-64:-32], key[-32:]]


# A bit of U or x*D, and what keyver and exchange (with bravo) give for it: the
# flips that leave no subgroup point raise MalformedElement in both; the sign bit
# of U gives another point, which fails key_ver, and the sign bit of x*D gives
# -x*D, which fails the compare with x times the system key; both commands make
# both checks.
FLIPS = [
    ("U", 0, 0x01, "MalformedElement", "MalformedElement"),
    ("U", 17, 0x04, "MalformedElement", "MalformedElement"),
    ("U", 31, 0x40, "MalformedElement", "MalformedElement"),
    ("U", 31, 0x80, "KeyVerFailed", "KeyVerFailed"),
    ("xD", 0, 0x01, "MalformedElement", "MalformedElement"),
    ("xD", 12, 0x02, "MalformedElement", "MalformedElement"),
    ("xD", 31, 0x40, "MalformedElement", "MalformedElement"),
    ("xD", 31, 0x80, "KeyVerFailed", "KeyVerFailed"),
]


@pytest.mark.parametrize("field,byte,mask,keyver,exchange", FLIPS,
                         ids=[f"{f[0]}-{f[1]}-{f[2]:#x}" for f in FLIPS])
def test_keyver_and_exchange_check_every_point(home, field, byte, mask, keyver, exchange):
    _flipped(home, field, byte, mask)
    assert _run(home, "keyver", "--key", "flip") == (1 if keyver else 0, keyver)
    assert _run(home, "exchange", "--key-a", "flip", "--key-b", "bravo") == (1, exchange)


def test_a_negated_xd_is_named_before_any_handshake(home, monkeypatch):
    # -x*D decodes; only the compare with x times the system key rejects it, and
    # exchange makes that compare for each side before either side finalizes.
    _flipped(home, "xD", 31, 0x80)
    finalized, real = [], cli.aq_hang_finalize
    monkeypatch.setattr(cli, "aq_hang_finalize",
                        lambda own, *args: finalized.append(own) or real(own, *args))
    for argv in (("keyver", "--key", "flip"), ("exchange", "--key-a", "flip", "--key-b", "bravo")):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--home", str(home)]) == 1
        assert err.getvalue() == "KeyVerFailed: key for b'alpha' fails verification\n", argv
    assert finalized == []


@pytest.mark.parametrize("field,byte,mask", [f[:3] for f in FLIPS if f[3] == "MalformedElement"],
                         ids=[f"{f[0]}-{f[1]}-{f[2]:#x}" for f in FLIPS if f[3] == "MalformedElement"])
def test_sign_and_decrypt_accept_a_key_file_whose_points_are_malformed(home, tmp_path, field, byte,
                                                                       mask):
    data = _flipped(home, field, byte, mask)
    with pytest.raises(MalformedElement):
        deserialize_drone_keypair(data)
    good = deserialize_drone_keypair((home / "alpha.key").read_bytes())
    key = read_drone_key(data)
    assert (key.drone_id, key.secret) == (good.record.drone_id, good.secret)
    message = tmp_path / "msg"
    message.write_bytes(b"landing gear down\n")
    assert _run(home, "sign", "--key", "flip", str(message)) == (0, "")
    assert _run(home, "verify", "--sig", f"{message}.sig", str(message)) == (0, "")
    assert _run(home, "encrypt", "--to", "alpha", str(message)) == (0, "")
    assert _run(home, "decrypt", "--key", "flip", f"{message}.enc") == (0, "")
    assert (tmp_path / "msg.dec").read_bytes() == message.read_bytes()
