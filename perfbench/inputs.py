"""Seeded input generators: the same seed gives byte-identical inputs.

The program under test only ever receives what these functions return:
key and table files as bytes, telemetry frames, and wire messages.  Key
material is issued here with a seeded ``random.Random`` so that a seed
fixes every input byte; the program's own randomness (nonces, subsets)
stays the system source it uses in production.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import iodcrypt.bpv as bpv
import iodcrypt.encrypt as enc
import iodcrypt.selfcert as selfcert
import iodcrypt.sign as sig
from iodcrypt.selfcert import HangState, SelfCertKeypair

PARAMS = bpv.BpvParams(v=28, k=256)
FRAME_MIN, FRAME_MAX = 64, 4096
FLEET = 16
DRONE_ID = b"drone-07"
GROUND_ID = b"ground"

# A drone signs every frame and encrypts ENCRYPTED_PER_BLOCK of each
# BLOCK frames to the ground station.
BLOCK, ENCRYPTED_PER_BLOCK = 16, 8
# The ground station receives what its fleet sends: per drone, one
# signature file per frame and one ciphertext file per encrypted frame,
# so verify and decrypt come at 2:1.  The paper sets no session lifetime;
# the modelled policy is that a drone opens a fresh session with one
# handshake per SESSION_FRAMES frames (about 130 KiB of telemetry at the
# mean frame size), so that one session key covers a bounded amount of
# traffic without the handshake dominating the station's work.
SESSION_FRAMES = 64
DOWNLINK_MIX = (("verify", SESSION_FRAMES),
                ("decrypt", SESSION_FRAMES * ENCRYPTED_PER_BLOCK // BLOCK),
                ("handshake", 1))
TAMPER_RATE = 0.05

# Byte offsets inside the wire formats, used only to aim tampering.
_CT_EPHEMERAL = slice(9, 41)  # "IODCENC1" | group | R (32B) | len (4B) | body | tag
_CT_BODY_START = 45
_SIG_PREFIX = 10  # "IODCSIG1" | group | id_len, then id, then s (32B) | e (32B)
_S_LOW_BYTES = 25  # flips below 2^200 keep s far below the group order


@dataclass(frozen=True)
class UplinkFiles:
    """What a drone holds on flash, plus the ground key the checks decrypt with."""

    drone_key: bytes
    sign_table: bytes
    designated_table: bytes
    ground_record: bytes
    system_public: bytes
    ground_key: bytes


@dataclass(frozen=True)
class Frame:
    data: bytes
    encrypt: bool
    check: bool


@dataclass(frozen=True)
class DownlinkFiles:
    ground_key: bytes
    system_public: bytes
    records: tuple[bytes, ...]


@dataclass(frozen=True)
class Message:
    """One wire message to the ground station and what a correct answer is.

    ``payload`` is the signed frame (verify) or the expected plaintext
    (decrypt).  For a handshake, ``drone`` and ``state`` let the check
    finish the drone's side of the exchange.
    """

    kind: str
    wire: bytes
    payload: bytes = b""
    tampered: bool = False
    drone: SelfCertKeypair | None = None
    state: HangState | None = None


def uplink_files(seed: int) -> UplinkFiles:
    rng = random.Random(f"{seed}:uplink-keys")
    kgc = selfcert.kgc_setup(rng)
    drone = selfcert.aq_kg(kgc, DRONE_ID, rng)
    ground = selfcert.aq_kg(kgc, GROUND_ID, rng)
    table = bpv.bpv_offline(PARAMS, rng)
    sender = enc.enc_kg_sender(ground.record, kgc.public, PARAMS, rng)
    return UplinkFiles(
        drone_key=selfcert.serialize_drone_keypair(drone),
        sign_table=bpv.serialize_table(table),
        designated_table=bpv.serialize_table(sender.table),
        ground_record=selfcert.serialize_record(ground.record),
        system_public=selfcert.serialize_system_public(kgc.public),
        ground_key=selfcert.serialize_drone_keypair(ground),
    )


def uplink_frames(seed: int):
    """Endless telemetry frames; a seeded half of each block of 16 are also encrypted."""
    rng = random.Random(f"{seed}:uplink-frames")
    while True:
        encrypted = set(rng.sample(range(BLOCK), ENCRYPTED_PER_BLOCK))
        for j in range(BLOCK):
            data = rng.randbytes(rng.randint(FRAME_MIN, FRAME_MAX))
            yield Frame(data=data, encrypt=j in encrypted, check=rng.random() < 1 / 64)


class DownlinkInputs:
    """A ground station, its 16-drone fleet, and a seeded stream of wire messages.

    Messages are made with the reference signer and encryptor, whose output
    is byte-compatible with the table paths.
    """

    def __init__(self, seed: int):
        rng = random.Random(f"{seed}:downlink-keys")
        kgc = selfcert.kgc_setup(rng)
        self.ground = selfcert.aq_kg(kgc, GROUND_ID, rng)
        self.drones = [selfcert.aq_kg(kgc, f"drone-{i:02d}".encode(), rng)
                       for i in range(FLEET)]
        self.files = DownlinkFiles(
            ground_key=selfcert.serialize_drone_keypair(self.ground),
            system_public=selfcert.serialize_system_public(kgc.public),
            records=tuple(selfcert.serialize_record(d.record) for d in self.drones),
        )
        self._ground_public = selfcert.reconstruct_pub(self.ground.record, kgc.public)
        self._rng = random.Random(f"{seed}:downlink-stream")
        self._kinds = [kind for kind, _ in DOWNLINK_MIX]
        self._weights = [weight for _, weight in DOWNLINK_MIX]

    def take(self, n: int) -> list[Message]:
        """The next n messages of the stream."""
        return [self._next() for _ in range(n)]

    def _next(self) -> Message:
        rng = self._rng
        kind = rng.choices(self._kinds, self._weights)[0]
        drone = self.drones[rng.randrange(FLEET)]
        if kind == "handshake":
            state = selfcert.aq_hang_initiate(drone, rng)
            return Message(kind, state.message, drone=drone, state=state)
        frame = rng.randbytes(rng.randint(FRAME_MIN, FRAME_MAX))
        tampered = rng.random() < TAMPER_RATE
        if kind == "verify":
            wire = sig.serialize_signature_file(
                drone.record.drone_id, sig.reference_sign(drone.secret, frame, rng))
            payload = frame
            if tampered:
                if rng.random() < 0.5:
                    payload = _flip(frame, rng.randrange(len(frame) * 8))
                else:
                    s_at = _SIG_PREFIX + len(drone.record.drone_id)
                    wire = _flip(wire, s_at * 8 + rng.randrange(_S_LOW_BYTES * 8))
            return Message(kind, wire, payload, tampered)
        ct = enc.reference_encrypt(self._ground_public, frame, rng)
        wire = enc.serialize_ciphertext_file(ct)
        if tampered:
            if rng.random() < 0.5:
                bit = _CT_EPHEMERAL.start * 8 + rng.randrange(32 * 8)
            else:
                bit = _CT_BODY_START * 8 + rng.randrange((len(wire) - _CT_BODY_START) * 8)
            wire = _flip(wire, bit)
        return Message(kind, wire, frame, tampered)


def cli_frame(seed: int, round_no: int) -> bytes:
    """The 4 KiB file that round ``round_no`` of the CLI workload works on."""
    return random.Random(f"{seed}:cli:{round_no}").randbytes(4096)


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)
