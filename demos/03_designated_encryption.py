"""Hybrid encryption with a receiver-bound table.

Encrypting to a fixed receiver normally costs two scalar
multiplications per message (the ephemeral key and the shared point).
A designated table precomputes both products for the same random
scalars, so the online path is point additions only.  The payload is
sealed with the ChaCha20-Poly1305 AEAD, which returns no plaintext
unless its tag verifies.
"""

import random

from iodcrypt.bpv import BpvParams
from iodcrypt.encrypt import decrypt, enc_kg_sender, encrypt, reference_encrypt
from iodcrypt.errors import MacMismatch
from iodcrypt.group import OpCounter
from iodcrypt.selfcert import aq_kg, kgc_setup, reconstruct_pub

rng = random.Random(3)
params = BpvParams(v=28, k=256)

print("== 1. Setup: a receiver and a sender bound to it ==")
kgc = kgc_setup(rng)
receiver = aq_kg(kgc, b"ground-station", rng)
with OpCounter() as ctr:
    sender = enc_kg_sender(receiver.record, kgc.public, params, rng)
print(f"designated table built from the receiver's record: "
      f"{ctr.scalar_mults} scalar mults offline")
print(f"sender context footprint: {sender.memory_bytes} bytes "
      f"({params.k} x 96 B triples + 32 B)")

print("\n== 2. Online encryption: additions only ==")
message = b"frame 88: gps 48.2082N 16.3738E alt 117m"
with OpCounter() as ctr:
    ct = encrypt(sender, message, rng)
print(f"encrypt cost: {ctr.scalar_mults} scalar mults, {ctr.point_adds} point adds "
      f"(2(v-1) = {2 * (params.v - 1)})")
print(f"wire size: {len(ct.encode())} bytes = {len(message)} payload + 48 overhead "
      "(32 ephemeral + 16 tag)")

print("\n== 3. The receiver decrypts with one multiplication ==")
with OpCounter() as ctr:
    plain = decrypt(receiver, ct)
print(f"decrypt cost: {ctr.scalar_mults} scalar mult, {ctr.point_adds} adds")
print(f"round trip ok: {plain == message}")

print("\n== 4. Tampering fails closed ==")
damaged_body = ct.body[:-1] + bytes([ct.body[-1] ^ 0x01])
tampered = type(ct)(ephemeral=ct.ephemeral, body=damaged_body, tag=ct.tag)
try:
    decrypt(receiver, tampered)
    print("tampered ciphertext accepted — this must never print")
except MacMismatch as exc:
    print(f"tampered ciphertext rejected: MacMismatch ({exc})")

stranger = aq_kg(kgc, b"wrong-device", rng)
try:
    decrypt(stranger, ct)
except MacMismatch:
    print("wrong recipient rejected: MacMismatch")

print("\n== 5. Interop with the plain (table-free) sender ==")
receiver_key = reconstruct_pub(receiver.record, kgc.public)
with OpCounter() as ctr:
    ct_direct = reference_encrypt(receiver_key, message, rng)
print(f"direct encrypt cost: {ctr.scalar_mults} scalar mults (the table saves these)")
print(f"receiver decrypts it identically: {decrypt(receiver, ct_direct) == message}")
