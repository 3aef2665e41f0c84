"""Identity issuance and key exchange, end to end.

A key generation centre (KGC) issues self-certified keys: each device
gets a private scalar plus a public identity record, and anyone holding
the system key can recompute the device's public key from the record
alone — no certificate is ever transmitted or checked.  Two issued
devices can then derive a pairwise secret from the records, and run an
ephemeral handshake on top of it for forward secrecy.
"""

import random

from iodcrypt.group import G, OpCounter, Scalar
from iodcrypt.selfcert import (
    aq_hang_finalize,
    aq_hang_initiate,
    aq_kg,
    aq_shared_static,
    key_ver,
    kgc_setup,
    reconstruct_pub,
    serialize_record,
)

rng = random.Random(1)  # deterministic for the demo; use SystemRandom in production

print("== 1. The authority sets up ==")
kgc = kgc_setup(rng)
print(f"system public key D = {kgc.public.encode().hex()[:32]}...")

print("\n== 2. Two drones get self-certified keys ==")
drone = aq_kg(kgc, b"drone-7", rng)
station = aq_kg(kgc, b"ground-station", rng)
for keypair in (drone, station):
    rec = keypair.record
    print(f"issued {rec.drone_id.decode():>14}: record is just "
          f"(id, U={rec.commitment.encode().hex()[:16]}...) — "
          f"{len(serialize_record(rec))} bytes on the wire")

print("\n== 3. Anyone can recompute a public key from the record ==")
with OpCounter() as ctr:
    recomputed = reconstruct_pub(drone.record, kgc.public)
honest = recomputed == Scalar(drone.secret.v) * G
print(f"reconstructed X equals x*G: {honest} "
      f"(cost: {ctr.scalar_mults} mults, {ctr.point_adds} adds)")
print(f"key_ver(drone)   -> {key_ver(drone.record, drone.secret, kgc.public)}")

forged = type(drone.record)(b"drone-7", drone.record.commitment + G)
print(f"key_ver(tampered record) -> {key_ver(forged, drone.secret, kgc.public)}")

print("\n== 4. Static pairwise secret, straight from the records ==")
with OpCounter() as ctr:
    k_ds = aq_shared_static(drone, station.record)
k_sd = aq_shared_static(station, drone.record)
print(f"drone's view   : {k_ds.encode().hex()[:32]}...")
print(f"station's view : {k_sd.encode().hex()[:32]}...")
print(f"match: {k_ds == k_sd} (cached path cost: {ctr.scalar_mults} mult, "
      f"{ctr.point_adds} add)")

print("\n== 5. Ephemeral handshake for forward secrecy ==")
state_d = aq_hang_initiate(drone, rng)
state_s = aq_hang_initiate(station, rng)
session_d = aq_hang_finalize(drone, state_d, state_s.message)
session_s = aq_hang_finalize(station, state_s, state_d.message)
print(f"drone session fingerprint   : {session_d.fingerprint()}")
print(f"station session fingerprint : {session_s.fingerprint()}")
print(f"sessions agree: {session_d.key == session_s.key}")

again = aq_hang_finalize(drone, aq_hang_initiate(drone, rng),
                         aq_hang_initiate(station, rng).message)
print(f"a rerun derives a fresh key: {again.key != session_d.key}")
