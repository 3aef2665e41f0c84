"""Signing without online scalar multiplications.

A scalar multiplication is the expensive step in Schnorr-style signing.
This demo builds a precomputation table once (offline, on the bench or
charger), then signs messages by summing a secret random subset of the
table — point additions only.  An operation counter, bound around each
step with ``with OpCounter() as ctr:``, proves the claim, and a quick
timing run shows the speedup over a plain reference signer.
"""

import random
import statistics
import time

from iodcrypt.bpv import BpvParams, subset_space_bits
from iodcrypt.group import G, OpCounter, scalar_mult
from iodcrypt.selfcert import kgc_setup
from iodcrypt.sign import VerifierContext, reference_sign, reference_verify, sign, sign_kg, verify

rng = random.Random(2)
params = BpvParams(v=28, k=256)

print("== 1. Offline: issue a key and build the nonce table ==")
kgc = kgc_setup(rng)
with OpCounter() as ctr:
    signer = sign_kg(kgc, b"drone-7", params, rng)
print(f"table of k={params.k} pairs built with {ctr.scalar_mults} scalar mults "
      f"(one-time cost)")
print(f"signer context footprint: {signer.memory_bytes} bytes "
      f"({params.k} x 64 B entries + 32 B key)")
print(f"nonce subset space: C({params.k},{params.v}) ~ 2^"
      f"{subset_space_bits(params):.1f}")

print("\n== 2. Online: sign with zero scalar multiplications ==")
message = b"waypoint reached, battery at 71%"
with OpCounter() as ctr:
    sig = sign(signer, message, rng)
print(f"sign cost: {ctr.scalar_mults} scalar mults, {ctr.point_adds} point adds "
      f"(v-1 = {params.v - 1})")

print("\n== 3. Verification, two independent ways ==")
vctx = VerifierContext.build(signer.keypair.record, kgc.public)
with OpCounter() as ctr:
    ok_fast = verify(vctx, message, sig)
public_key = scalar_mult(signer.keypair.secret, G)
ok_ref = reference_verify(public_key, message, sig)
print(f"production verifier: {ok_fast} ({ctr.scalar_mults} mults, {ctr.point_adds} add)")
print(f"reference verifier : {ok_ref}")
print(f"tampered message   : {verify(vctx, message + b'!', sig)}")

print("\n== 4. Timing: precomputed vs reference signer ==")
def median_ms(fn, n=100):
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3

fast = median_ms(lambda: sign(signer, message, rng))
slow = median_ms(lambda: reference_sign(signer.keypair.secret, message, rng))
print(f"precomputed sign : {fast:.3f} ms median")
print(f"reference sign   : {slow:.3f} ms median")
print(f"speedup          : {slow / fast:.1f}x "
      "(embedded targets see far more — their scalar mult is costlier)")
