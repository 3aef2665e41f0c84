"""From cycle counts to millijoules: the energy model.

Battery budgets, not latency, decide what cryptography a small flying
device can afford.  The model is E = V * I * t with t = cycles / clock:
supply voltage times current draw times execution time.  This demo
replays the frozen reference figures for two embedded profiles, then
measures a few operations on this host and projects them onto the same
model.
"""

import random

from iodcrypt.bench import (
    PROFILES,
    REFERENCE_OP_ORDER,
    REFERENCE_ROWS,
    DeviceProfile,
    device_report,
    format_text_table,
    host_report,
    project_energy,
    run_bench,
)

print("== 1. The arithmetic, spelled out once ==")
profile = PROFILES["avr"]
row = REFERENCE_ROWS[("avr", "sign")]
report = project_energy(profile, cycles=row.cycles)
print(f"{profile.name}: {row.cycles:,} cycles / {profile.clock_hz:,.0f} Hz "
      f"= {report.time_seconds:.4f} s")
print(f"E = {profile.voltage} V * {profile.current} A * {report.time_seconds:.4f} s "
      f"= {report.energy_joules * 1e3:.2f} mJ  (reference figure: {row.energy_mj} mJ)")

print("\n== 2. Both embedded profiles, all reference rows ==")
for name in PROFILES:
    print(format_text_table(device_report(name)))
    print()

print("== 3. Worst deviation between projection and reference ==")
worst = max(
    abs(project_energy(PROFILES[p], cycles=r.cycles).energy_joules * 1e3 - r.energy_mj)
    / r.energy_mj
    for (p, _), r in REFERENCE_ROWS.items()
)
print(f"{worst:.3%} across {len(REFERENCE_ROWS)} rows (tolerance 2%)")

print("\n== 4. Measure this host and project it like a device ==")
rng = random.Random(4)
host = DeviceProfile(name="host", voltage=3.3, current=0.040)
results = run_bench(("sign", "verify", "encrypt", "decrypt"), 30, rng)
print(format_text_table(host_report(results, host)))
print("\nThe precomputed ops (sign, encrypt) spend additions, not "
      "multiplications — that is where the energy goes on a drone.")
print("Reference op order for reports:", ", ".join(REFERENCE_OP_ORDER))
