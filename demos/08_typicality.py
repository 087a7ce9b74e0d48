"""Typical sets, counted exactly, and what they say about iid entropies.

At small n every type class can be enumerated, so the asymptotic
statements become finite inequalities you can check to the last sequence.
The same counting powers the aggregated max-entropy of product states,
which a dense tensor-power computation must reproduce digit for digit.
"""

import numpy as np

from decouplab import entropy, linalg, quantum, typicality
from decouplab.entropy import SmoothingConfig


def shape(*labels):
    return linalg.SystemShape(tuple(labels))


# All compositions of n = 6 symbols over a 3-letter alphabet: one row of
# letter counts per type class, with the class's exact sequence count.
table = typicality.enumerate_types(6, 3)
print(f"type classes of length 6 over 3 letters: {len(table.sizes)}")
mid = len(table.sizes) // 2
print(f"example class {tuple(table.counts[mid].tolist())}: "
      f"{table.sizes[mid]} sequences")

# Fair coin, 10 tosses, delta = 0.2: the typical set is exactly the
# sequences with 4, 5 or 6 heads.
spec = typicality.TypicalSpec(probs=(0.5, 0.5), n=10, delta=0.2)
rep = typicality.typical_report(spec, eps=0.5)
print(f"\nfair coin, n = 10, delta = 0.2:")
print(f"  typical sequences: {rep['typical_count']} "
      f"(C(10,4) + C(10,5) + C(10,6) = 672)")
print(f"  typical mass: {rep['typical_mass']:.4f}")
print(f"  count bound 2^(n(1+delta)h) holds: {rep['count_ok']}")
print(f"  n needed for mass >= 1 - eps by the generic bound: "
      f"{rep['n_threshold']:.0f}  (n = 10 is below it: "
      f"{rep['sub_threshold']}; the mass check above ran anyway)")

# A biased source needs more copies before the bounds engage.
spec_b = typicality.TypicalSpec(probs=(0.9, 0.1), n=25, delta=0.25)
rep_b = typicality.typical_report(spec_b, eps=0.2)
print(f"\nbiased (0.9, 0.1), n = 25: typical mass = "
      f"{rep_b['typical_mass']:.4f}, threshold n = {rep_b['n_threshold']:.0f}")
print(f"generic copy threshold from the bound: "
      f"{typicality.aep_threshold((0.9, 0.1), eps=0.2, delta=0.25):.0f}")

# Quantum states reduce to their spectra: the typical projector of a
# qubit with eigenvalues (0.7, 0.3) is the classical story in disguise.
qubit = quantum.DensitySystem(np.diag([0.7, 0.3]).astype(complex),
                              shape(("S", 2)))
qrep = typicality.quantum_typical_report(qubit, n=12, delta=0.3, eps=0.4)
print(f"\nqubit spectrum (0.7, 0.3), n = 12:")
print(f"  typical projector rank {qrep['projector_rank']} of "
      f"{2**12}, mass {qrep['projector_mass']:.4f}")
print(f"  rank bound holds: {qrep['rank_ok']}; mass bound holds: "
      f"{qrep['mass_ok']} (n = 12 is below the guarantee threshold: "
      f"{qrep['sub_threshold']}, so a miss here is expected)")

# Aggregated max-entropy of an iid product, computed by type counting
# alone, against the dense tensor-power spectrum.
probs = (0.6, 0.3, 0.1)
state = quantum.DensitySystem(np.diag(probs).astype(complex),
                              shape(("X", 3)))
print("\naggregated vs dense smoothed max-entropy, spectrum (0.6, 0.3, 0.1):")
for n in (2, 3, 4):
    agg = typicality.hmax_prime_iid_aggregated(probs, n, eps=0.1)
    full = np.diag(probs)
    dense = full
    for _ in range(n - 1):
        dense = np.kron(dense, full)
    ds = quantum.DensitySystem(dense.astype(complex), shape(("Xn", 3**n)))
    direct, _ = entropy.hmax_prime(ds, 0.1)
    print(f"  n={n}: aggregated {agg:.10f}  dense {direct:.10f}  "
          f"gap {abs(agg - direct):.1e}")

# Per-copy sandwich for the smoothed max-entropy of n iid copies.
srep = typicality.hmax_prime_iid_check((0.7, 0.3), n=6, eps=0.25, delta=0.9)
print(f"\nmax-entropy sandwich, (0.7, 0.3) at n = 6:")
print(f"  {srep['lower']:.3f} <= {srep['value_bits']:.3f} "
      f"<= {srep['upper']:.3f}  (holds: {srep['sandwich_ok']})")

# Conditional collision entropy of a bipartite product, full-spectrum
# mode: both directions of the window are verified on the actual operator.
pi4 = quantum.DensitySystem(np.eye(4, dtype=complex) / 4,
                            shape(("A", 2), ("B", 2)))
crep = typicality.h2_prime_iid_bound_check(pi4, n=2, eps=1e-20, delta=0.02)
print(f"\nconditional collision window, two copies of the flat two-qubit "
      f"state (mode: {crep['mode']}):")
print(f"  {crep['lower']:.4f} <= {crep['value_bits']:.4f} <= "
      f"{crep['upper']:.4f}")
print(f"  lower holds: {crep['lower_holds']}, upper holds: "
      f"{crep['upper_holds']}")
