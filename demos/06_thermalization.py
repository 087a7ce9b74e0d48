"""When does a subsystem look thermal relative to a reference?

Split a closed system Om into subsystem S and environment E, evolve by a
random unitary, and compare what S-plus-reference actually looks like with
the decoupled target. The distance is exactly the decoupling error of the
partial-trace channel, so every bound from the decoupling toolbox applies.
"""

import numpy as np

from decouplab import decoupling, ensembles, linalg, quantum
from decouplab.entropy import SmoothingConfig


def shape(*labels):
    return linalg.SystemShape(tuple(labels))


# A generic correlated state on Om (x) R, with Om = S (x) E = 2 x 4.
rng = np.random.default_rng(42)
rho = quantum.random_state(shape(("Om", 8), ("R", 2)), rng)

report = decoupling.thermalization_check(
    rho, s_dim=2, e_dim=4, kappa=0.6,
    us=ensembles.haar_ensemble(8, seed=7).sample_batch(range(200)),
    cfg=SmoothingConfig(),
)

print("subsystem S = 2, environment E = 4, reference R = 2")
print(f"collision entropy of the input  h2(Om|R) = {report['h2_input']:.4f}")
print(f"mean distance to the thermal target = {report['mean_distance']:.4f}")
print(f"max distance over {report['samples']} draws  = "
      f"{report['max_distance']:.4f}")
print(f"fraction within kappa = {report['kappa']}: "
      f"{report['thermalized_fraction']:.3f}")
print(f"guaranteed fraction from the tail bound: "
      f"{report['predicted_fraction_lower']:.3f}")

tail = report["tail"]
print(f"\ntail parameters: a = {tail['a']:.5f}, t = {tail['t']}, "
      f"vacuous = {tail['vacuous']}")
print("(desk-scale dimensions rarely give a nonvacuous guarantee; the")
print(" observed fractions above are the empirical story)")

print("\npromises:")
for name, ok in sorted(report["promises"].items()):
    print(f"  {name}: {ok}")

# A state engineered for an exact pin: a maximally entangled pair shared
# with the reference, environment in a pure state. The collision entropy
# is forced to -1 and the tail coefficient to exactly 2^-7.
phi = quantum.epr_state(2, labels=("W", "R"))
pure = np.zeros((8, 8), dtype=complex)
pure[0, 0] = 1.0
big = np.kron(phi.matrix, pure)
shp = shape(("W", 2), ("R", 2), ("V", 8))
big = linalg.permute_systems(big, shp, ["W", "V", "R"])
pinned = quantum.DensitySystem.from_matrix(big, shape(("Om", 16), ("R", 2)))

pin = decoupling.thermalization_check(
    pinned, s_dim=2, e_dim=8, kappa=0.5,
    us=ensembles.haar_ensemble(16, seed=0).sample_batch(range(60)),
    cfg=SmoothingConfig(),
)
print(f"\nengineered pin: h2 = {pin['h2_input']:.6f} (exactly -1),"
      f"  a = {pin['tail']['a']:.8f} (exactly {2.0**-7})")
print(f"mean distance = {pin['mean_distance']:.4f}  "
      f"(entanglement with R obstructs thermalization)")

# Dimensions that do not factor can still be handled by embedding the
# system isometrically into a larger host before evolving.
rho3 = quantum.random_state(shape(("Om", 3), ("R", 2)), rng)
embed = linalg.random_unitary(6, rng)[:, :3]
rep3 = decoupling.thermalization_check(
    rho3, s_dim=2, e_dim=3, kappa=0.9,
    us=ensembles.haar_ensemble(3, seed=4).sample_batch(range(50)),
    cfg=SmoothingConfig(), embed=embed,
)
print(f"\n3-level system embedded in a 2 x 3 host: "
      f"mean distance = {rep3['mean_distance']:.4f}, "
      f"fraction within 0.9 = {rep3['thermalized_fraction']:.2f}")
