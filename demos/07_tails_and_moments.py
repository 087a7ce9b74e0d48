"""Tail bounds: from second moments to high moments to concentration.

Markov on a high moment gives exponential tails once the moment order
scales with the deviation. This script walks the chain on a real
decoupling instance and on synthetic data where the constants are exact.
"""

import numpy as np

from decouplab import decoupling, ensembles, linalg, quantum, stats
from decouplab.entropy import SmoothingConfig


def shape(*labels):
    return linalg.SystemShape(tuple(labels))


rng = np.random.default_rng(3)
rho = quantum.random_state(shape(("A", 4), ("R", 2)), rng)
inst = decoupling.DecouplingInstance(
    rho=rho, channel=quantum.trace_out_channel(2, 2),
    cfg=SmoothingConfig(), a_labels=("A",),
)
w = decoupling.prepare(inst)

moments = decoupling.haar_expected_g_squared(inst, w)
print(f"second-moment estimate of the mean: mu <= {moments.mu_upper:.4f}")

# Tail parameters for a target mean mu and a deviation kappa. The moment
# order t, the design quality lambda the argument would need, and the
# failure probability all come out of the same arithmetic.
tail = decoupling.tail_parameters(inst, w, kappa=0.4, mu=moments.mu_upper)
print(f"kappa = 0.4:   a = {tail.a:.5f}, t = {tail.t}, "
      f"lambda required = {tail.lambda_required:.2e}")
print(f"  failure bound = {tail.bound:.3f}, vacuous = {tail.vacuous}")
print("  (a failure probability above 1 says nothing; at four dimensions")
print("   the exponent a*kappa^2 is far below log2(5), hence vacuous)")

# The bound only bites once a * kappa^2 clears log2(5). With a this small
# even kappa = 20 does not get there, which is the honest desk-scale story.
for kappa in (2.0, 20.0):
    t2 = decoupling.tail_parameters(inst, w, kappa=kappa, mu=moments.mu_upper)
    print(f"kappa = {kappa:>4}:  a*kappa^2 = {t2.a * kappa**2:.3f}, "
          f"bound = {t2.bound:.3f}, vacuous = {t2.vacuous}")

# Empirical tails of g over Haar draws, against the Markov bound built
# from centralized moments of the same series.
ens = ensembles.haar_ensemble(4, seed=8)
values = np.array([decoupling.g_value(inst, ens.sample(i), w)
                   for i in range(600)])
center = float(values.mean())
print(f"\n600 Haar draws of g: mean = {center:.4f}")
for m in (1, 2, 4):
    for kappa in (0.05, 0.1):
        row = stats.tail_from_moment(values, center, m, kappa)
        print(f"  order {m}, kappa {kappa}: empirical "
              f"{row['empirical']:.4f} <= markov {row['markov_bound']:.4f}"
              f"  ({'ok' if row['dominates'] else 'VIOLATED'})")

# Concentration of measure: f as a Lipschitz function of the unitary
# concentrates around its mean at rate exp(-dim * kappa^2 / 4L^2).
f_vals = np.array([decoupling.f_value(inst, ens.sample(1000 + i))
                   for i in range(600)])
lip = decoupling.lipschitz_bound(inst, w)
print(f"\nLipschitz constant for f: {lip:.3f}")
for row in stats.levy_consistency(f_vals, 4, lip, [0.1, 0.3, 0.9]):
    print(f"  kappa {row['kappa']}: empirical {row['empirical']:.4f} "
          f"<= bound {row['bound']:.4f}  ({'ok' if row['ok'] else 'VIOLATED'})")

# Moment transfer on synthetic data with known constants: a moment bound
# on |X| transfers to centralized and squared moments, in two regimes
# split at m = (9/64) a mu^2.
print("\nmoment transfer on synthetic |mu + N(0, 1/(2a))|:")
for c, a, mu, m in ((2.0, 50.0, 0.1, 4), (2.0, 0.5, 10.0, 1)):
    out = stats.moment_transfer_check(c, a, mu, m, samples=200_000, seed=4)
    print(f"  a={a}, mu={mu}, m={m}: regime {out['regime']}, "
          f"central {out['central_moment']:.3e} <= "
          f"{out['central_bound']:.3e} ({'ok' if out['central_ok'] else 'NO'})"
          f", square ok: {out['square_ok']}")

# Many-copy arithmetic: the constants explode long before the guarantee
# means anything at desk scale, and the report says so rather than hiding it.
inst_iid = decoupling.DecouplingInstance(
    rho=rho, channel=quantum.trace_out_channel(2, 2),
    cfg=SmoothingConfig(epsilon=1e-8), a_labels=("A",),
)
iid = decoupling.iid_parameters(inst_iid, n=8, kappa=0.5)
print(f"\n8 copies at epsilon = 1e-8: eps' = {iid.eps_prime:.2f} "
      f"(already far above 1)")
print(f"  threshold = {iid.threshold:.2f}, moment order t = {iid.t}")
print("  f never exceeds 2, so a threshold in the thousands carries no")
print("  information; the constants are honest but need much larger n")
