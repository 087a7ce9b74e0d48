"""A split-register family where every Haar moment is available in closed form.

Take A = A1 (x) A2 with a flat input state and the channel that keeps A1
while discarding A2. The moment coefficients collapse to rational functions
of the two dimensions, which makes the family a sharp cross-check: the
generic weight machinery has to reproduce the closed forms exactly, and a
Monte Carlo pass has to land on the same second moment.
"""

import numpy as np

from decouplab import decoupling, ensembles

a1, a2, r = 2, 4, 2
inst, w, info = decoupling.fqsw_instance(a1, a2, r, seed=11)

print(f"registers: |A1| = {a1}, |A2| = {a2}, |R| = {r}")
print(f"closed-form coefficients: alpha = {info['alpha_closed']:.6f}  "
      f"beta = {info['beta_closed']:.6f}  eta = {info['eta_closed']:.3f}")

moments = decoupling.haar_expected_g_squared(inst, w)
print(f"generic route:            alpha = {moments.alpha:.6f}  "
      f"beta = {moments.beta:.6f}  eta = {moments.eta:.3f}")
print(f"coefficient gaps: {abs(moments.alpha - info['alpha_closed']):.2e}, "
      f"{abs(moments.beta - info['beta_closed']):.2e}")

e_closed = info["expected_g_squared_closed"]
print(f"\nE[g^2] closed form = {e_closed:.8f}")
print(f"E[g^2] generic     = {moments.expected_g_squared:.8f}")

# A few hundred Haar draws should agree to within sampling error.
ens = ensembles.haar_ensemble(a1 * a2, seed=5)
g2 = np.array([decoupling.g_value(inst, ens.sample(i), w) ** 2
               for i in range(400)])
se = g2.std(ddof=1) / np.sqrt(len(g2))
print(f"E[g^2] Monte Carlo = {g2.mean():.8f} +- {se:.1e}  (400 draws)")
print(f"within 3 standard errors: {abs(g2.mean() - e_closed) <= 3 * se}")

# The family also states promises about its own weights. They are
# diagnostics, not preconditions: the report says which ones hold here.
print("\npromises at this size:")
for name, ok in sorted(info["promises"].items()):
    print(f"  {name}: {ok}")

lo, hi = info["second_moment_window"]
print(f"\nsecond-moment window [{lo:.6f}, {hi:.6f}]"
      f"  contains E[g^2]: {lo <= e_closed <= hi}")
print(f"tail coefficient a = {info['tail_a']:.6f}")

# Design quality needed for the tail argument, as a function of the
# moment order. The window shrinks geometrically in t.
print("\nspectral-gap window for an approximate design:")
for t in (1, 2, 3):
    log2_lo, log2_hi = decoupling.fqsw_log2_lambda_sandwich(a1, a2, w.h2_eps, t)
    lam_lo, lam_hi = 2.0 ** log2_lo, 2.0 ** log2_hi
    print(f"  t={t}:  {lam_lo:.3e} .. {lam_hi:.3e}")
print("gaps this small are far below anything reachable at desk scale;")
print("the sandwich documents what the argument would demand, not a test")
print("we expect hardware-sized ensembles to pass.")
