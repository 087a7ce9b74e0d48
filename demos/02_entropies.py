"""The one-shot entropy zoo on a single worked state.

Every smoothed quantity here carries a certified side: lower bounds come
from feasible points inside the ball, upper bounds from explicit smoothing
candidates. The printout shows the values, the sides, and the sandwiches
tying the alternate definitions to the standard ones.
"""

import math

import numpy as np

from decouplab import entropy, linalg, quantum
from decouplab.entropy import SmoothingConfig
from decouplab.linalg import shape

rng = np.random.default_rng(11)
rho = quantum.random_state(shape(("A", 4), ("B", 3)), rng)
b = rho.marginal(["B"])
eps = 0.04

print("state on (A, B) = (4, 3), smoothing radius eps =", eps)

# Shannon quantities are exact, no smoothing involved.
print("\nH(AB)   =", round(entropy.shannon(rho), 6))
print("H(A|B)  =", round(entropy.shannon(rho, given="B"), 6))

# Conditional collision entropy: a feasible smoothing point certifies a
# lower bound. The minimized weight mode solves for the best weight on each
# support by a certified fixed point and can only improve on the fixed marginal.
cfg = SmoothingConfig(epsilon=eps, delta=0.1)
fixed = entropy.h2_conditional(rho, cfg, "fixed_marginal", given="B")
mini = entropy.h2_conditional(rho, cfg, "minimized", given="B")
print("\nh2(A|B), fixed marginal weights  =", round(fixed, 6), "(certified lower)")
print("h2(A|B), minimized weights       =", round(mini, 6), "(>= fixed)")

# Max-entropy: truncation candidates give a certified upper bound.
hmax = entropy.hmax_smooth(b, eps)
print("\nhmax(B) smoothed                 =", round(hmax, 6), "(certified upper)")

# The alternate max-entropy drops the smallest eigenvalues outright. It is
# bounded by log2(d / eps) no matter the state.
hmaxp, truncated = entropy.hmax_prime(b, eps)
print("hmax'(B)                         =", round(hmaxp, 6),
      "<= log2(d/eps) =", round(math.log2(3 / eps), 6))
print("mass kept by the truncation:",
      round(float(np.real(np.trace(truncated.matrix))), 6))

# The alternate collision entropy evaluates one canonical feasible point,
# so h2 at radius 4 sqrt(eps) always sits above it.
spec = linalg.spectral(rho.matrix)
canonical = entropy.h2_prime(spec, rho.shape, eps, 0.1)
h2p = canonical.value
rough = entropy.h2_conditional(rho, SmoothingConfig(epsilon=4 * math.sqrt(eps)),
                               "fixed_marginal", given="B")
print("\nh2'(A|B)                         =", round(h2p, 6))
print("h2 at radius 4 sqrt(eps)         =", round(rough, 6), ">= h2'")
print("feasible point is dominated:",
      spec.values[canonical.kept].sum() <= 1.0 + 1e-12)

# Min-entropy of the marginal, both printed readings.
hmin = entropy.hmin_smooth(b, eps)
print("\nhmin(B): -log2 reading =", round(hmin, 6),
      " printed reading =", round(2.0 ** (-hmin), 6))
