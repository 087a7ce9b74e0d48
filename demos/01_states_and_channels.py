"""Labelled states and Stinespring channels: the plumbing everything rides on.

Builds a few states, takes marginals, and shows that a channel, its Choi
state, and its Kraus action all agree.
"""

import numpy as np

from decouplab import linalg, quantum
from decouplab.linalg import shape

rng = np.random.default_rng(7)

# A two-system state with named factors. Marginals go by label, not index.
rho = quantum.random_state(shape(("A", 3), ("R", 2)), rng)
print("rho lives on", rho.shape.names, "with dims", rho.shape.dims)
print("tr rho       =", np.real(np.trace(rho.matrix)).round(12))
print("tr_A rho     = state on", rho.marginal(["R"]).shape.names)

# EPR pair: the marginal of either half is maximally mixed.
phi = quantum.epr_state(3, labels=("A", "Ap"))
half = phi.marginal(["A"]).matrix
print("\nEPR marginal is flat:", np.allclose(half, np.eye(3) / 3))

# A random channel A -> B as an isometry into B (x) Z. Applying it to the
# A block of rho leaves R untouched.
t = quantum.random_channel(3, 2, rng)
out = t.apply(rho, block=("A",))
print("\nchannel output lives on", out.shape.names, "dims", out.shape.dims)
print("tr preserved:", abs(out.mass - 1.0) < 1e-12)

# Choi state: send half an EPR pair through the channel. Its B marginal is
# the channel applied to the maximally mixed input.
choi = quantum.choi_state(t)
direct = t.apply(quantum.maximally_mixed(3, "A")).matrix
print("choi B-marginal equals channel(pi):",
      np.allclose(choi.marginal(["B"]).matrix, direct, atol=1e-12))

# The same channel as Kraus operators K_z = (I_B (x) <z|) v, read off the isometry.
kraus = [t.v.reshape(2, 3, 3)[:, z, :] for z in range(3)]
applied = sum(k @ rho.marginal(["A"]).matrix @ k.conj().T for k in kraus)
print("kraus action matches dilation:",
      np.allclose(applied, t.apply(rho.marginal(["A"])).matrix, atol=1e-10))

# Purify a mixed state and check the marginal comes back.
sigma = quantum.random_density(3, rng)
vec = quantum.purification_vector(sigma)
pur = np.outer(vec, vec.conj())
back = linalg.partial_trace(pur, shape(("S", 3), ("E", 3)), ["E"])
print("\npurification round trip:", np.allclose(back, sigma, atol=1e-10))
