"""The batched f / g engine against the per-draw construction it replaced.

The reference below is the dense per-draw path: embed U (x) I_R, conjugate
by kron(v, I), sandwich the POVM on Z, trace Z, and (for g) conjugate by
the inverse quarter power of omega''' on B.
"""

import numpy as np
import pytest

from decouplab import decoupling, ensembles, linalg, quantum
from decouplab.entropy import SmoothingConfig
from decouplab.linalg import shape

from oracles import conj_by_inverse_quarter, omega_triple_prime

TOL = 1e-12


def _dense_channel(channel, m, z_povm=None):
    da, db, dz = channel.a_dim, channel.b_dim, channel.z_dim
    ds = m.shape[0] // da
    w = np.kron(channel.v, np.eye(ds))
    y = w @ m @ w.conj().T
    if z_povm is not None:
        p = np.kron(np.kron(np.eye(db), z_povm), np.eye(ds))
        y = p @ y @ p.conj().T
    mid = shape(("B", db), ("Z", dz), ("S", ds))
    return linalg.partial_trace(y, mid, ["Z"]), mid.drop(["Z"])


def _dense_adjoint(channel, n):
    db, dz = channel.b_dim, channel.z_dim
    ds = n.shape[0] // db
    y = np.zeros((db, dz, ds, db, dz, ds), dtype=complex)
    for z in range(dz):
        y[:, z, :, :, z, :] = n.reshape(db, ds, db, ds)
    w = np.kron(channel.v, np.eye(ds))
    return w.conj().T @ y.reshape(db * dz * ds, -1) @ w


def _evolved(inst, state, u):
    big = np.kron(np.asarray(u, dtype=complex), np.eye(inst.r_dim))
    return big @ state @ big.conj().T


def f_reference(inst, u, choi_b):
    y, _ = _dense_channel(inst.channel, _evolved(inst, inst.rho.matrix, u))
    rho_r = inst.rho.marginal(list(inst.r_labels)).matrix
    return linalg.schatten_norm(y - np.kron(choi_b, rho_r), 1)


def g_reference(inst, u, w):
    y, yshape = _dense_channel(inst.channel, _evolved(inst, w.rho_tilde, u), w.povm)
    omega3 = omega_triple_prime(w.choi.marginal(["B"]), inst.cfg.epsilon, inst.cfg.delta)
    y = conj_by_inverse_quarter(y, yshape, omega3.matrix, ["B"])
    return linalg.schatten_norm(y - np.kron(w.omega_tilde_b, w.rho_tilde_r), 2)


def _kraus_instance():
    # three Kraus operators 3 -> 2 cut from a random isometry: |Z| = 3
    rng = np.random.default_rng(40)
    iso = linalg.random_unitary(6, rng)[:, :3]
    kraus = [np.array([iso[b * 3 + z] for b in range(2)]) for z in range(3)]
    channel = quantum.channel_from_kraus(kraus, a_dim=3, b_dim=2)
    assert channel.z_dim == 3
    rho = quantum.random_state(shape(("A", 3), ("R", 2)), rng)
    return decoupling.DecouplingInstance(rho=rho, channel=channel,
                                         cfg=SmoothingConfig())


def _embed_instance():
    rng = np.random.default_rng(41)
    rho = quantum.random_state(shape(("Om", 3), ("R", 2)), rng)
    channel = quantum.ChannelStinespring(v=linalg.random_unitary(6, rng)[:, :3], b_dim=2)
    return decoupling.DecouplingInstance(rho=rho, channel=channel,
                                         cfg=SmoothingConfig(), a_labels=("Om",))


def _random_instance(seed, channel, cfg=None, da=4, dr=2):
    rng = np.random.default_rng(seed)
    rho = quantum.random_state(shape(("A", da), ("R", dr)), rng)
    return decoupling.DecouplingInstance(rho=rho, channel=channel,
                                         cfg=cfg or SmoothingConfig())


INSTANCES = {
    "trace-out": lambda: _random_instance(1, quantum.trace_out_channel(2, 2)),
    "identity": lambda: _random_instance(2, quantum.identity_channel(3), da=3, dr=3),
    "kraus": _kraus_instance,
    "isometry": _embed_instance,
    "smoothed-povm": lambda: _random_instance(
        3, quantum.trace_out_channel(2, 2),
        cfg=SmoothingConfig(epsilon=0.01, delta=0.1)),
    "fqsw-two-label": lambda: decoupling.fqsw_instance(2, 4, 2, seed=0)[0],
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_batched_matches_per_draw_reference(name):
    inst = INSTANCES[name]()
    w = decoupling.prepare(inst)
    if name == "smoothed-povm":
        assert w.povm is not None
    choi_b = w.choi.marginal(["B"]).matrix
    us = ensembles.haar_ensemble(inst.a_dim, seed=5).sample_batch(range(12))
    f = decoupling.f_values(inst, us, choi_b)
    g = decoupling.g_values(inst, us, w)
    np.testing.assert_allclose(f, [f_reference(inst, u, choi_b) for u in us],
                               rtol=0, atol=TOL)
    np.testing.assert_allclose(g, [g_reference(inst, u, w) for u in us],
                               rtol=0, atol=TOL)
    # without choi_b, f reads the fixed output off the Stinespring operator
    np.testing.assert_allclose(decoupling.f_values(inst, us), f, rtol=0, atol=1e-12)
    assert decoupling.f_value(inst, us[3]) == pytest.approx(f[3], abs=TOL)
    assert decoupling.g_value(inst, us[3], w) == pytest.approx(g[3], abs=TOL)


def test_chunk_boundary_matches_single_draws():
    inst = INSTANCES["smoothed-povm"]()
    w = decoupling.prepare(inst)
    choi_b = w.choi.marginal(["B"]).matrix
    n = decoupling._chunk_draws(inst) + 1
    us = ensembles.haar_ensemble(inst.a_dim, seed=6).sample_batch(range(n))
    f = decoupling.f_values(inst, us, choi_b)
    g = decoupling.g_values(inst, us, w)
    np.testing.assert_allclose(
        f, [decoupling.f_value(inst, u, choi_b) for u in us], rtol=0, atol=TOL)
    np.testing.assert_allclose(
        g, [decoupling.g_value(inst, u, w) for u in us], rtol=0, atol=TOL)


def test_empty_stack():
    inst = INSTANCES["trace-out"]()
    w = decoupling.prepare(inst)
    assert decoupling.g_values(inst, np.empty((0, 4, 4), dtype=complex), w).shape == (0,)


@pytest.mark.parametrize("trace_preserving", [True, False])
def test_channel_application_matches_dense(trace_preserving):
    # the contraction shared with the engine, on a block that is not a prefix
    rng = np.random.default_rng(42)
    t = quantum.random_channel(3, 2, rng, trace_preserving=trace_preserving)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    got, got_shape = t.apply_matrix(m, shape(("R", 2), ("A", 3), ("S", 2)), block=("A",))
    ordered = linalg.permute_systems(m, shape(("R", 2), ("A", 3), ("S", 2)),
                                     ["A", "R", "S"])
    np.testing.assert_allclose(got, _dense_channel(t, ordered)[0], rtol=0, atol=TOL)
    assert got_shape.names == ("B", "R", "S")
    n = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    adj, adj_shape = t.apply_adjoint_matrix(n, shape(("B", 2), ("S", 4)))
    np.testing.assert_allclose(adj, _dense_adjoint(t, n), rtol=0, atol=TOL)
    assert adj_shape.names == ("A", "S")
