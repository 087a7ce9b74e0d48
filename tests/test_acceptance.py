"""Acceptance battery: ten criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Target runtime is well under ten minutes; the two Monte Carlo
fixtures are shared between the criteria that need the same draws.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from decouplab import cli, decoupling, ensembles, entropy, linalg, quantum, \
    stats, typicality
from decouplab.entropy import SmoothingConfig
from decouplab.linalg import shape
from decouplab.quantum import DensitySystem


def _line(num: int, ok: bool, desc: str):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _crandn(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


# ---------------------------------------------------------------------------
# shared Monte Carlo fixtures


@pytest.fixture(scope="module")
def fqsw_runs():
    """Three FQSW instances with 2000 Haar draws of f and g each."""
    runs = []
    for a1, a2, r, seed in ((2, 4, 2, 21), (2, 8, 2, 22), (2, 8, 2, 23)):
        inst, w, report = decoupling.fqsw_instance(a1, a2, r, seed=seed)
        ens = ensembles.haar_ensemble(inst.a_dim, seed=seed)
        t0 = time.perf_counter()
        us = ens.sample_batch(range(2000))
        f = decoupling.f_values(inst, us, w.choi.marginal(["B"]).matrix)
        g = decoupling.g_values(inst, us, w)
        elapsed = time.perf_counter() - t0
        runs.append({
            "a1": a1, "a2": a2, "seed": seed, "inst": inst, "w": w,
            "report": report, "f": f, "g": g, "elapsed": elapsed,
        })
    return runs


@pytest.fixture(scope="module")
def pointwise_run():
    """One |A|=4 instance with 1000 draws plus 1000 independent pairs."""
    rng = np.random.default_rng(31)
    rho = quantum.random_state(shape(("A", 4), ("R", 2)), rng)
    inst = decoupling.DecouplingInstance(
        rho=rho, channel=quantum.trace_out_channel(2, 2),
        cfg=SmoothingConfig(),
    )
    w = decoupling.prepare(inst)
    us = ensembles.haar_ensemble(4, seed=31).sample_batch(range(1000))
    f = decoupling.f_values(inst, us, w.choi.marginal(["B"]).matrix)
    g = decoupling.g_values(inst, us, w)
    # pair i is (draw 2i, draw 2i + 1)
    pairs = ensembles.haar_ensemble(4, seed=32).sample_batch(range(2000))
    g_pairs = decoupling.g_values(inst, pairs, w)
    pair_gap = np.abs(g_pairs[0::2] - g_pairs[1::2])
    pair_dist = np.linalg.norm(pairs[0::2] - pairs[1::2], axis=(1, 2))
    return {"inst": inst, "w": w, "f": f, "g": g,
            "pair_gap": pair_gap, "pair_dist": pair_dist}


# ---------------------------------------------------------------------------
# criterion 1: exact operator identities, >= 200 random instances each


def test_criterion_01_exact_identities():
    rng = np.random.default_rng(101)
    n_inst = 200
    worst = {}

    gap = 0.0
    for i in range(n_inst):
        d = 2 + i % 3
        m, n_ = _crandn(rng, d), _crandn(rng, d)
        lhs = np.trace(linalg.swap_operator(d) @ np.kron(m, n_))
        gap = max(gap, abs(lhs - np.trace(m @ n_)))
    worst["swap"] = gap

    gap = 0.0
    for i in range(n_inst):
        da, dr = 2 + i % 2, 2 + i % 3
        m = _crandn(rng, da * dr)
        big_shape = shape(("A1", da), ("R1", dr), ("A2", da), ("R2", dr))
        fr = linalg.permute_systems(
            np.kron(np.eye(da * da), linalg.swap_operator(dr)),
            shape(("A1", da), ("A2", da), ("R1", dr), ("R2", dr)),
            ["A1", "R1", "A2", "R2"],
        )
        reduced = linalg.partial_trace(fr @ np.kron(m, m.conj().T),
                                       big_shape, ["R1", "R2"])
        viol = (linalg.schatten_norm(reduced, 1)
                - da * linalg.schatten_norm(m, 2) ** 2)
        gap = max(gap, viol)
    worst["swappartialtrace"] = gap

    gap = 0.0
    for i in range(n_inst):
        da, dz = 2 + i % 3, 2 + (i // 3) % 2
        shp = shape(("A", da), ("Z", dz))
        x = rng.standard_normal(da * dz) + 1j * rng.standard_normal(da * dz)
        y = rng.standard_normal(da * dz) + 1j * rng.standard_normal(da * dz)
        got = linalg.partial_trace(np.outer(x, y.conj()), shp, ["Z"])
        want = linalg.vec_inverse(x, shp) @ linalg.vec_inverse(y, shp).conj().T
        gap = max(gap, float(np.abs(got - want).max()))
    worst["vec"] = gap

    gap = 0.0
    for i in range(n_inst):
        da, db = 2 + i % 3, 2 + (i // 3) % 3
        rho = quantum.random_state(shape(("A", da), ("B", db)), rng)
        ratio = (linalg.schatten_norm(rho.matrix, 2) ** 2
                 / linalg.schatten_norm(rho.marginal(["B"]).matrix, 2) ** 2)
        gap = max(gap, 1.0 / da - ratio, ratio - da)
    worst["norm_ratio_sandwich"] = gap

    gap = 0.0
    for i in range(n_inst):
        d = 3 + i % 2
        sigma = quantum.random_psd(d, rng)
        sigma = sigma + 0.05 * float(np.linalg.eigvalsh(sigma).max()) * np.eye(d)
        sigma = sigma / np.real(np.trace(sigma)) * rng.uniform(0.3, 1.0)
        m = _crandn(rng, d)
        m = (m + m.conj().T) / 2
        q = linalg.pseudo_inverse_power(sigma, -0.25)
        viol = (linalg.schatten_norm(m, 1)
                - math.sqrt(np.real(np.trace(sigma)))
                * linalg.schatten_norm(q @ m @ q, 2))
        gap = max(gap, viol)
    worst["weighted_cauchy_schwarz"] = gap

    gap = 0.0
    for i in range(n_inst):
        d = 3 + i % 3
        rho = quantum.random_density(d, rng)
        u = linalg.random_unitary(d, rng)
        p = (u * rng.uniform(0.7, 1.0, size=d)) @ u.conj().T
        kept = p @ rho @ p
        eps = max(1.0 - float(np.real(np.trace(kept))), 0.0)
        viol = linalg.schatten_norm(rho - kept, 1) - 2.0 * math.sqrt(eps)
        gap = max(gap, viol)
    worst["gentle"] = gap

    report = quantum.dominance_lemmas_check(instances=200, seed=102)
    worst["dominance"] = max(report["dominance_excess"],
                             report["steering_excess"])

    gap = 0.0
    for i in range(n_inst):
        dx, dz = 2 + i % 2, 3 + i % 2
        vec = quantum.random_pure_vector(dx * dz, rng)
        psi = DensitySystem.from_matrix(np.outer(vec, vec.conj()),
                                        shape(("X", dx), ("Z", dz)))
        spec = linalg.spectral(psi.marginal(["X"]).matrix)
        scale = rng.uniform(0.2, 0.9, size=dx)
        target = (spec.vectors * (spec.values * scale)) @ spec.vectors.conj().T
        p = quantum.povm_completion(vec.reshape(dx, dz), target)
        op = np.kron(np.eye(dx), p)
        steered = linalg.partial_trace(op @ psi.matrix @ op.conj().T,
                                       psi.shape, ["Z"])
        gap = max(gap,
                  float(np.abs(steered - target).max()),
                  linalg.schatten_norm(p, np.inf) - 1.0,
                  -float(np.linalg.eigvalsh(linalg.hermitianize(p)).min()))
    worst["povm_reconstruction"] = gap

    tight = {k: v for k, v in worst.items() if k != "povm_reconstruction"}
    ok = (max(tight.values()) <= 1e-10
          and worst["povm_reconstruction"] <= 1e-8)
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _line(1, ok, f"exact identities over {n_inst} instances each: {detail}")


# ---------------------------------------------------------------------------
# criteria 2 and 3: closed-form Haar moment and expectation bound


def test_criterion_02_haar_moment_closed_form(fqsw_runs):
    ok = True
    details = []
    for run in fqsw_runs:
        m = decoupling.haar_expected_g_squared(run["inst"], run["w"])
        g2 = run["g"] ** 2
        se = g2.std(ddof=1) / math.sqrt(g2.size)
        gap = abs(g2.mean() - m.expected_g_squared)
        alpha_gap = abs(m.alpha - run["report"]["alpha_closed"])
        eta_gap = abs(m.eta - run["a1"] / run["a2"])
        ok = ok and gap <= 3.0 * se and alpha_gap <= 1e-12 and eta_gap <= 1e-12
        details.append(f"|A2|={run['a2']}: gap={gap:.2e} (3se={3 * se:.2e}), "
                       f"alpha_gap={alpha_gap:.1e}, eta_gap={eta_gap:.1e}")
    _line(2, ok, "closed-form vs MC g^2 on 3 FQSW instances: "
          + "; ".join(details))


def test_criterion_03_expectation_bound(fqsw_runs):
    ok = True
    details = []
    for run in fqsw_runs:
        bound = decoupling.dupuis_expectation_bound(run["inst"])
        f = run["f"]
        se = f.std(ddof=1) / math.sqrt(f.size)
        margin = bound - f.mean()
        ok = ok and margin >= -3.0 * se and run["elapsed"] < 60.0
        details.append(f"|A2|={run['a2']}: mean_f={f.mean():.4f} <= "
                       f"bound={bound:.4f}, {run['elapsed']:.1f}s")
    _line(3, ok, "Haar mean of f within the expectation bound: "
          + "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 4: pointwise bound suite


def test_criterion_04_pointwise_bounds(pointwise_run):
    inst, w = pointwise_run["inst"], pointwise_run["w"]
    f, g = pointwise_run["f"], pointwise_run["g"]
    gmax = decoupling.max_g_bound(inst, w)
    lip = decoupling.lipschitz_bound(inst, w)
    v_fg = float((f - g).max())
    v_gmax = float((g - gmax).max())
    v_lip = float((pointwise_run["pair_gap"]
                   - lip * pointwise_run["pair_dist"]).max())
    ok = v_fg <= 1e-9 and v_gmax <= 1e-9 and v_lip <= 1e-9
    _line(4, ok, f"1000 draws + 1000 pairs: max(f-g)={v_fg:.2e}, "
          f"max(g-gmax)={v_gmax:.2e}, max Lipschitz excess={v_lip:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: design exactness and the Pauli discriminator


def test_criterion_05_design_exactness():
    cliff = ensembles.enumerated_ensemble(ensembles.clifford_group(1),
                                          name="clifford")
    rep_c = ensembles.qtpe_lambda(cliff, 2, samples=0)
    pauli = ensembles.enumerated_ensemble(ensembles.pauli_group(1),
                                          name="pauli")
    rep_p1 = ensembles.qtpe_lambda(pauli, 1, samples=0)
    rep_p2 = ensembles.qtpe_lambda(pauli, 2, samples=0)
    ok = (rep_c.lambda_value <= 1e-10 and rep_c.moment_deviation <= 1e-10
          and rep_p1.lambda_value <= 1e-10
          and rep_p2.moment_deviation > 0.05)
    _line(5, ok, f"clifford(1) t=2 lambda={rep_c.lambda_value:.2e}, "
          f"dev={rep_c.moment_deviation:.2e}; pauli t=1 "
          f"lambda={rep_p1.lambda_value:.2e}, t=2 "
          f"dev={rep_p2.moment_deviation:.3f} > 0.05")


# ---------------------------------------------------------------------------
# criterion 6: design-vs-Haar moment transfer at lambda = 0


def test_criterion_06_design_haar_transfer():
    rng = np.random.default_rng(41)
    rho = quantum.random_state(shape(("A", 2), ("R", 2)), rng)
    # a covariant channel makes g constant in U, so use a random one
    inst = decoupling.DecouplingInstance(
        rho=rho, channel=quantum.random_channel(2, 2, rng),
        cfg=SmoothingConfig(),
    )
    w = decoupling.prepare(inst)
    members = ensembles.clifford_group(1)
    cliff_mean = float(np.mean([
        decoupling.g_value(inst, u, w) ** 2 for u in members
    ]))
    closed = decoupling.haar_expected_g_squared(inst, w).expected_g_squared
    exact_gap = abs(cliff_mean - closed)
    ens = ensembles.haar_ensemble(2, seed=42)
    mc = np.array([decoupling.g_value(inst, ens.sample(i), w) ** 2
                   for i in range(2000)])
    se = mc.std(ddof=1) / math.sqrt(mc.size)
    mc_gap = abs(mc.mean() - cliff_mean)
    ok = bool(exact_gap <= 1e-9 and mc_gap <= 3.0 * se + 1e-12)
    _line(6, ok, f"E_clifford[g^2] vs Haar: exact gap={exact_gap:.2e} "
          f"(<=1e-9), MC gap={mc_gap:.2e} (3se={3 * se:.2e})")


# ---------------------------------------------------------------------------
# criterion 7: tail machinery


def test_criterion_07_tail_machinery(pointwise_run):
    big = stats.moment_transfer_check(2.0, 1.0, 10.0, 1, samples=1_000_000,
                                      seed=71)
    small = stats.moment_transfer_check(2.0, 1.0, 0.1, 4, samples=1_000_000,
                                        seed=72)
    regimes_ok = (big["regime"] == "small_m" and big["central_ok"]
                  and big["square_ok"] and small["regime"] == "large_m"
                  and small["central_ok"] and small["square_ok"])

    rng = np.random.default_rng(73)
    series_list = [
        pointwise_run["g"],
        rng.normal(0.5, 0.2, 4000),
        rng.exponential(1.0, 4000),
    ]
    dominate_ok = all(
        stats.tail_from_moment(s, float(s.mean()), m, kappa)["dominates"]
        for s in series_list for m in (1, 2, 4) for kappa in (0.1, 0.3, 0.9)
    )

    inst, w = pointwise_run["inst"], pointwise_run["w"]
    lip = decoupling.lipschitz_bound(inst, w)
    levy_rows = stats.levy_consistency(pointwise_run["g"], inst.a_dim, lip,
                                       [0.25 * lip, 0.5 * lip, lip])
    levy_ok = all(r["ok"] for r in levy_rows)

    ok = regimes_ok and dominate_ok and levy_ok
    _line(7, ok, f"moment transfer both regimes at 1e6 samples "
          f"(central {big['central_moment']:.3f}<={big['central_bound']:.3f}, "
          f"{small['central_moment']:.2e}<={small['central_bound']:.2e}), "
          f"Markov dominance on {len(series_list)} series, "
          f"Levy at |A|=4: {levy_ok}")


# ---------------------------------------------------------------------------
# criterion 8: tail-parameter regressions on pinned inputs


def test_criterion_08_parameter_regressions():
    flat = DensitySystem(np.eye(16, dtype=complex) / 16.0,
                         shape(("A1", 2), ("A2", 4), ("R", 2)))
    inst, w, report = decoupling.fqsw_instance(2, 4, 2, rho=flat)
    m = decoupling.haar_expected_g_squared(inst, w)
    # h2(A|R) = log2 16 - log2 2 = 3 exactly, so a = 4 * 2^(3-9) = 1/16
    a_ok = (abs(w.h2_eps - 3.0) <= 1e-12
            and abs(report["tail_a"] - 0.0625) <= 1e-12)
    kappa = math.sqrt(6.4)  # 8 a kappa^2 = 3.2 -> t = 4
    tail = decoupling.tail_parameters(inst, w, kappa, m.mu_upper)
    t_ok = (abs(tail.a - report["tail_a"]) <= 1e-15
            and abs(8.0 * tail.a * kappa * kappa - 3.2) <= 1e-12
            and tail.t == 4)

    phi = quantum.epr_state(2, labels=("W", "R"))
    pure = np.zeros((8, 8), dtype=complex)
    pure[0, 0] = 1.0
    big = np.kron(phi.matrix, pure)
    shp = shape(("W", 2), ("R", 2), ("V", 8))
    big = linalg.permute_systems(big, shp, ["W", "V", "R"])
    rho = DensitySystem.from_matrix(big, shape(("Om", 16), ("R", 2)))
    therm = decoupling.thermalization_check(
        rho, s_dim=2, e_dim=8, kappa=0.5,
        us=ensembles.haar_ensemble(16, seed=81).sample_batch(range(4)),
        cfg=SmoothingConfig(),
    )
    # |Om|/|S| = 8 and h2 = -1, so a = 8 * 2^(-10) = 2^-7
    therm_ok = (abs(therm["h2_input"] + 1.0) <= 1e-9
                and abs(therm["tail"]["a"] - 2.0**-7) <= 1e-12)

    ok = a_ok and t_ok and therm_ok
    _line(8, ok, f"fqsw a={tail.a} (=1/16), 8 a kappa^2="
          f"{8.0 * tail.a * kappa * kappa:.10f} -> t={tail.t}; "
          f"thermalization a={therm['tail']['a']} (=2^-7)")


# ---------------------------------------------------------------------------
# criterion 9: typicality and equipartition via exact type sums


def test_criterion_09_typicality():
    probs = (0.7, 0.3)
    spec = typicality.TypicalSpec(probs=probs, n=40, delta=0.49)
    classical = typicality.typical_report(spec, eps=0.5)
    classical_ok = (classical["mass_ok"] and classical["sandwich_ok"]
                    and classical["count_ok"] and classical["sub_threshold"])

    state = DensitySystem(np.diag([0.7, 0.3]).astype(complex),
                          shape(("B", 2)))
    quantum_rep = typicality.quantum_typical_report(state, n=40, delta=0.49,
                                                    eps=0.5)
    quantum_ok = (quantum_rep["mass_ok"] and quantum_rep["sandwich_ok"]
                  and quantum_rep["rank_ok"])

    iid = typicality.hmax_prime_iid_check(np.array(probs), n=40, eps=0.5,
                                          delta=0.49)
    iid_ok = iid["sandwich_ok"]

    dense_gap = 0.0
    for n in (1, 2, 3, 4):
        for eps in (0.0, 0.25):
            spectrum = np.array([1.0])
            for _ in range(n):
                spectrum = np.kron(spectrum, np.asarray(probs))
            dense, _ = entropy.hmax_prime_values(spectrum, eps)
            agg = typicality.hmax_prime_iid_aggregated(probs, n, eps)
            dense_gap = max(dense_gap, abs(dense - agg))
    agg_ok = dense_gap <= 1e-10

    ok = classical_ok and quantum_ok and iid_ok and agg_ok
    _line(9, ok, f"n=40 delta=0.49 eps=0.5: classical mass="
          f"{classical['typical_mass']:.4f} (all three groups), quantum "
          f"groups hold, iid sandwich {iid['lower']:.2f}<="
          f"{iid['value_bits']:.2f}<={iid['upper']:.2f}, "
          f"aggregated-vs-dense gap={dense_gap:.1e}")


# ---------------------------------------------------------------------------
# criterion 10: rerun determinism through the CLI


def test_criterion_10_determinism(tmp_path):
    digests = {}
    for experiment, payload in (
        ("fqsw", {"dims": {"a1": 2, "a2": 4, "r": 2}, "samples": 8}),
        ("decouple-tail", {"dims": {"a": 4, "r": 2}, "samples": 8,
                           "epsilon": 0.01}),
    ):
        pair = []
        for tag in ("one", "two"):
            out = tmp_path / f"{experiment}-{tag}"
            cfg_path = tmp_path / f"{experiment}-{tag}.json"
            cfg_path.write_text(json.dumps({
                "experiment": experiment, "seed": 5,
                "output_dir": str(out), **payload,
            }))
            assert cli.main(["run", str(cfg_path)]) == 0
            pair.append(hashlib.sha256(
                (out / "results.csv").read_bytes()).hexdigest())
        digests[experiment] = pair
    ok = all(p[0] == p[1] for p in digests.values())
    _line(10, ok, "sha256(results.csv) identical across reruns: "
          + ", ".join(f"{k}={v[0][:12]}" for k, v in digests.items()))
