"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria are quantitative
desk-scale checks; every tolerance is pinned here, nothing is deferred.
"""

import json
import math
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    amplitude_damping_family,
    full_state,
    random_density,
    random_two_site_family,
    vec_generator,
)
from phaselearn.config import load_config
from phaselearn.diagnostics import lieb_robinson_scan, mixing_scan
from phaselearn.errors import PlanInfeasibleError
from phaselearn.experiment import run_diagnostic_battery, run_learning_experiment
from phaselearn.lattice import Lattice, enlarge, observable_from_string
from phaselearn.learner import CellFold, LearnerPlan, PlanConstants, plan, predict
from phaselearn.lindblad import (
    DensityMatrix,
    assemble,
    evolve,
    steady_state,
    trace_norm,
)
from phaselearn.models import instantiate
from phaselearn.seeding import stream_seed
from phaselearn.shadows import measure_snapshot_product, required_shadow_count

CONFIG_DIR = Path(__file__).parents[1] / "scripts" / "configs"


def _report(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS - {text}", file=sys.stderr)


def test_criterion_01_oracle_equivalence_dynamics():
    """Integrator matches the dense superoperator exponential at n <= 3."""
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(2, 4))
        kind = k % 3
        if kind == 0:
            model = instantiate("pinning", Lattice(1, (n,), "open"))
            fam = model.family
        elif kind == 1:
            model = instantiate("dissipative_tfim", Lattice(1, (n,), "open"))
            fam = model.family
        else:
            fam = random_two_site_family(rng, n=n)
        x = rng.uniform(-1, 1, fam.m)
        t = float(rng.uniform(0.1, 5.0))
        gen = assemble(fam, x)
        rho = random_density(n, rng)
        via_ode = evolve(gen, rho, t)
        prop = scipy.linalg.expm(t * vec_generator(gen).toarray())
        d = 2**n
        direct = (prop @ rho.data.flatten(order="F")).reshape((d, d), order="F")
        diff = trace_norm(via_ode.data - direct)
        worst = max(worst, diff)
        assert diff <= 1e-7, f"draw {k}: trace-norm gap {diff:.2e}"
        checked += 1
    assert checked == 20
    _report(1, f"20/20 integrator-vs-expm draws within 1e-7 (worst {worst:.1e})")


def test_criterion_02_steady_state_correctness():
    """Fixed-point residual <= 1e-9 on the catalog; pinning matches closed form."""
    worst_resid = 0.0
    for name in ("pinning", "dissipative_tfim"):
        for n in (2, 4, 6):
            lat = Lattice(1, (n,), "open")
            model = instantiate(name, lat)
            x = np.random.default_rng(200 + n).uniform(-1, 1, model.family.m)
            gen = assemble(model.family, x)
            ss = steady_state(gen)
            resid = trace_norm(
                (vec_generator(gen) @ ss.data.flatten(order="F")).reshape(ss.data.shape, order="F")
            )
            worst_resid = max(worst_resid, resid)
            assert resid <= 1e-9
            if name == "pinning":
                oracle = full_state(model.oracle, x, np.inf, model.family)
                assert trace_norm(ss.data - oracle.data) <= 1e-6
    _report(2, f"all catalog steady states residual <= 1e-9 (worst {worst_resid:.1e}); "
               "pinning matches product form to 1e-6")


@pytest.fixture(scope="module")
def pinning8_snapshots():
    lat = Lattice(1, (8,), "open")
    model = instantiate("pinning", lat)
    x = np.clip(np.random.default_rng(300).uniform(-1, 1, 8), -0.9, 0.9)
    n_snap = 100_000
    X = np.tile(x, (n_snap, 1))
    bases, outcomes = measure_snapshot_product(
        partial(model.oracle.bloch_components, X, np.full(n_snap, np.inf)), X.shape,
        stream_seed(300, "acc3"))
    return model, x, bases, outcomes


def test_criterion_03_shadow_unbiasedness(pinning8_snapshots):
    """Every 1- and 2-site Pauli from 1e5 snapshots within 4 standard errors."""
    model, x, bases, outcomes = pinning8_snapshots
    lat = model.lattice
    n_snap = bases.shape[0]
    letters = "XYZ"
    worst_pull = 0.0
    n_checked = 0
    # single-site Paulis
    for j in range(8):
        for code, letter in enumerate(letters):
            vals = np.where(bases[:, j] == code, 3.0 * outcomes[:, j], 0.0)
            obs = observable_from_string(f"{letter}@{j}", lat)
            truth = model.oracle.expectation(x, np.inf, obs)
            mean, se = vals.mean(), vals.std() / math.sqrt(n_snap)
            pull = abs(mean - truth) / se
            worst_pull = max(worst_pull, pull)
            assert pull <= 4.0, f"{letter}@{j}: pull {pull:.2f}"
            assert vals.var() <= 3.0 * 1.1, f"{letter}@{j}: variance {vals.var():.3f}"
            n_checked += 1
    # two-site Paulis
    for j in range(8):
        for k in range(j + 1, 8):
            for cj, lj in enumerate(letters):
                for ck, lk in enumerate(letters):
                    match = (bases[:, j] == cj) & (bases[:, k] == ck)
                    vals = np.where(match, 9.0 * outcomes[:, j] * outcomes[:, k], 0.0)
                    obs = observable_from_string(f"{lj}{lk}@{j},{k}", lat, k0=8)
                    truth = model.oracle.expectation(x, np.inf, obs)
                    mean, se = vals.mean(), vals.std() / math.sqrt(n_snap)
                    pull = abs(mean - truth) / se
                    worst_pull = max(worst_pull, pull)
                    assert pull <= 4.0, f"{lj}{lk}@{j},{k}: pull {pull:.2f}"
                    assert vals.var() <= 9.0 * 1.1
                    n_checked += 1
    _report(3, f"{n_checked} Pauli estimates within 4 SE (worst pull {worst_pull:.2f}); "
               "single-snapshot variance <= 3^w * 1.1")


def test_criterion_04_robust_shadow_bound_instantiation():
    """required_shadow_count(0.5, 0.1, 1, 8) equals the bound's forced integer."""
    eps, delta_p, k0, n = 0.5, 0.1, 1, 8
    independent = math.ceil(
        (8.0 * 12.0**k0 / (3.0 * eps**2))
        * math.log(n**k0 * 2 ** (k0 + 1) / delta_p)
    )
    got = required_shadow_count(eps, delta_p, k0, n)
    assert got == independent == 739
    _report(4, f"shadow budget bound forces q = {got}")


def test_criterion_05_lieb_robinson_decay():
    """TFIM n=8, t=1, O=Z3: non-increasing curve, exact-zero tail, certified rate."""
    lat = Lattice(1, (8,), "open")
    model = instantiate("dissipative_tfim", lat, g=0.5, kappa=1.0)
    rng = np.random.default_rng(500)
    x = rng.uniform(-1, 1, model.family.m)
    xp = rng.uniform(-1, 1, model.family.m)
    obs = observable_from_string("Z@3", lat)
    diameter = 7
    fit = lieb_robinson_scan(model.family, x, xp, obs, t=1.0, r_max=diameter,
                             rtol=1e-8)
    vals = np.array(fit.values)
    assert np.all(vals[1:] <= vals[:-1] + 1e-9), "curve must be non-increasing in r"
    assert vals[diameter] <= 1e-10
    assert fit.rate_ci[0] > 0.0
    _report(5, f"localisation error falls {vals[0]:.2e} -> {vals[3]:.2e} over r=0..3, "
               f"exact zero from r=4; fitted rate {fit.rate:.2f} "
               f"(CI low {fit.rate_ci[0]:.2f})")


def test_criterion_06_local_rapid_mixing():
    """Amplitude damping rate 1 +- 0.02; pinning n=6 rate >= 0.9 kappa0 on every site."""
    fam = amplitude_damping_family(1.0)
    rho1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), 1)
    obs = observable_from_string("Z@0", Lattice(1, (1,)))
    fit = mixing_scan(fam, np.zeros(0), rho1, obs, steady_state(assemble(fam, np.zeros(0))))
    assert abs(fit.rate - 1.0) <= 0.02
    for t, v in zip(fit.abscissa, fit.values):
        assert v == pytest.approx(2.0 * math.exp(-t), abs=1e-7)

    lat = Lattice(1, (6,), "open")
    model = instantiate("pinning", lat, kappa0=1.0)
    x = np.clip(np.random.default_rng(600).uniform(-1, 1, 6), -0.8, 0.8)
    gen = assemble(model.family, x)
    rho_inf = full_state(model.oracle, x, np.inf, model.family)
    rates = []
    for site in range(6):
        site_obs = observable_from_string(f"Z@{site}", lat)
        site_fit = mixing_scan(model.family, x, model.reference_state(), site_obs, rho_inf)
        rates.append(site_fit.rate)
        assert site_fit.rate >= 0.9, f"site {site}: rate {site_fit.rate:.3f}"
    _report(6, f"amplitude-damping rate {fit.rate:.4f}; pinning per-site rates "
               f"min {min(rates):.3f}")


@pytest.fixture(scope="module")
def learning_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinning_steady")
    cfg = load_config(CONFIG_DIR / "pinning_steady.cfg")
    cfg.out_dir = str(out)
    manifest = run_learning_experiment(cfg)
    return cfg, out, manifest


def test_criterion_07_end_to_end_learning(learning_bundle):
    """Pinning n=8: >= 90% of 50 test points within eps = 0.3 at the capped N;
    the uncapped prescription is infeasible; sweep medians non-increasing."""
    cfg, out, _ = learning_bundle
    summary = json.loads((out / "summary.json").read_text())
    p = LearnerPlan.from_json((out / "plan.json").read_text())
    assert p.capped and p.N == 100_000
    with pytest.raises(PlanInfeasibleError):
        plan(p.epsilon, p.delta, p.delta_prime, p.constants, p.mode, n_cap=None)
    assert summary["success_fraction"] >= 0.9
    sweep = dict((int(n), e) for n, e in summary["sweep"])
    assert sweep[100] + 1e-12 >= sweep[1000] >= sweep[10000]
    coverage = json.loads((out / "coverage.json").read_text())
    assert coverage["n_samples"] == 100_000
    _report(7, f"success fraction {summary['success_fraction']:.2f} at capped "
               f"N=1e5 (prescription ~2^{p.N_log2:.0f}); sweep medians "
               f"{sweep[100]:.3f} >= {sweep[1000]:.3f} >= {sweep[10000]:.3f}")


def test_criterion_08_estimator_locality_invariant(learning_bundle):
    """Scrambling tags outside S_i(r) changes no prediction bit, from the whole
    bundle or from its first 20,000 records."""
    cfg, out, _ = learning_bundle
    from phaselearn.shadows import read_shadows

    p = LearnerPlan.from_json((out / "plan.json").read_text())
    model = instantiate("pinning", cfg.lattice)
    obs = [observable_from_string(s, cfg.lattice) for s in cfg.observables]
    patch_coords: set[int] = set()
    for o in obs:
        patch = enlarge(cfg.lattice, o.support, p.r)
        patch_coords |= set(model.family.coords_for_region(patch).tolist())
    outside = [c for c in range(model.family.m) if c not in patch_coords]
    rng = np.random.default_rng(800)
    test_x = np.random.default_rng(801).uniform(-1, 1, (10, model.family.m))
    folds = [CellFold(obs, test_x, [np.inf] * 10, p, model.family)
             for _ in range(2)]
    with open(out / "training.shadows", "rb") as fh:
        for chunk in read_shadows(fh)[1]:
            new_X = chunk.X.copy()
            new_X[:, outside] = rng.uniform(-1, 1, (len(chunk), len(outside)))
            folds[0].add(chunk)
            folds[1].add(replace(chunk, X=new_X))
    assert folds[0].n_samples == 100_000
    for i in range(10):
        for size in (20_000, None):
            a, b = predict(folds[0], i, size), predict(folds[1], i, size)
            assert a.value == b.value
            assert a.per_term == b.per_term and a.counts == b.counts
    _report(8, "predictions bit-identical under out-of-patch coordinate scrambling")


def test_criterion_09_plan_formula_fidelity():
    """plan() reproduces the closed-form prescriptions, hand-evaluated here."""
    eps, delta, delta_p = 0.6, 0.1, 0.05
    J, ell, r0, k0, D, n, m, M, W = 0.5, 1, 0, 0, 1, 4, 4, 1, 1
    xi, gp, cp, kap = 0.3, 1.0, 0.5, 1.0
    consts = PlanConstants(J=J, ell=ell, r0=r0, D=D, n=n, m=m, k0=k0, M=M, W=W,
                           xi=xi, gamma_prime=gp, c_prime=cp, kappa=kap)

    A = 2 * k0 + 1  # l1 ball volume in 1D
    two_xi = 2 * xi
    numer = 4 * cp * A * J * math.factorial(D - 1) * two_xi ** (D - 1) * D ** (D - 1)
    denom = eps * math.exp(1 / two_xi) * (1 - math.exp(-1 / two_xi))
    r = max(1, math.ceil(two_xi * math.log(numer / denom)))
    gamma = eps / (2 * (2 * (r + k0)) ** D * J * ell)
    q = math.ceil((8 * 12**k0 / (3 * eps**2)) * math.log(n**k0 * 2 ** (k0 + 1) / delta_p))
    m_r = (2 * (r + r0 + k0)) ** D * ell
    bracket = math.log(M / delta) + m_r * math.log(2 / gamma) + math.log(q)
    n_steady = math.ceil(q * (2 / gamma) ** m_r * bracket)

    p_s = plan(eps, delta, delta_p, consts, "steady_state")
    assert (p_s.r, p_s.q, p_s.N) == (r, q, n_steady)
    assert p_s.gamma == pytest.approx(gamma, rel=0, abs=0)

    t_eps = (1 / gp) * math.log(6 * cp * A**kap / eps)
    bracket_g = bracket + math.log(t_eps / gamma)
    n_general = math.ceil(W * q * (t_eps / gamma) * (2 / gamma) ** m_r * bracket_g)
    p_g = plan(eps, delta, delta_p, consts, "general_phase")
    assert (p_g.r, p_g.q, p_g.N) == (r, q, n_general)
    assert p_g.t_eps == pytest.approx(t_eps, rel=0, abs=0)
    assert p_g.gamma == gamma

    f_n = 4.0
    consts_slow = PlanConstants(J=J, ell=ell, r0=r0, D=D, n=n, m=m, k0=k0, M=M, W=W,
                                xi=xi, gamma_prime=gp, c_prime=cp, kappa=kap, f_n=f_n)
    numer_s = numer * f_n
    r_s = max(1, math.ceil(two_xi * math.log(numer_s / denom)))
    gamma_s = eps / (3 * (2 * (r_s + k0)) ** D * J * (ell + 1))
    t_eps_s = (1 / gp) * math.log(3 * f_n / eps)
    m_r_s = (2 * (r_s + r0 + k0)) ** D * ell
    bracket_s = (math.log(M / delta) + m_r_s * math.log(2 / gamma_s)
                 + math.log(q) + math.log(t_eps_s / gamma_s))
    n_slow = math.ceil(W * q * (t_eps_s / gamma_s) * (2 / gamma_s) ** m_r_s * bracket_s)
    p_sl = plan(eps, delta, delta_p, consts_slow, "slow_mixing")
    assert (p_sl.r, p_sl.q, p_sl.N) == (r_s, q, n_slow)
    assert p_sl.gamma == pytest.approx(gamma_s, rel=0, abs=0)
    assert p_sl.t_eps == pytest.approx(t_eps_s, rel=0, abs=0)
    _report(9, f"r/gamma/q/t_eps/N match hand-evaluated prescriptions exactly "
               f"(steady N={n_steady}, general N={n_general}, slow N={n_slow})")


def test_criterion_10_determinism(tmp_path):
    """Identical config + seed reproduce every CSV/JSON byte for byte."""
    cfg_text = (CONFIG_DIR / "pinning_steady.cfg").read_text()
    cfg_text = cfg_text.replace("n_cap = 100000", "n_cap = 100000\nn_override = 4000")
    cfg_text = cfg_text.replace("sweep = [100, 1000, 10000]", "sweep = [100, 1000]")
    cfg_text = cfg_text.replace("extent = [8]", "extent = [6]")
    cfg_text = cfg_text.replace('specs = ["Z@4"]', 'specs = ["Z@3"]')
    cfg_text = cfg_text.replace("n_test = 50", "n_test = 10")
    cfg_file = tmp_path / "det.cfg"
    cfg_file.write_text(cfg_text)
    compared = 0
    for runner, sub in ((run_learning_experiment, "learn"),
                        (run_diagnostic_battery, "diag")):
        outs = []
        for run_id in ("a", "b"):
            cfg = load_config(cfg_file)
            cfg.out_dir = str(tmp_path / f"{sub}_{run_id}")
            runner(cfg)
            outs.append(Path(cfg.out_dir))
        names = sorted(
            p.name for p in outs[0].iterdir()
            if p.suffix in (".csv", ".json", ".shadows", ".svg")
        )
        assert names, "no outputs found"
        for name in names:
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{sub}/{name} differs between reruns"
            compared += 1
    _report(10, f"{compared} output files byte-identical across reruns")
