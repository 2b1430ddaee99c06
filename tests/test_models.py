import math

import numpy as np
import pytest
import scipy.linalg

from conftest import X as X_PAULI
from conftest import Y, Z, full_state, transfer_matrix, vec_generator
from phaselearn.lattice import Lattice, observable_from_string
from phaselearn.lindblad import assemble, evolve, steady_state, trace_norm
from phaselearn.models import (
    CATALOG,
    build_dissipative_tfim,
    build_pinning_family,
    generate_state,
    instantiate,
    sample_parameters,
)


class TestPinning:
    def test_rejects_bad_rate(self, chain5):
        with pytest.raises(ValueError):
            build_pinning_family(chain5, kappa0=0.0)

    def test_all_minus_one_pins_to_zero_string(self):
        lat = Lattice(1, (3,), "open")
        model = instantiate("pinning", lat)
        rho = full_state(model.oracle, -np.ones(3), np.inf, model.family)
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert trace_norm(rho.data - np.outer(e0, e0)) < 1e-12

    def test_z_expectation_closed_form(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("pinning", lat)
        x = np.random.default_rng(0).uniform(-1, 1, 4)
        obs = observable_from_string("Z@2", lat)
        theta = math.pi / 4 * (x[2] + 1)
        assert abs(model.oracle.expectation(x, np.inf, obs) - math.cos(2 * theta)) < 1e-12

    @pytest.mark.parametrize("tau", [0.0, 0.7, math.inf])
    @pytest.mark.parametrize("kappa0", [1.0, 2.5])
    def test_bloch_vectors_match_site_states(self, tau, kappa0):
        model = instantiate("pinning", Lattice(1, (5,), "open"), kappa0=kappa0)
        X = np.random.default_rng(2).uniform(-1, 1, (20, 5))
        X[0] = [-1.0, 1.0, 0.0, -0.5, 0.5]
        bloch = model.oracle.bloch_vectors(X, np.full(20, tau))
        assert bloch.shape == (20, 5, 3)
        for i in range(20):
            for j in range(5):
                rho = model.oracle.site_state(X[i, j], tau)
                expect = [np.trace(P @ rho).real for P in (X_PAULI, Y, Z)]
                assert np.max(np.abs(bloch[i, j] - expect)) <= 1e-14

    def test_oracle_matches_solver(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("pinning", lat)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(-1, 1, 4)
            ss = steady_state(assemble(model.family, x))
            assert trace_norm(ss.data - full_state(model.oracle, x, np.inf, model.family).data) < 1e-6

    def test_oracle_matches_evolution_at_finite_time(self):
        # 20 random (x, t, O_i) draws at n <= 6 against the master-equation path
        from phaselearn.lattice import embed

        rng = np.random.default_rng(2)
        for k in range(20):
            n = int(rng.integers(2, 7))
            lat = Lattice(1, (n,), "open")
            model = instantiate("pinning", lat)
            x = rng.uniform(-1, 1, n)
            t = float(rng.uniform(0.2, 3.0))
            site = int(rng.integers(0, n))
            letter = "XYZ"[int(rng.integers(0, 3))]
            obs = observable_from_string(f"{letter}@{site}", lat)
            gen = assemble(model.family, x)
            rho_t = evolve(gen, model.reference_state(), t)
            direct = rho_t.expectation(embed(obs, lat))
            assert abs(direct - model.oracle.expectation(x, t, obs)) < 1e-6

    def test_large_n_oracle_is_cheap(self):
        lat = Lattice(1, (50,), "open")
        model = instantiate("pinning", lat)
        x = np.random.default_rng(3).uniform(-1, 1, 50)
        obs = observable_from_string("Z@25", lat)
        val = model.oracle.expectation(x, np.inf, obs)
        theta = math.pi / 4 * (x[25] + 1)
        assert abs(val - math.cos(2 * theta)) < 1e-12

    def test_two_dimensional_lattice_supported(self):
        lat = Lattice(2, (2, 2), "open")
        model = instantiate("pinning", lat)
        x = np.random.default_rng(14).uniform(-1, 1, 4)
        ss = steady_state(assemble(model.family, x))
        oracle = full_state(model.oracle, x, np.inf, model.family)
        assert trace_norm(ss.data - oracle.data) < 1e-6

    def test_mixing_rate_at_least_base_rate(self):
        # fitted asymptotic decay of the global trace distance; the fit window
        # sits past the sub-additive transient of the product distance
        lat = Lattice(1, (6,), "open")
        model = instantiate("pinning", lat, kappa0=1.0)
        rng = np.random.default_rng(4)
        x = np.clip(rng.uniform(-1, 1, 6), -0.8, 0.8)
        gen = assemble(model.family, x)
        target = full_state(model.oracle, x, np.inf, model.family)
        ref = model.reference_state()
        ts = [3.0, 4.0, 5.0, 6.0]
        ds, cur, prev_t = [], ref, 0.0
        for t in ts:
            cur = evolve(gen, cur, t - prev_t)
            prev_t = t
            ds.append(trace_norm(cur.data - target.data))
        from phaselearn.diagnostics import fit_decay

        fit = fit_decay(ts, ds)
        assert fit.rate >= 0.9 * 1.0


class TestDissipativeTfim:
    def test_g_zero_product_steady_state(self):
        lat = Lattice(1, (3,), "open")
        model = instantiate("dissipative_tfim", lat, g=0.0, kappa=1.0)
        x = np.random.default_rng(5).uniform(-1, 1, model.family.m)
        ss = steady_state(assemble(model.family, x))
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert trace_norm(ss.data - np.outer(e0, e0)) < 1e-8

    def test_n2_against_long_time_expm(self):
        lat = Lattice(1, (2,), "open")
        model = instantiate("dissipative_tfim", lat, g=0.5, kappa=1.0)
        x = np.zeros(model.family.m)
        gen = assemble(model.family, x)
        ss = steady_state(gen)
        prop = scipy.linalg.expm(50.0 * vec_generator(gen).toarray())
        rho0 = model.reference_state().data.flatten(order="F")
        long_time = (prop @ rho0).reshape((4, 4), order="F")
        z0 = np.kron(Z, np.eye(2))
        assert abs(np.trace(z0 @ ss.data) - np.trace(z0 @ long_time)) < 1e-5

    def test_generator_linear_in_parameters(self):
        lat = Lattice(1, (3,), "open")
        model = instantiate("dissipative_tfim", lat)
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, model.family.m)
        alpha = 0.37
        l0 = vec_generator(assemble(model.family, np.zeros(model.family.m)))
        lx = vec_generator(assemble(model.family, x))
        la = vec_generator(assemble(model.family, alpha * x))
        assert abs((la - l0) - alpha * (lx - l0)).max() < 1e-12

    def test_coordinate_layout(self):
        lat = Lattice(1, (4,), "open")
        fam = build_dissipative_tfim(lat)
        assert fam.m == 2 * 4 - 1  # 4 site fields + 3 bonds
        ring = Lattice(1, (4,), "periodic")
        assert build_dissipative_tfim(ring).m == 2 * 4


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_builder_passes_family_invariants(self, name):
        lat = Lattice(1, (4,), "open")
        model = instantiate(name, lat)
        fam = model.family
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.uniform(-1, 1, fam.m)
            gen = assemble(fam, x)
            assert np.abs(transfer_matrix(gen)[0].toarray()).max() <= 1e-10  # T preserves the trace
        assert fam.J > 0

    def test_ancilla_menu(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("pinning", lat, omega=1)
        assert model.family.n_total == 6  # one ancilla per chain boundary
        assert model.entry.n_omega(lat) == 2
        ring = Lattice(1, (4,), "periodic")
        assert CATALOG["pinning"].n_omega(ring) == 1

    def test_ancilla_steady_state_keeps_product_oracle(self):
        lat = Lattice(1, (3,), "open")
        model = instantiate("pinning", lat, omega=1)
        x = np.random.default_rng(8).uniform(-1, 1, 3)
        ss = steady_state(assemble(model.family, x))
        oracle = full_state(model.oracle, x, np.inf, model.family)
        assert trace_norm(ss.data - oracle.data) < 1e-6


class TestGenerateState:
    def test_tau_zero_is_reference(self):
        lat = Lattice(1, (3,), "open")
        model = instantiate("pinning", lat)
        x = np.random.default_rng(9).uniform(-1, 1, 3)
        out = generate_state(model, x, 0.0)
        assert trace_norm(out.data - model.reference_state().data) < 1e-12

    def test_negative_tau_rejected(self):
        lat = Lattice(1, (3,), "open")
        model = instantiate("pinning", lat)
        with pytest.raises(ValueError):
            generate_state(model, np.zeros(3), -1.0)

    def test_large_tau_near_steady(self):
        lat = Lattice(1, (3,), "open")
        model = instantiate("pinning", lat, kappa0=1.0)
        x = np.random.default_rng(10).uniform(-1, 1, 3)
        late = generate_state(model, x, 20.0)
        ss = generate_state(model, x, np.inf)
        assert trace_norm(late.data - ss.data) < 1e-6

    def test_oracle_and_integrator_agree(self):
        lat = Lattice(1, (2,), "open")
        model = instantiate("pinning", lat)
        x = np.array([0.3, -0.6])
        by_oracle = full_state(model.oracle, x, 1.3, model.family)
        by_ode = generate_state(model, x, 1.3)
        assert trace_norm(by_oracle.data - by_ode.data) < 1e-7


class TestSampler:
    def _model(self):
        return instantiate("pinning", Lattice(1, (4,), "open"))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sample_parameters(self._model(), 0, None, 0)

    def test_deterministic_under_seed(self):
        xa, ta = sample_parameters(self._model(), 5, None, seed=42)
        xb, tb = sample_parameters(self._model(), 5, None, seed=42)
        assert np.array_equal(xa, xb) and np.array_equal(ta, tb)

    def test_steady_mode_tags_infinity(self):
        _, taus = sample_parameters(self._model(), 3, None, 0)
        assert taus.shape == (3,) and np.all(np.isinf(taus))

    def test_general_mode_needs_horizon(self):
        for t_eps in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                sample_parameters(self._model(), 3, t_eps, 0)
        _, taus = sample_parameters(self._model(), 100, 2.5, 0)
        assert taus.shape == (100,) and np.all((0 <= taus) & (taus <= 2.5))

    def test_uniform_moments(self):
        xs, _ = sample_parameters(self._model(), 10_000, None, 123)
        assert xs.shape == (10_000, self._model().family.m)
        tol = 3.0 / math.sqrt(3 * len(xs))
        assert np.all(np.abs(xs.mean(axis=0)) < tol)
