import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Z, random_density
from phaselearn.lattice import Lattice
from phaselearn.lindblad import DensityMatrix, partial_trace
from phaselearn.models import instantiate
from phaselearn.shadows import (
    ShadowSnapshot,
    TrainingSet,
    measure_snapshot,
    measure_snapshot_product,
    median_of_means,
    read_shadows,
    required_shadow_count,
    snapshot_local_matrix,
    write_shadows,
)


def _snap(bases, outcomes):
    return ShadowSnapshot(
        np.array(bases, dtype=np.int8), np.array(outcomes, dtype=np.int8),
        np.zeros(0), math.inf, 0, 0,
    )


class TestMeasurement:
    def test_zero_state_z_always_plus(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), 1)
        for seed in range(200):
            s = measure_snapshot(rho, seed)
            if s.bases[0] == 2:
                assert s.outcomes[0] == 1

    def test_plus_state_statistics(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        rho = DensityMatrix(np.outer(plus, plus).astype(complex), 1)
        x_minus = z_plus = z_minus = z_total = 0
        n_draws = 10_000
        for seed in range(n_draws):
            s = measure_snapshot(rho, seed)
            if s.bases[0] == 0 and s.outcomes[0] == -1:
                x_minus += 1
            if s.bases[0] == 2:
                z_total += 1
                if s.outcomes[0] == 1:
                    z_plus += 1
                else:
                    z_minus += 1
        assert x_minus == 0  # |+> measured in X is deterministic
        # chi^2 test of the 50/50 Z split at p > 0.01 (1 dof: critical 6.63)
        chi2 = (z_plus - z_minus) ** 2 / z_total
        assert chi2 < 6.63

    def test_bell_state_perfectly_correlated_in_z(self):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0 / math.sqrt(2)
        rho = DensityMatrix(np.outer(bell, bell).astype(complex), 2)
        seen = 0
        for seed in range(10_000):
            s = measure_snapshot(rho, seed)
            if s.bases[0] == 2 and s.bases[1] == 2:
                seen += 1
                assert s.outcomes[0] == s.outcomes[1]
        assert seen > 500

    def test_bases_uniform(self):
        rho = DensityMatrix.maximally_mixed(2)
        counts = np.zeros(3)
        for seed in range(3000):
            s = measure_snapshot(rho, seed)
            for b in s.bases:
                counts[b] += 1
        assert np.all(np.abs(counts / counts.sum() - 1 / 3) < 0.03)

    def test_eigenstates_from_canonical_set(self):
        sq2 = 1 / math.sqrt(2)
        canonical = [
            np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            np.array([sq2, sq2]), np.array([sq2, -sq2]),
            np.array([sq2, 1j * sq2]), np.array([sq2, -1j * sq2]),
        ]
        rho = DensityMatrix.maximally_mixed(3)
        seen = set()
        for seed in range(100):
            s = measure_snapshot(rho, seed)
            for site in range(3):
                ket = s.eigenstate_ket(site)
                matches = [k for k, c in enumerate(canonical)
                           if np.allclose(ket, c)]
                assert len(matches) == 1
                seen.add(matches[0])
        assert seen == set(range(6))

    def test_ancilla_sites_not_measured(self):
        lat = Lattice(1, (2,), "open")
        model = instantiate("pinning", lat, omega=1)
        rho = model.oracle.full_state(np.array([0.2, -0.4]), np.inf, model.family)
        s = measure_snapshot(rho, 3, n_system=2)
        assert s.n_sites == 2

    def test_product_fast_path_matches_general(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("pinning", lat)
        x = np.random.default_rng(0).uniform(-1, 1, 4)
        sites = np.stack([model.oracle.site_state(x[j], np.inf) for j in range(4)])
        rho = model.oracle.full_state(x, np.inf, model.family)
        for seed in range(500):
            a = measure_snapshot(rho, seed)
            b = measure_snapshot_product(sites, seed)
            assert np.array_equal(a.bases, b.bases)
            assert np.array_equal(a.outcomes, b.outcomes)


class TestInverseChannel:
    def test_single_site_formula(self):
        m = snapshot_local_matrix(_snap([2], [1]), [0])
        assert np.allclose(m, np.diag([2.0, -1.0]))

    def test_empty_region_scalar_one(self):
        m = snapshot_local_matrix(_snap([2], [1]), [])
        assert m.shape == (1, 1) and m[0, 0] == 1.0

    def test_oversized_region(self):
        s = _snap([2] * 8, [1] * 8)
        with pytest.raises(ValueError):
            snapshot_local_matrix(s, list(range(7)))

    def test_unbiased_single_site(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), 1)
        vals = []
        for seed in range(30_000):
            s = measure_snapshot(rho, seed)
            vals.append(np.real(np.trace(Z @ snapshot_local_matrix(s, [0]))))
        mean = float(np.mean(vals))
        stderr = float(np.std(vals)) / math.sqrt(len(vals))
        assert abs(mean - 1.0) <= 4 * stderr

    def test_unbiased_reduced_state(self):
        rng = np.random.default_rng(1)
        rho = random_density(2, rng)
        acc = np.zeros((2, 2), dtype=complex)
        n_draws = 60_000
        for seed in range(n_draws):
            s = measure_snapshot(rho, seed)
            acc += snapshot_local_matrix(s, [1])
        marg = partial_trace(rho.data, 2, [1])
        assert np.max(np.abs(acc / n_draws - marg)) < 0.03

    def test_trace_exactly_one(self):
        rng = np.random.default_rng(2)
        rho = random_density(3, rng)
        for seed in range(50):
            m = snapshot_local_matrix(measure_snapshot(rho, seed), [0, 2])
            assert abs(np.trace(m) - 1.0) <= 1e-9


class TestMedianOfMeans:
    def test_worked_example(self):
        assert median_of_means([1, 1, 1, 100], 2) == 25.75

    def test_k1_is_mean(self):
        vals = [3.0, 5.0, 7.0, 9.5]
        assert median_of_means(vals, 1) == pytest.approx(np.mean(vals))

    def test_remainder_discarded(self):
        # batches of 2 from 5 values: last value dropped
        assert median_of_means([1, 1, 2, 2, 50], 2) == pytest.approx(1.5)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            median_of_means([1.0], 2)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_k1_matches_numpy_mean(self, vals):
        assert median_of_means(vals, 1) == pytest.approx(np.mean(vals), abs=1e-9)

    def test_concentration_against_outliers(self):
        rng = np.random.default_rng(3)
        hits = 0
        trials = 100
        for t in range(trials):
            vals = rng.normal(0.0, 1.0, 3000)
            mom = median_of_means(vals, 30)
            if abs(mom) <= 5.0 / math.sqrt(100):
                hits += 1
        assert hits >= 99


class TestRequiredShadowCount:
    def test_worked_instance(self):
        # (8*12/(3*0.25)) * log(8*4/0.1) = 128 log 320 = 738.34..; ceil = 739
        assert required_shadow_count(0.5, 0.1, 1, 8) == 739

    def test_quadratic_scaling_in_precision(self):
        # ceil(4y) >= 4 ceil(y) - 3 is the sharp ceiling relation for the
        # 1/eps^2 scaling; here q(0.25) = 2954 = 4 q(0.5) - 2
        q1 = required_shadow_count(0.5, 0.1, 1, 8)
        q2 = required_shadow_count(0.25, 0.1, 1, 8)
        assert q2 >= 4 * q1 - 3
        assert q2 >= q1

    def test_k0_zero_drops_n_dependence(self):
        assert required_shadow_count(0.3, 0.1, 0, 8) == required_shadow_count(0.3, 0.1, 0, 800)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            required_shadow_count(0.0, 0.1, 1, 8)
        with pytest.raises(ValueError):
            required_shadow_count(0.5, 1.0, 1, 8)


class TestShadowFile:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        rho = random_density(3, rng)
        snaps = [
            measure_snapshot(rho, seed, x=rng.uniform(-1, 1, 5), tau=float(t), omega=t % 2)
            for seed, t in zip(range(6), [0, 1, 2, 0, 1, 2])
        ]
        snaps.append(measure_snapshot(rho, 99, x=rng.uniform(-1, 1, 5)))
        ts = TrainingSet(snaps, model_name="pinning", lattice_json="{}",
                         mode="general_phase", seed=11, m=5)
        buf = io.StringIO()
        write_shadows(buf, ts)
        buf.seek(0)
        back = read_shadows(buf)
        assert back.model_name == "pinning"
        assert back.mode == "general_phase"
        assert back.seed == 11 and back.m == 5
        for a, b in zip(ts.snapshots, back.snapshots):
            assert np.array_equal(a.bases, b.bases)
            assert np.array_equal(a.outcomes, b.outcomes)
            assert np.array_equal(a.x, b.x)
            assert a.tau == b.tau or (math.isinf(a.tau) and math.isinf(b.tau))
            assert a.seed == b.seed and a.omega == b.omega

    def test_format_line_shape(self):
        s = measure_snapshot(DensityMatrix.maximally_mixed(2), 5, x=np.array([0.5, -0.25]))
        ts = TrainingSet([s], m=2)
        buf = io.StringIO()
        write_shadows(buf, ts)
        record = [l for l in buf.getvalue().split("\n") if l and not l.startswith("#")][0]
        xhex, tau, omega, basis, bits, seed = record.split(" ")
        assert len(xhex) == 2 * 8 * 2  # two little-endian float64s in hex
        assert tau == "inf" and omega == "0" and seed == "5"
        assert len(basis) == 2 and set(basis) <= set("XYZ")
        assert len(bits) == 2 and set(bits) <= set("01")

    def test_prefix_subset(self):
        snaps = [_snap([2], [1]) for _ in range(5)]
        ts = TrainingSet(snaps, m=0)
        assert len(ts.subset(3)) == 3
