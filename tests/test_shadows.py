import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import Z, random_density
from phaselearn.errors import ConfigError, NumericalError
from phaselearn.lattice import Lattice
from phaselearn.lindblad import DensityMatrix, partial_trace
from phaselearn.models import instantiate
from phaselearn.seeding import stream_seed
from phaselearn.shadows import (
    TrainingSet,
    local_estimates,
    measure_snapshot,
    measure_snapshot_product,
    median_of_means,
    read_shadows,
    required_shadow_count,
    snapshot_local_matrix,
    write_shadows,
)


def _snap(bases, outcomes):
    return np.array(bases, dtype=np.int8), np.array(outcomes, dtype=np.int8)


def _columns(bases, outcomes, X, taus=None, omegas=None, seeds=None, **meta):
    """A TrainingSet from its columns; omitted tags default to steady state."""
    N = len(bases)
    return TrainingSet(
        bases, outcomes, X,
        taus=[math.inf] * N if taus is None else taus,
        omegas=[0] * N if omegas is None else omegas,
        seeds=list(range(N)) if seeds is None else seeds,
        **meta,
    )


class TestMeasurement:
    def test_zero_state_z_always_plus(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), 1)
        for seed in range(200):
            bases, outcomes = measure_snapshot(rho, seed)
            if bases[0] == 2:
                assert outcomes[0] == 1

    def test_plus_state_statistics(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        rho = DensityMatrix(np.outer(plus, plus).astype(complex), 1)
        x_minus = z_plus = z_minus = z_total = 0
        n_draws = 10_000
        for seed in range(n_draws):
            bases, outcomes = measure_snapshot(rho, seed)
            if bases[0] == 0 and outcomes[0] == -1:
                x_minus += 1
            if bases[0] == 2:
                z_total += 1
                if outcomes[0] == 1:
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
            bases, outcomes = measure_snapshot(rho, seed)
            if bases[0] == 2 and bases[1] == 2:
                seen += 1
                assert outcomes[0] == outcomes[1]
        assert seen > 500

    def test_bases_uniform(self):
        rho = DensityMatrix(np.eye(4) / 4, 2)
        counts = np.zeros(3)
        for seed in range(3000):
            bases, _ = measure_snapshot(rho, seed)
            for b in bases:
                counts[b] += 1
        assert np.all(np.abs(counts / counts.sum() - 1 / 3) < 0.03)

    def test_eigenstates_from_canonical_set(self):
        sq2 = 1 / math.sqrt(2)
        canonical = [
            np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            np.array([sq2, sq2]), np.array([sq2, -sq2]),
            np.array([sq2, 1j * sq2]), np.array([sq2, -1j * sq2]),
        ]
        rho = DensityMatrix(np.eye(8) / 8, 3)
        seen = set()
        for seed in range(100):
            bases, outcomes = measure_snapshot(rho, seed)
            for site in range(3):
                # the estimate is 3 |z><z| - I, so (estimate + I) / 3 = |z><z|
                proj = (snapshot_local_matrix(bases, outcomes, [site]) + np.eye(2)) / 3
                matches = [k for k, c in enumerate(canonical)
                           if np.allclose(proj, np.outer(c, c.conj()))]
                assert len(matches) == 1
                seen.add(matches[0])
        assert seen == set(range(6))

    def test_ancilla_sites_not_measured(self):
        lat = Lattice(1, (2,), "open")
        model = instantiate("pinning", lat, omega=1)
        rho = model.oracle.full_state(np.array([0.2, -0.4]), np.inf, model.family)
        bases, outcomes = measure_snapshot(rho, 3, n_system=2)
        assert len(bases) == len(outcomes) == 2

    def test_product_fast_path_matches_general(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("pinning", lat)
        x = np.random.default_rng(0).uniform(-1, 1, 4)
        bloch = model.oracle.bloch_vectors(np.tile(x, (500, 1)), np.full(500, np.inf))
        b_bases, b_outcomes = measure_snapshot_product(bloch, range(500))
        rho = model.oracle.full_state(x, np.inf, model.family)
        for seed in range(500):
            a_bases, a_outcomes = measure_snapshot(rho, seed)
            assert np.array_equal(a_bases, b_bases[seed])
            assert np.array_equal(a_outcomes, b_outcomes[seed])

    @given(data=st.data(), n=st.integers(1, 4),
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_batched_sampler_matches_general_on_oracle_states(self, data, n, seeds):
        model = instantiate("pinning", Lattice(1, (n,), "open"))
        unit = st.floats(-1.0, 1.0, allow_nan=False)
        tau = st.one_of(st.just(0.0), st.just(math.inf),
                        st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False))
        X = np.array([data.draw(st.lists(unit, min_size=n, max_size=n)) for _ in seeds])
        taus = np.array([data.draw(tau) for _ in seeds])
        bases, outcomes = measure_snapshot_product(model.oracle.bloch_vectors(X, taus), seeds)
        for i, seed in enumerate(seeds):
            rho = model.oracle.full_state(X[i], taus[i], model.family)
            a_bases, a_outcomes = measure_snapshot(rho, seed)
            assert np.array_equal(a_bases, bases[i])
            assert np.array_equal(a_outcomes, outcomes[i])

    def test_batched_rows_are_independent(self):
        # row i depends only on its own seed: a prefix replays exactly
        model = instantiate("pinning", Lattice(1, (5,), "open"))
        rng = np.random.default_rng(4)
        X, taus = rng.uniform(-1, 1, (300, 5)), rng.uniform(0.0, 3.0, 300)
        seeds = [stream_seed(11, "measurement", i) for i in range(300)]
        bloch = model.oracle.bloch_vectors(X, taus)
        bases, outcomes = measure_snapshot_product(bloch, seeds)
        for M in (1, 17, 299):
            head_bases, head_outcomes = measure_snapshot_product(bloch[:M], seeds[:M])
            assert np.array_equal(head_bases, bases[:M])
            assert np.array_equal(head_outcomes, outcomes[:M])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overlong_bloch_vector_rejected(self, sign):
        # p+ = (1 +- (1 + 1e-9)) / 2 lies 5e-10 outside [0, 1] whichever basis is drawn
        bloch = np.zeros((3, 2, 3))
        bloch[1, 0, :] = sign * (1.0 + 1e-9)
        with pytest.raises(NumericalError):
            measure_snapshot_product(bloch, range(3))

    def test_unit_bloch_vector_accepted(self):
        bloch = np.zeros((2, 3, 3))
        bloch[0, :, 2], bloch[1, :, 0] = 1.0 + 1e-11, -1.0
        bases, outcomes = measure_snapshot_product(bloch, [5, 6])
        assert np.all(outcomes[0][bases[0] == 2] == 1)
        assert np.all(outcomes[1][bases[1] == 0] == -1)


class TestInverseChannel:
    def test_single_site_formula(self):
        m = snapshot_local_matrix(*_snap([2], [1]), [0])
        assert np.allclose(m, np.diag([2.0, -1.0]))

    def test_empty_region_scalar_one(self):
        m = snapshot_local_matrix(*_snap([2], [1]), [])
        assert m.shape == (1, 1) and m[0, 0] == 1.0

    def test_oversized_region(self):
        with pytest.raises(ValueError):
            snapshot_local_matrix(*_snap([2] * 8, [1] * 8), list(range(7)))

    def test_unbiased_single_site(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), 1)
        vals = []
        for seed in range(30_000):
            vals.append(np.real(np.trace(
                Z @ snapshot_local_matrix(*measure_snapshot(rho, seed), [0]))))
        mean = float(np.mean(vals))
        stderr = float(np.std(vals)) / math.sqrt(len(vals))
        assert abs(mean - 1.0) <= 4 * stderr

    def test_unbiased_reduced_state(self):
        rng = np.random.default_rng(1)
        rho = random_density(2, rng)
        acc = np.zeros((2, 2), dtype=complex)
        n_draws = 60_000
        for seed in range(n_draws):
            acc += snapshot_local_matrix(*measure_snapshot(rho, seed), [1])
        marg = partial_trace(rho.data, 2, [1])
        assert np.max(np.abs(acc / n_draws - marg)) < 0.03

    def test_trace_exactly_one(self):
        rng = np.random.default_rng(2)
        rho = random_density(3, rng)
        for seed in range(50):
            m = snapshot_local_matrix(*measure_snapshot(rho, seed), [0, 2])
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
        seeds = list(range(6)) + [99]
        bases, outcomes = map(np.array, zip(*(measure_snapshot(rho, s) for s in seeds)))
        ts = _columns(bases, outcomes, rng.uniform(-1, 1, (7, 5)),
                      taus=[0.0, 1.0, 2.0, 0.0, 1.0, 2.0, math.inf],
                      omegas=[0, 1, 0, 0, 1, 0, 0], seeds=seeds,
                      model_name="pinning", lattice_json="{}", mode="general_phase",
                      seed=11)
        buf = io.StringIO()
        write_shadows(buf, ts)
        buf.seek(0)
        back = read_shadows(buf)
        assert back.model_name == "pinning"
        assert back.mode == "general_phase"
        assert back.seed == 11 and back.X.shape == (7, 5)
        for name in ("bases", "outcomes", "X", "taus", "omegas", "seeds"):
            assert np.array_equal(getattr(ts, name), getattr(back, name)), name

    @pytest.mark.parametrize("m", [0, 3])
    def test_byte_roundtrip(self, m):
        rng = np.random.default_rng(40 + m)
        N, n = 5, 4
        ts = _columns(rng.integers(0, 3, (N, n)), rng.choice([-1, 1], (N, n)),
                      rng.uniform(-1, 1, (N, m)),
                      taus=[math.inf, 0.0, 0.1, 2.5e-17, 3.0], omegas=[0, 1, 1, 0, 1],
                      seeds=[0, 2**63, 2**64 - 1, 12345, 2**63 - 1],
                      model_name="pinning", lattice_json='{"dim": 1}',
                      mode="general_phase", seed=2**63 + 5)
        first = io.StringIO()
        write_shadows(first, ts)
        second = io.StringIO()
        write_shadows(second, read_shadows(io.StringIO(first.getvalue())))
        assert second.getvalue() == first.getvalue()
        if m == 0:
            assert all(line.startswith("- ") for line in first.getvalue().split("\n")
                       if line and not line.startswith("#"))

    @pytest.mark.parametrize("record, what", [
        ("0000000000000000 inf 0 ZZ 02 7", "outcome bits"),
        ("0000000000000000 inf 0 ZZZ 011 7", "first record's length"),
        ("0000000000000000 inf 0 ZZ 0 7", "first record's length"),
        ("00000000 inf 0 ZZ 01 7", "m = 1"),
        ("0000000000000000 inf 0 ZW 01 7", "basis letters"),
        ("0000000000000000 inf 0 ZZ 01", "6 fields"),
        ("000000000000000g inf 0 ZZ 01 7", "hexadecimal"),
        ("0000000000000000 inf 0 ZZ 01 -1", "64-bit"),
        ("# m one", "invalid literal"),
    ], ids=["bit_2", "ragged_long", "ragged_short", "short_x", "letter_W",
            "five_fields", "bad_hex", "negative_seed", "header_m"])
    def test_malformed_record_rejected(self, record, what):
        text = "# m 1\n0000000000000000 inf 0 XY 01 3\n" + record + "\n"
        with pytest.raises(ConfigError, match=what) as err:
            read_shadows(io.StringIO(text))
        assert "line 3" in str(err.value)

    def test_format_line_shape(self):
        bases, outcomes = measure_snapshot(DensityMatrix(np.eye(4) / 4, 2), 5)
        ts = _columns([bases], [outcomes], [[0.5, -0.25]], seeds=[5])
        buf = io.StringIO()
        write_shadows(buf, ts)
        record = [l for l in buf.getvalue().split("\n") if l and not l.startswith("#")][0]
        xhex, tau, omega, basis, bits, seed = record.split(" ")
        assert len(xhex) == 2 * 8 * 2  # two little-endian float64s in hex
        assert tau == "inf" and omega == "0" and seed == "5"
        assert len(basis) == 2 and set(basis) <= set("XYZ")
        assert len(bits) == 2 and set(bits) <= set("01")

    def test_prefix_subset(self):
        ts = _columns([[2]] * 5, [[1]] * 5, np.zeros((5, 0)))
        sub = ts.subset(3)
        assert len(sub) == 3
        assert list(sub.seeds) == [0, 1, 2] and sub.X.shape == (3, 0)


class TestLocalEstimates:
    @given(data=st.data(), N=st.integers(0, 30), n=st.integers(1, 5),
           k=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_lookup_matches_reference(self, data, N, n, k):
        """Table lookup equals the per-snapshot Kronecker estimate exactly."""
        k = min(k, n)
        bases = data.draw(hnp.arrays(np.int8, (N, n), elements=st.integers(0, 2)))
        outcomes = data.draw(hnp.arrays(np.int8, (N, n), elements=st.sampled_from([-1, 1])))
        sites = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                                   unique=True))
        d = 2**k
        parts = data.draw(hnp.arrays(np.float64, (2, d, d),
                                     elements=st.floats(-3, 3, allow_nan=False)))
        a = parts[0] + 1j * parts[1]
        obs = a + a.conj().T
        got = local_estimates(bases, outcomes, sites, obs)
        assert got.shape == (N,)
        for i in range(N):
            ref = float(np.real(np.trace(obs @ snapshot_local_matrix(
                bases[i], outcomes[i], sites))))
            assert got[i] == ref
