import io
import math
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import shadows_reference
from conftest import X, Y, Z, full_state, random_density
from learning_reference import joined, row_slice
from phaselearn import shadows
from phaselearn.errors import ConfigError, NumericalError
from phaselearn.lattice import Lattice, LocalObservable, Region
from phaselearn.learner import CellFold, PlanConstants, plan
from phaselearn.lindblad import STEADY_CHUNK, DensityMatrix, _admitted, partial_trace
from phaselearn.models import instantiate
from phaselearn.seeding import stream_seed
from phaselearn.shadows import (
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
    return np.array(bases, dtype=np.int8), np.array(outcomes, dtype=np.int8)


def _repeated(rho: DensityMatrix, rows: int, key: int = 0, row: int = 0,
              n_system: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` snapshots of ``rho``, with stream rows ``row``.. on, as one
    stack of the general sampler."""
    stack = np.broadcast_to(rho.data, (rows,) + rho.data.shape)
    return measure_snapshot(stack, key, row, n_system)


def _columns(bases, outcomes, X, taus=None):
    """A TrainingSet from its columns; omitted taus default to steady state."""
    return TrainingSet(bases, outcomes, X, taus=[math.inf] * len(bases) if taus is None else taus)


def _header(m, n, mode="steady_state", omega=0, seed=0):
    """A bundle header for a pinning run with m tags and n sites."""
    return {"model": "pinning", "lattice": '{"dim": 1}', "mode": mode, "seed": seed,
            "omega": omega, "m": m, "n": n}


def _hex(*values):
    """The values as little-endian float64 hex, as a record's values field holds them."""
    return np.array(values, dtype="<f8").tobytes().hex()


def _record_lines(data: bytes) -> list[bytes]:
    """The record lines of a bundle's bytes."""
    return [line for line in data.split(b"\n") if line and not line.startswith(b"#")]


def _philox_row(key, row, n):
    """Reference draws of stream row ``row``: its 4 ceil(n/2) words straight
    from np.random.Philox, converted with Python integers."""
    blocks = (n + 1) // 2
    words = [int(w) for w in np.random.Philox(key=key, counter=[row * blocks, 0, 0, 0])
             .random_raw(4 * blocks)]
    return [((w >> 11) * 3) >> 53 for w in words[:n]], [(w >> 11) / 2**53 for w in words[n:2 * n]]


unit_floats = st.floats(-1.0, 1.0, allow_nan=False)

# tau = inf, as a record's values field ends in steady state
INF = _hex(math.inf)
# a good record under "# m 1" and "# n 2"
GOOD = f"000000000000f03f{INF} XY 01"

# lines that are bad after GOOD under "# m 1" and "# n 2"
BAD_LINES = [
    f"3ff0000000000000{INF} XY 02",
    f"3ff0000000000000{INF} XY",
    f"3ff000000000000g{INF} XY 01",
    f"3ff000000000000\t{INF} XY 01",
    f"3ff0000000000000{INF} 0 XY 01",
    f"3ff0000000000000{_hex(1.0)} XY 01",
    f"0000000000000040{INF} XY 01",
    f"3ff0000000000000{INF} XYZ 010",
    "# m one",
    "# m 1",
    "# n 2",
    "# omega one",
    "# omega 1",
]


# field values, or one float64 of a values field, that the checks of a
# record treat differently: inf, -inf, nan, -3, -0, 2 and 1, then tokens of
# other widths or alphabets
FIELD_TOKENS = ["", "-", INF, _hex(-math.inf), _hex(math.nan), _hex(-3.0), _hex(-0.0),
                _hex(2.0), _hex(1.0), "000000000000000g", "00000000000000\u0661", " 2", "ZZ",
                "01", "X\u00e9"]


COLUMNS = ("bases", "outcomes", "X", "taus")


@st.composite
def training_sets(draw, max_rows=40):
    """Random (header, TrainingSet) pairs, steady or general mode, m = 0..4
    and n = 0..6; general-mode taus include -0.0, a subnormal and large ones."""
    N, m, n = draw(st.integers(0, max_rows)), draw(st.integers(0, 4)), draw(st.integers(0, 6))
    steady = draw(st.booleans())
    tau = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e16]) | st.floats(
        0.0, 1e6, allow_nan=False, allow_infinity=False)
    omega = draw(st.sampled_from([0, 7, 10**17]) | st.integers(0, 3))
    header = _header(m, n, "steady_state" if steady else "general_phase", omega, seed=N)
    return header, _columns(
        draw(hnp.arrays(np.int8, (N, n), elements=st.integers(0, 2))),
        draw(hnp.arrays(np.int8, (N, n), elements=st.sampled_from([-1, 1]))),
        draw(hnp.arrays(float, (N, m), elements=unit_floats)),
        taus=[math.inf] * N if steady else draw(st.lists(tau, min_size=N, max_size=N)))


def _read(fileobj) -> tuple[dict, TrainingSet]:
    """read_shadows' header, and its chunks joined into one TrainingSet; each
    chunk holds at most ``_CHUNK_ROWS`` records."""
    header, chunks = read_shadows(fileobj)
    chunks = list(chunks)
    assert all(0 < len(chunk) <= shadows._CHUNK_ROWS for chunk in chunks)
    return header, joined(chunks)


def _read_outcome(read, text):
    """read(text)'s header and four columns, the header alone for a file
    without records, or the type and text of what it raised."""
    try:
        header, ts = read(io.BytesIO(text.encode()))
    except Exception as exc:  # compared, type and text, with the other reader's
        return type(exc).__name__, str(exc)
    if not len(ts):  # the columns' widths are unknown without records
        return header
    return ([getattr(ts, name).tobytes() for name in COLUMNS], ts.X.shape, ts.bases.shape,
            header)


class TestMeasurement:
    def test_zero_state_z_always_plus(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), 1)
        bases, outcomes = _repeated(rho, 200)
        assert (bases == 2).any()
        assert np.all(outcomes[bases == 2] == 1)

    def test_plus_state_statistics(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        rho = DensityMatrix(np.outer(plus, plus).astype(complex), 1)
        x_minus = z_plus = z_minus = z_total = 0
        n_draws = 10_000
        for bases, outcomes in zip(*_repeated(rho, n_draws)):
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
        for bases, outcomes in zip(*_repeated(rho, 10_000)):
            if bases[0] == 2 and bases[1] == 2:
                seen += 1
                assert outcomes[0] == outcomes[1]
        assert seen > 500

    def test_bases_uniform(self):
        rho = DensityMatrix(np.eye(4) / 4, 2)
        counts = np.zeros(3)
        for bases in _repeated(rho, 3000)[0]:
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
        for bases, outcomes in zip(*_repeated(rho, 100)):
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
        rho = full_state(model.oracle, np.array([0.2, -0.4]), np.inf, model.family)
        bases, outcomes = _repeated(rho, 1, row=3, n_system=2)
        assert bases.shape == outcomes.shape == (1, 2)

    def test_product_fast_path_matches_general(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("pinning", lat)
        x = np.random.default_rng(0).uniform(-1, 1, 4)
        bloch = model.oracle.bloch_vectors(np.tile(x, (500, 1)), np.full(500, np.inf))
        b_bases, b_outcomes = measure_snapshot_product(bloch, 0)
        rho = full_state(model.oracle, x, np.inf, model.family)
        a_bases, a_outcomes = _repeated(rho, 500)
        assert np.array_equal(a_bases, b_bases)
        assert np.array_equal(a_outcomes, b_outcomes)

    @given(data=st.data(), n=st.integers(1, 4), rows=st.integers(1, 6),
           key=st.integers(0, 2**128 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batched_sampler_matches_general_on_oracle_states(self, data, n, rows, key):
        model = instantiate("pinning", Lattice(1, (n,), "open"))
        tau = st.one_of(st.just(0.0), st.just(math.inf),
                        st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False))
        X = np.array([data.draw(st.lists(unit_floats, min_size=n, max_size=n))
                      for _ in range(rows)])
        taus = np.array([data.draw(tau) for _ in range(rows)])
        bases, outcomes = measure_snapshot_product(model.oracle.bloch_vectors(X, taus), key)
        stack = np.array([full_state(model.oracle, X[i], taus[i], model.family).data
                          for i in range(rows)])
        a_bases, a_outcomes = measure_snapshot(stack, key)
        assert np.array_equal(a_bases, bases)
        assert np.array_equal(a_outcomes, outcomes)

    @given(data=st.data(), key=st.integers(0, 2**128 - 1), n=st.integers(1, 9),
           row=st.integers(0, 2**40), rows=st.integers(0, 40), chunk=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_chunked_draw_matches_philox_blocks(self, data, key, n, row, rows, chunk):
        # row i of the stream is Philox blocks [i B, (i + 1) B) whatever the chunking
        bloch = data.draw(hnp.arrays(float, (rows, n, 3), elements=unit_floats))
        # measured a chunk at a time, each call from the stream row of its first row
        parts = [measure_snapshot_product(bloch[lo:lo + chunk], key, lo)
                 for lo in range(0, rows, chunk)]
        bases = np.concatenate([b for b, _ in parts]) if parts else np.empty((0, n))
        outcomes = np.concatenate([o for _, o in parts]) if parts else np.empty((0, n))
        for i in range(rows):
            ref_bases, ref_uniforms = _philox_row(key, i, n)
            assert bases[i].tolist() == ref_bases
            p_plus = (1.0 + bloch[i, np.arange(n), ref_bases]) / 2.0
            assert outcomes[i].tolist() == [1 if u < p else -1
                                            for u, p in zip(ref_uniforms, p_plus)]
        # far along the stream too: every conditional outcome of the maximally
        # mixed state has probability exactly 1/2
        mixed = DensityMatrix(np.eye(2**n, dtype=complex) / 2**n, n)
        ref_bases, ref_uniforms = _philox_row(key, row, n)
        far_bases, far_outcomes = _repeated(mixed, 1, key, row)
        assert far_bases[0].tolist() == ref_bases
        assert far_outcomes[0].tolist() == [1 if u < 0.5 else -1 for u in ref_uniforms]

    def test_uniforms_are_numpys_doubles(self):
        # words n..2n-1 of a row convert exactly as Generator.random does
        n, row = 5, 12
        generator = np.random.Generator(np.random.Philox(key=99, counter=[row * 3, 0, 0, 0]))
        assert _philox_row(99, row, n)[1] == generator.random(2 * n)[n:].tolist()

    def test_batched_rows_are_independent(self):
        # row i depends only on (key, i): prefixes and single rows replay exactly, and
        # changing the other rows' states leaves row i alone
        model = instantiate("pinning", Lattice(1, (5,), "open"))
        rng = np.random.default_rng(4)
        X, taus = rng.uniform(-1, 1, (300, 5)), rng.uniform(0.0, 3.0, 300)
        key = stream_seed(11, "measurement")
        bloch = model.oracle.bloch_vectors(X, taus)
        bases, outcomes = measure_snapshot_product(bloch, key)
        for M in (1, 17, 299):
            head_bases, head_outcomes = measure_snapshot_product(bloch[:M], key)
            assert np.array_equal(head_bases, bases[:M])
            assert np.array_equal(head_outcomes, outcomes[:M])
        for i in (40, 299):
            rho = full_state(model.oracle, X[i], taus[i], model.family)
            row_bases, row_outcomes = _repeated(rho, 1, key, i)
            assert np.array_equal(row_bases[0], bases[i])
            assert np.array_equal(row_outcomes[0], outcomes[i])
        other = model.oracle.bloch_vectors(rng.uniform(-1, 1, (300, 5)), taus)
        other[77] = bloch[77]
        other_bases, other_outcomes = measure_snapshot_product(other, key)
        assert np.array_equal(other_bases, bases)
        assert np.array_equal(other_outcomes[77], outcomes[77])

    @given(seed=st.integers(0, 2**32 - 1), n_sites=st.integers(1, 4), data=st.data(),
           key=st.integers(0, 2**128 - 1), row=st.integers(0, 2**40))
    @settings(max_examples=60, deadline=None)
    def test_stacked_sampler_matches_reference(self, seed, n_sites, data, key, row):
        # each state of a stack gets the bytes the one-state reference gives it
        # with its stream row, ancilla slots traced out first; when some states
        # have a negative conditional probability, the first row whose state
        # raises in the reference raises the same error
        n_system = data.draw(st.integers(1, n_sites), label="n_system")
        size = data.draw(st.integers(1, 2 * STEADY_CHUNK + 3), label="size")
        bad = data.draw(st.sets(st.integers(0, size - 1), max_size=4), label="bad")
        rng = np.random.default_rng(seed)
        stack = []
        for i in range(size):
            if i in bad:
                # a product whose factor on one site has a Bloch vector with
                # components +-(1 + a): measured in any basis, that site has
                # the probability -a/2, unique to this row; traced out as an
                # ancilla, it leaves a state
                r = (1.0 + 0.05 * (i + 1)) * rng.choice([-1.0, 1.0], 3)
                factors = [random_density(1, rng).data for _ in range(n_sites)]
                factors[rng.integers(n_sites)] = (np.eye(2) + r[0] * X + r[1] * Y + r[2] * Z) / 2
                stack.append(reduce(np.kron, factors))
            elif rng.random() < 0.3:  # a pure state: some outcomes have probability 0
                v = rng.standard_normal(2**n_sites) + 1j * rng.standard_normal(2**n_sites)
                stack.append(np.outer(v, v.conj()) / np.vdot(v, v).real)
            else:
                stack.append(random_density(n_sites, rng).data)
        want, error = [], None
        for i, rho in enumerate(stack):
            try:
                want.append(shadows_reference.measure_snapshot(
                    _admitted(rho, n_sites), key, row + i, n_system))
            except NumericalError as exc:
                error = str(exc)
                break
        if error is not None:
            with pytest.raises(NumericalError) as err:
                measure_snapshot(np.array(stack), key, row, n_system)
            assert str(err.value) == error
            return
        bases, outcomes = measure_snapshot(np.array(stack), key, row, n_system)
        assert bases.shape == outcomes.shape == (size, n_system)
        assert bases.tobytes() == np.array([b for b, _ in want]).tobytes()
        assert outcomes.tobytes() == np.array([o for _, o in want]).tobytes()

    @pytest.mark.parametrize("shape, n_system", [((4, 4), None), ((2, 4, 2), None),
                                                 ((2, 3, 3), None), ((2, 4, 4), 3)],
                             ids=["no_stack", "not_square", "not_qubits", "too_many_sites"])
    def test_bad_stack_rejected(self, shape, n_system):
        with pytest.raises(ValueError, match="stack of states"):
            measure_snapshot(np.zeros(shape), 0, n_system=n_system)

    def test_vanishing_mass_raises(self):
        # a zero matrix has no probability mass at its first site
        stack = np.array([np.eye(4) / 4, np.zeros((4, 4)), np.eye(4) / 4], dtype=complex)
        with pytest.raises(NumericalError, match="vanishing conditional probability mass"):
            measure_snapshot(stack, 3)
        bases, outcomes = measure_snapshot(stack[[0, 2]], 3)
        assert bases.shape == outcomes.shape == (2, 2)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overlong_bloch_vector_rejected(self, sign):
        # p+ = (1 +- (1 + 1e-9)) / 2 lies 5e-10 outside [0, 1] whichever basis is drawn
        bloch = np.zeros((3, 2, 3))
        bloch[1, 0, :] = sign * (1.0 + 1e-9)
        with pytest.raises(NumericalError):
            measure_snapshot_product(bloch, 0)

    def test_unit_bloch_vector_accepted(self):
        bloch = np.zeros((2, 3, 3))
        bloch[0, :, 2], bloch[1, :, 0] = 1.0 + 1e-11, -1.0
        bases, outcomes = measure_snapshot_product(bloch, 5)
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
        for snapshot in zip(*_repeated(rho, 30_000)):
            vals.append(np.real(np.trace(Z @ snapshot_local_matrix(*snapshot, [0]))))
        mean = float(np.mean(vals))
        stderr = float(np.std(vals)) / math.sqrt(len(vals))
        assert abs(mean - 1.0) <= 4 * stderr

    def test_unbiased_reduced_state(self):
        rng = np.random.default_rng(1)
        rho = random_density(2, rng)
        acc = np.zeros((2, 2), dtype=complex)
        n_draws = 60_000
        for snapshot in zip(*_repeated(rho, n_draws)):
            acc += snapshot_local_matrix(*snapshot, [1])
        marg = partial_trace(rho.data, 2, [1])
        assert np.max(np.abs(acc / n_draws - marg)) < 0.03

    def test_trace_exactly_one(self):
        rng = np.random.default_rng(2)
        rho = random_density(3, rng)
        for snapshot in zip(*_repeated(rho, 50)):
            m = snapshot_local_matrix(*snapshot, [0, 2])
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
        bases, outcomes = _repeated(rho, 7)
        ts = _columns(bases, outcomes, rng.uniform(-1, 1, (7, 5)),
                      taus=[0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 4.0])
        buf = io.BytesIO()
        write_shadows(buf, _header(5, 3, "general_phase", omega=1, seed=11), [ts])
        buf.seek(0)
        header, back = _read(buf)
        assert header == {"phaselearn-shadows": "v4", "model": "pinning",
                          "lattice": '{"dim": 1}', "mode": "general_phase", "seed": 11,
                          "omega": 1, "m": 5, "n": 3}
        assert back.X.shape == (7, 5)
        for name in COLUMNS:
            assert np.array_equal(getattr(ts, name), getattr(back, name)), name

    @pytest.mark.parametrize("m", [0, 3])
    def test_byte_roundtrip(self, m):
        rng = np.random.default_rng(40 + m)
        N, n = 5, 4
        ts = _columns(rng.integers(0, 3, (N, n)), rng.choice([-1, 1], (N, n)),
                      rng.uniform(-1, 1, (N, m)),
                      taus=[7.0, 0.0, 0.1, 2.5e-17, 3.0])
        first = io.BytesIO()
        write_shadows(first, _header(m, n, "general_phase", omega=1, seed=2**63 + 5), [ts])
        second = io.BytesIO()
        write_shadows(second, *read_shadows(io.BytesIO(first.getvalue())))
        assert second.getvalue() == first.getvalue()
        if m == 0:  # the values field holds tau alone
            assert [line[:17] for line in _record_lines(first.getvalue())] == [
                f"{_hex(tau)} ".encode() for tau in ts.taus]

    @given(drawn=training_sets(), chunk=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_random_byte_roundtrip(self, drawn, chunk):
        # write -> read -> write is byte-identical across chunk boundaries, a
        # header without records included, and the writer's bytes are the
        # record-at-a-time reference writer's, whether it is handed the whole
        # set, its chunks or, for no records, no chunks at all; every record
        # is 16 (m + 1) + 2 n + 2 bytes
        header, ts = drawn
        N = len(ts)
        pieces = [row_slice(ts, lo, lo + chunk) for lo in range(0, N, chunk)]
        with mock.patch.object(shadows, "_CHUNK_ROWS", chunk):
            first = io.BytesIO()
            write_shadows(first, header, [ts])
            chunked = io.BytesIO()
            write_shadows(chunked, header, pieces)
            reference = io.BytesIO()
            shadows_reference.write_shadows(reference, header, ts)
            back_header, back = _read(io.BytesIO(first.getvalue()))
            second = io.BytesIO()
            write_shadows(second, *read_shadows(io.BytesIO(first.getvalue())))
        assert first.getvalue() == reference.getvalue() == chunked.getvalue()
        assert second.getvalue() == first.getvalue()
        width = 16 * (header["m"] + 1) + 2 * header["n"] + 2
        assert [len(line) for line in _record_lines(first.getvalue())] == [width] * N
        assert back_header == {"phaselearn-shadows": "v4", **header}
        assert len(back) == N
        for name in COLUMNS if N else ():
            assert np.array_equal(getattr(ts, name), getattr(back, name)), name

    @given(drawn=training_sets(max_rows=12), data=st.data(), chunk=st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_reader_matches_reference(self, drawn, data, chunk):
        # on a valid bundle, and on it with lines inserted and characters or
        # fields replaced, the byte-block reader returns the reference
        # reader's header and arrays or raises the same error with the same text
        header, ts = drawn
        buf = io.BytesIO()
        write_shadows(buf, header, [ts])
        lines = buf.getvalue().decode().split("\n")
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(lines) - 1))
            edit = data.draw(st.sampled_from(["insert", "char", "field"]))
            if edit == "insert":
                lines.insert(at, data.draw(st.sampled_from(["", "# note 1", *BAD_LINES])))
            elif edit == "char" and lines[at]:
                col = data.draw(st.integers(0, len(lines[at]) - 1))
                char = data.draw(st.sampled_from(" \t-#0159afgXYZW.e+n_\x00?\u0661\xe9"))
                lines[at] = lines[at][:col] + char + lines[at][col + 1:]
            elif edit == "field":
                fields = lines[at].split(" ")
                i = data.draw(st.integers(0, len(fields) - 1))
                token = data.draw(st.sampled_from(FIELD_TOKENS))
                if i == 0 and not lines[at].startswith("#"):  # one float64 of the values
                    j = 16 * data.draw(st.integers(0, len(fields[0]) // 16))
                    token = fields[0][:j] + token + fields[0][j + 16:]
                fields[i] = token
                lines[at] = " ".join(fields)
        text = "\n".join(lines)
        with mock.patch.object(shadows, "_CHUNK_ROWS", chunk):
            ours = _read_outcome(_read, text)
            theirs = _read_outcome(shadows_reference.read_shadows, text)
        assert ours == theirs

    @pytest.mark.parametrize("header, what", [
        ("# phaselearn-shadows v1", "line 1: shadows format v1"),
        ("# phaselearn-shadows v3", "line 1: shadows format v3 is not readable"),
        ("# m -1", "line 1: negative tag count m"),
        ("# m 99999999999999999999", "line 1: tag count m = 99999999999999999999 exceeds"),
        ("# n -1", "line 1: negative site count n"),
        ("# n 99999999999999999999", "line 1: site count n = 99999999999999999999 exceeds"),
        # nothing as wide as m = 10**12 makes a record is read before such a record
        ("# m 1000000000000", "line 2: expected 16000000000018 bytes, .* the record has 20$"),
        # each value is read as the type of its default: the seed is an integer
        ("# seed 7.5", "line 1: invalid literal for int"),
    ], ids=["version_1", "version_3", "negative_m", "huge_m", "negative_n", "huge_n",
            "wide_m_short_record", "seed_fraction"])
    def test_bad_header_rejected(self, header, what):
        with pytest.raises(ConfigError, match=what):
            _read(io.BytesIO(f"{header}\n{INF} Z 0\n".encode()))

    @pytest.mark.parametrize("record, what", [
        (f"0000000000000000{INF} ZZ 02", "outcome bits"),
        (f"0000000000000000{INF} ZZZ 011", "expected 38 bytes, .* the record has 40"),
        (f"0000000000000000{INF} ZZ 0", "expected 38 bytes, .* the record has 37"),
        (f"00000000{INF} ZZ 01", "expected 38 bytes, .* the record has 30"),
        (f"0000000000000000{INF} ZZ", "expected 38 bytes, .* the record has 35"),
        (f"0000000000000000{INF} Z Z01", "for m = 1 and n = 2; the record has 38"),
        (f"0000000000000000{INF} ZW 01", "basis letters"),
        (f"000000000000000g{INF} ZZ 01", "values field is not hexadecimal"),
        (f"0000000000000000{INF[:-1]}g ZZ 01", "values field is not hexadecimal"),
        # from the first record on, a "#" line or a blank line is a record line
        ("# omega one", "expected 38 bytes, .* the record has 11$"),
        ("# omega 1", "expected 38 bytes, .* the record has 9$"),
        ("# m one", "expected 38 bytes, .* the record has 7$"),
        ("# mode general_phase", "expected 38 bytes, .* the record has 20$"),
        ("# n 2", "expected 38 bytes, .* the record has 5$"),
        ("", "expected 38 bytes, .* the record has 0$"),
        (f"000000000000f87f{INF} ZZ 01", "x tags"),
        (f"0000000000000040{INF} ZZ 01", "x tags"),
        (f"0000000000000000{_hex(-3.0)} ZZ 01", "tau must be inf"),
    ], ids=["bit_2", "ragged_long", "ragged_short", "short_x", "three_fields", "space_moved",
            "letter_W", "bad_hex", "bad_hex_in_tau",
            "omega_word", "omega_after_record", "header_m", "header_after_record",
            "n_after_record", "trailing_blank", "x_nan", "x_two", "tau_in_steady"])
    def test_malformed_record_rejected(self, record, what):
        text = f"# m 1\n# n 2\n{GOOD}\n{record}\n"
        with pytest.raises(ConfigError, match=what) as err:
            _read(io.BytesIO(text.encode()))
        assert "line 4" in str(err.value)

    @given(body=st.lists(st.sampled_from([None, None, None, *BAD_LINES]), max_size=12),
           chunk=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_names_first_bad_line(self, body, chunk):
        # None is a good record; every other line is bad after the first record,
        # and the error names the first of them whichever checks they fail
        lines = ["# m 1", "# n 2", GOOD] + [GOOD if line is None else line for line in body]
        text = ("\n".join(lines) + "\n").encode()
        bad = [i for i, line in enumerate(body) if line is not None]
        with mock.patch.object(shadows, "_CHUNK_ROWS", chunk):
            if not bad:
                assert len(_read(io.BytesIO(text))[1]) == len(lines) - 2
                return
            with pytest.raises(ConfigError, match=f"^shadows line {bad[0] + 4}:"):
                _read(io.BytesIO(text))

    # the records' chunks of lines start at the first record, after the header
    @pytest.mark.parametrize("line", [len(shadows._HEADER) + shadows._CHUNK_ROWS,
                                      len(shadows._HEADER) + shadows._CHUNK_ROWS + 1],
                             ids=["last_of_first_chunk", "first_of_second_chunk"])
    def test_names_bad_line_at_full_chunk_size(self, line):
        # two full chunks of records at the shipped chunk size, one bad line
        N = 2 * shadows._CHUNK_ROWS
        ts = _columns(np.zeros((N, 2), np.int8), np.ones((N, 2), np.int8),
                      np.full((N, 1), 0.5))
        buf = io.BytesIO()
        write_shadows(buf, _header(1, 2), [ts])
        lines = buf.getvalue().split(b"\n")
        chunks = read_shadows(io.BytesIO(buf.getvalue()))[1]
        assert [len(chunk) for chunk in chunks] == [shadows._CHUNK_ROWS] * 2
        lines[line - 1] = f"000000000000e03f{INF} XY 02".encode()
        with pytest.raises(ConfigError, match=f"^shadows line {line}: .*outcome bits"):
            _read(io.BytesIO(b"\n".join(lines)))

    @pytest.mark.parametrize("line", ["# omega 1_\u0663", "# m \u0661"], ids=["omega", "m"])
    def test_non_ascii_header_value_rejected(self, line):
        # a header value is ASCII, though int would read this one as 13 or 1
        text = f"# mode general_phase\n{line}\n{_hex(0.5)} XY 01\n"
        with pytest.raises(ConfigError, match="^shadows line 2: 'ascii' codec"):
            _read(io.BytesIO(text.encode()))

    @pytest.mark.parametrize("tau", [-3.0, math.nan, math.inf])
    def test_bad_evolve_tau_rejected(self, tau):
        text = f"# mode general_phase\n# n 2\n{_hex(0.5)} XY 01\n{_hex(tau)} ZZ 01\n"
        with pytest.raises(ConfigError, match="line 4: tau must be finite and >= 0"):
            _read(io.BytesIO(text.encode()))

    def test_format_line_shape(self):
        bases, outcomes = _repeated(DensityMatrix(np.eye(4) / 4, 2), 1, 5)
        ts = _columns(bases, outcomes, [[0.5, -0.25]])
        buf = io.BytesIO()
        write_shadows(buf, _header(2, 2, omega=1, seed=9), [ts])
        *header, record, end = buf.getvalue().decode().split("\n")
        assert header == ["# phaselearn-shadows v4", "# model pinning", '# lattice {"dim": 1}',
                          "# mode steady_state", "# seed 9", "# omega 1", "# m 2", "# n 2"]
        assert end == ""
        assert len(record) == 16 * 3 + 2 * 2 + 2
        values, basis, bits = record.split(" ")
        assert len(values) == 2 * 8 * 3  # the two tags, then tau, as little-endian float64s
        assert bytes.fromhex(values) == np.array([0.5, -0.25, math.inf], dtype="<f8").tobytes()
        assert values[-16:] == "000000000000f07f"
        assert len(basis) == 2 and set(basis) <= set("XYZ")
        assert len(bits) == 2 and set(bits) <= set("01")

    def test_prefix_subset(self):
        # records come back chunk after chunk in file order, so the first s
        # records read are the first s written: a sweep size's prefix
        ts = _columns([[2]] * 5, [[1]] * 5, [[0.0], [0.25], [0.5], [0.75], [1.0]])
        buf = io.BytesIO()
        write_shadows(buf, _header(1, 1), [ts])
        with mock.patch.object(shadows, "_CHUNK_ROWS", 2):
            chunks = list(read_shadows(io.BytesIO(buf.getvalue()))[1])
        # the chunks of lines start at the first record
        assert [len(chunk) for chunk in chunks] == [2, 2, 1]
        sub = joined(chunks[:2])
        assert sub.X[:, 0].tolist() == [0.0, 0.25, 0.5, 0.75]

    @given(drawn=training_sets(max_rows=12), data=st.data(), chunk=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_note_lines_skipped_in_header_rejected_among_records(self, drawn, data, chunk):
        # "#" lines of keys the header lacks, and blank lines, in the header
        # change neither the header nor the columns; from the first record on
        # the first of them is a malformed record line, named by its number
        header, ts = drawn
        buf = io.BytesIO()
        write_shadows(buf, header, [ts])
        lines = [(line, False) for line in buf.getvalue().split(b"\n")]
        for _ in range(data.draw(st.integers(1, 4))):
            note = data.draw(st.sampled_from([b"# note", b"# note 1", b"#", b""]))
            lines.insert(data.draw(st.integers(0, len(lines) - 1)), (note, True))
        text = b"\n".join(line for line, _ in lines)
        first = next((i for i, (line, note) in enumerate(lines)
                      if not note and line and not line.startswith(b"#")), len(lines))
        among = [i for i, (_, note) in enumerate(lines) if note and i > first]
        with mock.patch.object(shadows, "_CHUNK_ROWS", chunk):
            if among:
                with pytest.raises(ConfigError, match=f"^shadows line {among[0] + 1}: expected"):
                    _read(io.BytesIO(text))
                return
            want = _read(io.BytesIO(buf.getvalue()))
            got = _read(io.BytesIO(text))
        assert got[0] == want[0]
        for name in COLUMNS:
            assert np.array_equal(getattr(got[1], name), getattr(want[1], name)), name


class TestLocalEstimates:
    @given(data=st.data(), N=st.integers(0, 30), n=st.integers(1, 5),
           k=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_lookup_matches_reference(self, data, N, n, k):
        """The learner's table holds the per-snapshot Kronecker estimate of
        every row's code exactly."""
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
        # one test point, its cell every row: the patch's tags are all zero
        family = instantiate("pinning", Lattice(1, (n,), "open")).family
        consts = PlanConstants(J=1.0, ell=1, r0=0, D=1, n=n, m=family.m)
        p = plan(0.3, 0.1, 0.1, consts, r=0, gamma=0.5, n=1)
        fold = CellFold([LocalObservable(Region(tuple(sites)), obs)], np.zeros((1, family.m)),
                        [math.inf], p, family)
        fold.add(TrainingSet(bases, outcomes, np.zeros((N, family.m)), [math.inf] * N))
        (cell,), table = fold.cells[0], fold.tables[0]
        codes = np.concatenate(cell.codes) if N else []
        assert len(codes) == N
        for i in range(N):
            ref = float(np.real(np.trace(obs @ snapshot_local_matrix(
                bases[i], outcomes[i], sites))))
            assert table[codes[i]] == ref
