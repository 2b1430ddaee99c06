from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    SM,
    X,
    Y,
    Z,
    amplitude_damping_family,
    full_state,
    pauli_vec_basis,
    random_density,
    random_two_site_family,
    transfer_matrix,
    vec_generator,
)
from phaselearn import lindblad
from phaselearn.errors import DegenerateSteadyStateError, NumericalError
from phaselearn.lattice import Lattice, Region, ball, embed_sparse_indices, embed_triplets
from phaselearn.lindblad import (
    DensityMatrix,
    LindbladTerm,
    ParamLindbladian,
    assemble,
    evolve,
    heisenberg_evolve,
    localize,
    partial_trace,
    steady_state,
    subfamily,
    trace_norm,
)
from phaselearn.models import instantiate


def _random_chain_family(rng: np.random.Generator, n: int, cancel: bool,
                         dissipate_all: bool) -> ParamLindbladian:
    """Random 1D family on n sites: site and bond terms with 0-2 coordinates.

    Each term's Hamiltonian is a random Hermitian combination of its
    coordinates, and its jumps random matrices, some scaled by a coordinate.
    ``cancel`` replaces the term on the last support by two terms with
    opposite fixed Hamiltonians, whose entries cancel exactly where no other
    term reaches; ``dissipate_all`` gives every site a fixed random jump.
    """
    def rand_mat(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    def rand_herm(d):
        a = rand_mat(d)
        return (a + a.conj().T) / 2

    supports = [(j,) for j in range(n)] + [(j, j + 1) for j in range(n - 1)]
    specs = []  # (support, n_params, build)
    for sup in supports:
        d = 2 ** len(sup)
        ell = int(rng.integers(0, 3))
        hs = [rand_herm(d) for _ in range(ell)]
        jumps = [0.5 * rand_mat(d) for _ in range(int(rng.integers(0, 2)))]
        scaled = bool(rng.integers(0, 2))

        def build(xs, _hs=hs, _jumps=jumps, _scaled=scaled):
            h = sum(float(x) * hk for x, hk in zip(xs, _hs)) if _hs else None
            if _scaled and len(xs):
                return h, [float(xs[0]) * L for L in _jumps]
            return h, list(_jumps)

        specs.append((sup, ell, build))
    if dissipate_all:
        for j in range(n):
            specs.append(((j,), 0, lambda xs, _L=0.8 * rand_mat(2): (None, [_L])))
    if cancel:
        sup = supports[-1]
        h_c = rand_herm(2 ** len(sup))
        specs[len(supports) - 1] = (sup, 0, lambda xs: (h_c, []))
        specs.append((sup, 0, lambda xs: (-h_c, [])))
    terms, m = [], 0
    for i, (sup, ell, build) in enumerate(specs):
        terms.append(LindbladTerm(Region(sup), tuple(range(m, m + ell)), build, f"t{i}"))
        m += ell
    return ParamLindbladian(Lattice(1, (n,), "open"), terms)


def _term_triplets(family: ParamLindbladian, ti: int, x: np.ndarray) -> tuple:
    """COO triplets of one term's transfer block embedded in the full space,
    where site s owns the binary digits 2s and 2s + 1 of a Pauli index."""
    term = family.terms[ti]
    stacks = family._stacks(x[None], lindblad._FirstError(1), transfer=True)
    block = next(stack[0, j] for (_, members), stack in zip(family._size_groups, stacks)
                 for j, t in enumerate(members) if t == ti)
    digits = [b for s in term.support.sites for b in (2 * s, 2 * s + 1)]
    return embed_triplets(block, *embed_sparse_indices(2 * family.n_total, digits))


def _outcome(family: ParamLindbladian, x: np.ndarray) -> list:
    """The bytes of T at x and of its steady state, or the error type."""
    gen = assemble(family, x)
    T = transfer_matrix(gen)
    out = [T.indptr.tobytes(), T.indices.tobytes(), T.data.tobytes()]
    try:
        out.append(steady_state(gen).data.tobytes())
    except (DegenerateSteadyStateError, NumericalError) as exc:
        out.append(type(exc))
    return out


def _dense_generator(family: ParamLindbladian, x: np.ndarray) -> np.ndarray:
    """Reference generator from each term's build: Kronecker embedding on the
    chain and the column-stacking convention vec(A X B) = (B^T (x) A) vec(X)."""
    n = family.n_total
    D = 2**n
    eye = np.eye(D)
    M = np.zeros((D * D, D * D), dtype=complex)
    for term in family.terms:
        sites = term.support.sites
        h, jumps = term.build(x[list(term.coord_indices)])

        def full(op, _lo=sites[0], _k=len(sites)):
            return np.kron(np.kron(np.eye(2**_lo), op), np.eye(2 ** (n - _lo - _k)))

        if h is not None:
            H = full(h)
            M += -1j * (np.kron(eye, H) - np.kron(H.T, eye))
        for L in jumps:
            Lf = full(L)
            LdL = Lf.conj().T @ Lf
            M += np.kron(Lf.conj(), Lf) - 0.5 * np.kron(eye, LdL) - 0.5 * np.kron(LdL.T, eye)
    return M


class TestAssemble:
    def test_zero_family_gives_zero_generator(self):
        lat = Lattice(1, (2,))
        term = LindbladTerm(Region((0,)), (), lambda xs: (None, []), "null")
        gen = assemble(ParamLindbladian(lat, [term]), np.zeros(0))
        assert transfer_matrix(gen).nnz == 0

    def test_amplitude_damping_spectrum(self):
        # hand-computed 4x4 generator for the jump sigma-minus at rate 1:
        # populations relax at rate 1, coherences at 1/2
        gen = assemble(amplitude_damping_family(1.0), np.zeros(0))
        eig = np.sort(np.linalg.eigvals(vec_generator(gen).toarray()).real)
        assert np.allclose(eig, [-1.0, -0.5, -0.5, 0.0], atol=1e-12)

    def test_linearity_over_terms(self):
        rng = np.random.default_rng(0)
        fam = random_two_site_family(rng)
        x = rng.uniform(-1, 1, fam.m)
        total = transfer_matrix(assemble(fam, x))
        acc = None
        for ti, term in enumerate(fam.terms):
            rows, cols, data = _term_triplets(fam, ti, x)
            piece = sp.coo_matrix((data, (rows, cols)), shape=total.shape)
            acc = piece if acc is None else acc + piece
        assert abs(total - acc).max() < 1e-14

    def test_trace_preservation_residual(self):
        rng = np.random.default_rng(1)
        fam = random_two_site_family(rng)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        assert np.abs(transfer_matrix(gen)[0].toarray()).max() <= 1e-10

    def test_out_of_bounds_rejected(self):
        fam = amplitude_damping_family()
        lat = Lattice(1, (2,))
        term = LindbladTerm(Region((0,)), (0,), lambda xs: (float(xs[0]) * Z, []), "h")
        fam2 = ParamLindbladian(lat, [term])
        for bad in (1.5, np.nan):
            with pytest.raises(ValueError, match="outside"):
                assemble(fam2, np.array([bad]))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), cancel=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_reference(self, seed, n, cancel):
        rng = np.random.default_rng(seed)
        fam = _random_chain_family(rng, n, cancel, dissipate_all=bool(rng.integers(0, 2)))
        x = rng.uniform(-1, 1, fam.m)
        gen = assemble(fam, x)
        ref = _dense_generator(fam, x)
        assert np.abs(vec_generator(gen).toarray() - ref).max() <= 1e-13
        assert np.abs(gen.column_stacked.toarray() - ref).max() <= 1e-13
        # terms that cancel leave no explicit zeros behind
        T = transfer_matrix(gen)
        assert T.nnz == np.count_nonzero(T.toarray())

    def test_no_roundoff_residue(self):
        # every stored entry of the TFIM n=4 transfer matrix is a structural
        # nonzero of the dense reference; roundoff of its zeros is dropped
        fam = instantiate("dissipative_tfim", Lattice(1, (4,), "open")).family
        x = np.random.default_rng(12).uniform(-1, 1, fam.m)
        V = pauli_vec_basis(4).toarray()
        ref = V.conj().T @ _dense_generator(fam, x) @ V
        got = transfer_matrix(assemble(fam, x))
        assert got.nnz == np.count_nonzero(np.abs(ref) >= 1e-14 * np.abs(ref).max())
        assert np.abs(got.toarray() - ref).max() <= 1e-13

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           name=st.sampled_from(["dissipative_tfim", "pinning"]))
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_np_kron(self, seed, n, name):
        # the broadcast outer product multiplies the same factors as np.kron
        # of each pair of matrices of the stacks
        def np_kron(a, b):
            lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
            pairs = zip(np.broadcast_to(a, lead + a.shape[-2:]).reshape((-1,) + a.shape[-2:]),
                        np.broadcast_to(b, lead + b.shape[-2:]).reshape((-1,) + b.shape[-2:]))
            side = a.shape[-1] * b.shape[-1]
            return np.array([np.kron(p, q) for p, q in pairs]).reshape(lead + (side, side))

        fam = instantiate(name, Lattice(1, (n,), "open")).family
        x = np.random.default_rng(seed).uniform(-1, 1, fam.m)
        got = assemble(fam, x)
        with mock.patch.object(lindblad, "_kron", np_kron):
            ref = assemble(fam, x)
            ref_t, ref_stacked = transfer_matrix(ref), ref.column_stacked
        for a, b in ((transfer_matrix(got), ref_t), (got.column_stacked, ref_stacked)):
            for attr in ("indptr", "indices", "data"):
                assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()

    @pytest.mark.parametrize("name,n", [*(("dissipative_tfim", n) for n in range(1, 5)),
                                        *(("pinning", n) for n in range(1, 7))])
    def test_scatter_bit_identical_to_summed(self, name, n):
        # the scatter sums each entry of T in term order, as the COO to CSR
        # sort does while no row gathers more than 16 raw entries
        fam = instantiate(name, Lattice(1, (n,), "open")).family
        rng = np.random.default_rng(n)
        for x in (np.zeros(fam.m), rng.uniform(-1, 1, fam.m), rng.uniform(-1, 1, fam.m)):
            got = transfer_matrix(assemble(fam, x))
            ref = lindblad._summed([_term_triplets(fam, ti, x) for ti in range(len(fam.terms))],
                                   4**fam.n_total, float)
            for attr in ("indptr", "indices", "data"):
                assert getattr(got, attr).tobytes() == getattr(ref, attr).tobytes()

    @given(data=st.data(), size=st.integers(1, 12), width=st.integers(1, 12),
           rows=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_binned_matches_bincount(self, data, size, width, rows):
        # the adder's sparse product gives each bin the bytes np.bincount
        # gives it, row by row: its weights in order, from 0.0
        k = data.draw(st.integers(0, 3 * width), label="k")
        bins = np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=k, max_size=k)),
                        dtype=np.int64)
        columns = np.array(data.draw(st.lists(st.integers(0, width - 1), min_size=k,
                                              max_size=k)), dtype=np.int64)
        weights = np.array(data.draw(st.lists(
            st.floats(allow_nan=False, width=64), min_size=rows * width,
            max_size=rows * width))).reshape(rows, width)
        got = lindblad._binned(lindblad._adder(columns, bins, size, width), weights)
        want = np.array([np.bincount(bins, row[columns], size) for row in weights])
        assert got.shape == (rows, size)
        assert got.tobytes() == want.reshape(rows, size).tobytes()

    def test_scatter_slot_grows_to_the_union(self):
        # x = 0 empties blocks: the slot grows once to the union of the two
        # patterns and then serves both, and T keeps the bytes a fresh family gives
        def fresh():
            return instantiate("dissipative_tfim", Lattice(1, (3,), "open")).family

        used = fresh()
        rng = np.random.default_rng(6)
        points = [np.zeros(used.m), rng.uniform(-1, 1, used.m), np.zeros(used.m),
                  rng.uniform(-1, 1, used.m)]
        with mock.patch.object(lindblad, "_scatter_plan", wraps=lindblad._scatter_plan) as plan:
            for x in points:
                got, want = (transfer_matrix(assemble(used, x)),
                             transfer_matrix(assemble(fresh(), x)))
                for attr in ("indptr", "indices", "data"):
                    assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
        masks = [call.args[1] for call in plan.call_args_list if call.args[0] is used]
        assert len(masks) == 2 and masks[0].sum() < masks[1].sum()
        assert np.array_equal(used._scatter[0], masks[1])

    def test_family_does_not_grow_with_points(self):
        # after its first point the family holds what later points reuse; 50
        # more, x = 0 among them, leave every attribute the size it was
        fam = instantiate("dissipative_tfim", Lattice(1, (4,), "open")).family

        def size(v):
            if sp.issparse(v):  # the ordering slot's matrix: its arrays
                return size((v.data, v.indices, v.indptr))
            if isinstance(v, np.ndarray):
                return v.size
            if isinstance(v, (tuple, list)):
                return tuple(size(u) for u in v)
            return len(v) if hasattr(v, "__len__") else None

        def sizes():
            return {k: size(v) for k, v in vars(fam).items()}

        def holds_factor(v):
            # an array whose base is a SuperLU object keeps the whole factor alive
            if sp.issparse(v):
                return holds_factor((v.data, v.indices, v.indptr))
            if isinstance(v, (tuple, list)):
                return any(holds_factor(u) for u in v)
            return isinstance(getattr(v, "base", None), spla.SuperLU)

        rng = np.random.default_rng(3)
        steady_state(assemble(fam, rng.uniform(-1, 1, fam.m)))
        before = sizes()
        for k in range(50):
            steady_state(assemble(fam, np.zeros(fam.m) if k == 25 else rng.uniform(-1, 1, fam.m)))
        assert sizes() == before
        assert not any(holds_factor(v) for v in vars(fam).values())


class TestEvolve:
    def test_zero_generator_identity(self):
        lat = Lattice(1, (1,))
        term = LindbladTerm(Region((0,)), (), lambda xs: (None, []), "null")
        gen = assemble(ParamLindbladian(lat, [term]), np.zeros(0))
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), 1)
        out = evolve(gen, rho, 7.3)
        assert trace_norm(out.data - rho.data) < 1e-9

    def test_t_zero_exact(self):
        gen = assemble(amplitude_damping_family(), np.zeros(0))
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), 1)
        assert evolve(gen, rho, 0.0) is rho

    def test_amplitude_damping_population(self):
        gen = assemble(amplitude_damping_family(1.0), np.zeros(0))
        rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), 1)
        for t in (0.3, 1.0, 2.5):
            out = evolve(gen, rho, t)
            assert abs(out.data[1, 1].real - np.exp(-t)) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_expm(self, seed):
        rng = np.random.default_rng(seed)
        fam = random_two_site_family(rng, n=3)
        x = rng.uniform(-1, 1, fam.m)
        gen = assemble(fam, x)
        rho = random_density(3, rng)
        t = rng.uniform(0.2, 5.0)
        via_ode = evolve(gen, rho, t)
        prop = scipy.linalg.expm(t * vec_generator(gen).toarray())
        direct = (prop @ rho.data.flatten(order="F")).reshape((8, 8), order="F")
        assert trace_norm(via_ode.data - direct) < 1e-7

    def test_semigroup_property(self):
        rng = np.random.default_rng(3)
        fam = random_two_site_family(rng)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        rho = random_density(2, rng)
        one = evolve(gen, evolve(gen, rho, 1.3), 2.1)
        two = evolve(gen, rho, 3.4)
        assert trace_norm(one.data - two.data) < 1e-7

    def test_contraction_in_trace_norm(self):
        rng = np.random.default_rng(4)
        fam = random_two_site_family(rng)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        a, b = random_density(2, rng), random_density(2, rng)
        for t in (0.5, 2.0):
            d_t = trace_norm(evolve(gen, a, t).data - evolve(gen, b, t).data)
            assert d_t <= trace_norm(a.data - b.data) + 1e-8

    def test_state_of_another_size_rejected(self):
        fam = random_two_site_family(np.random.default_rng(6), n=3)
        gen = assemble(fam, np.zeros(fam.m))
        with pytest.raises(ValueError, match="state on 2 sites, generator on 3"):
            evolve(gen, DensityMatrix(np.eye(4) / 4, 2), 1.0)

    def test_negative_time_rejected(self):
        gen = assemble(amplitude_damping_family(), np.zeros(0))
        with pytest.raises(ValueError):
            evolve(gen, DensityMatrix(np.eye(2) / 2, 1), -0.1)

    def test_evolution_builds_no_transfer_matrix(self):
        # the integrators read only the column-stacked generator, so a fresh
        # family is left without a scatter slot and the generator without T
        fam = instantiate("dissipative_tfim", Lattice(1, (3,), "open")).family
        rng = np.random.default_rng(10)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        evolve(gen, random_density(3, rng), 0.5)
        heisenberg_evolve(gen, np.eye(8, dtype=complex), 0.5)
        assert fam._scatter is None
        assert "matrix" not in vars(gen)


class TestHeisenberg:
    def test_identity_fixed(self):
        rng = np.random.default_rng(5)
        fam = random_two_site_family(rng)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        out = heisenberg_evolve(gen, np.eye(4, dtype=complex), 1.7)
        assert np.max(np.abs(out - np.eye(4))) < 1e-9

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), cancel=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_duality(self, seed, n, cancel):
        # tr[O e^{tL}(rho)] = tr[e^{tL*}(O) rho] on the families assemble is checked on
        rng = np.random.default_rng(seed)
        fam = _random_chain_family(rng, n, cancel, dissipate_all=bool(rng.integers(0, 2)))
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        rho = random_density(n, rng)
        D = 2**n
        h = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        obs = h + h.conj().T
        t = rng.uniform(0.1, 2.0)
        lhs = np.trace(obs @ evolve(gen, rho, t).data)
        rhs = np.trace(heisenberg_evolve(gen, obs, t) @ rho.data)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, np.abs(obs).max())

    def test_zero_generator(self):
        lat = Lattice(1, (1,))
        term = LindbladTerm(Region((0,)), (), lambda xs: (None, []), "null")
        gen = assemble(ParamLindbladian(lat, [term]), np.zeros(0))
        out = heisenberg_evolve(gen, Z, 3.0)
        assert np.max(np.abs(out - Z)) < 1e-10


def _scipy_rk45(matrix, y0, t, rtol):
    return scipy.integrate.solve_ivp(lambda _t, y: matrix @ y, (0.0, t), y0, method="RK45",
                                     t_eval=[t], rtol=rtol, atol=1e-12)


def _nan_matrix() -> sp.csr_matrix:
    matrix = sp.random(16, 16, density=0.3, random_state=1, format="csr") * (1 + 0j)
    matrix.data[0] = np.nan
    return matrix


class TestSolveIvp:
    # lindblad.solve_ivp ports scipy's RK45 path; scipy is the reference

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           family=st.sampled_from(["random", "dissipative_tfim", "pinning"]),
           heisenberg=st.booleans(), t=st.floats(0.1, 4.0),
           rtol=st.sampled_from([1e-8, 1e-9]))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_bit_for_bit(self, seed, n, family, heisenberg, t, rtol):
        rng = np.random.default_rng(seed)
        if family == "random":
            fam = _random_chain_family(rng, n, bool(rng.integers(0, 2)),
                                       dissipate_all=bool(rng.integers(0, 2)))
        else:
            n = max(n, 2)
            fam = instantiate(family, Lattice(1, (n,), "open")).family
        matrix = assemble(fam, rng.uniform(-1, 1, fam.m)).column_stacked
        if heisenberg:
            matrix = matrix.conj().T.tocsr()
        y0 = random_density(n, rng).data.flatten(order="F")
        ours, theirs = lindblad.solve_ivp(matrix, y0, t, rtol), _scipy_rk45(matrix, y0, t, rtol)
        assert theirs.success
        assert ours.y.tobytes() == theirs.y[:, -1].tobytes()
        assert ours.nfev == theirs.nfev

    def test_failure_matches_scipy(self):
        # from y0 = 0 the first step is finite; the NaN fails every error test
        # until the step is below the spacing of the numbers
        matrix, y0 = _nan_matrix(), np.zeros(16, dtype=complex)
        with np.errstate(invalid="ignore"):
            ours = lindblad.solve_ivp(matrix, y0, 1.0, 1e-9)
            theirs = _scipy_rk45(matrix, y0, 1.0, 1e-9)
            with pytest.raises(NumericalError, match="step underflow"):
                lindblad._integrate(matrix, y0, 1.0, 1e-9)
        assert ours.y is None and not theirs.success
        assert ours.nfev == theirs.nfev

    def test_nan_step_size_fails(self):
        # from y0 != 0 the first step size is NaN, which scipy retries forever
        with np.errstate(invalid="ignore"):
            ours = lindblad.solve_ivp(_nan_matrix(), np.ones(16, dtype=complex), 1.0, 1e-9)
        assert ours.y is None and ours.nfev == 2


class TestSteadyState:
    def test_depolarizing_gives_maximally_mixed(self):
        lat = Lattice(1, (1,))
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), Z]
        term = LindbladTerm(
            Region((0,)), (),
            lambda xs: (None, [0.5 * p.astype(complex) for p in paulis]), "dep",
        )
        gen = assemble(ParamLindbladian(lat, [term]), np.zeros(0))
        ss = steady_state(gen)
        assert trace_norm(ss.data - np.eye(2) / 2) < 1e-9

    def test_amplitude_damping_dark_state(self):
        ss = steady_state(assemble(amplitude_damping_family(), np.zeros(0)))
        assert trace_norm(ss.data - np.diag([1.0, 0.0])) < 1e-9

    def test_pinning_product_form(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("pinning", lat)
        x = np.random.default_rng(7).uniform(-1, 1, 4)
        ss = steady_state(assemble(model.family, x))
        oracle = full_state(model.oracle, x, np.inf, model.family)
        assert trace_norm(ss.data - oracle.data) < 1e-6

    def test_residual_invariant(self):
        rng = np.random.default_rng(8)
        fam = random_two_site_family(rng)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        ss = steady_state(gen)
        resid = (vec_generator(gen) @ ss.data.flatten(order="F")).reshape((4, 4), order="F")
        assert trace_norm(resid) <= 1e-9

    def test_fixity_under_evolution(self):
        rng = np.random.default_rng(9)
        fam = random_two_site_family(rng)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        ss = steady_state(gen)
        out = evolve(gen, ss, 10.0)
        assert trace_norm(out.data - ss.data) < 1e-7

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), dissipate_all=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_null_space(self, seed, n, dissipate_all):
        # a simple kernel gives its normalised null vector, a larger one an error
        rng = np.random.default_rng(seed)
        fam = _random_chain_family(rng, n, cancel=False, dissipate_all=dissipate_all)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        _, s, vh = np.linalg.svd(vec_generator(gen).toarray())
        scale = max(1.0, s[0])
        # leave out kernels too near degenerate for either verdict to be sharp
        assume(not 1e-12 * scale <= s[-2] <= 1e-6 * scale)
        if s[-2] < 1e-12 * scale:
            with pytest.raises(DegenerateSteadyStateError):
                steady_state(gen)
            return
        D = 2**n
        ref = vh[-1].conj().reshape((D, D), order="F")
        assert trace_norm(steady_state(gen).data - ref / np.trace(ref)) <= 1e-9

    def test_degenerate_kernel_is_an_error(self):
        # pure Z dephasing keeps every diagonal state fixed
        lat = Lattice(1, (1,))
        term = LindbladTerm(Region((0,)), (), lambda xs: (None, [Z.astype(complex)]), "deph")
        gen = assemble(ParamLindbladian(lat, [term]), np.zeros(0))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(gen)

    def test_second_dark_site_is_an_error(self):
        # site 0 decays to |0>, site 1 is only dephased: the kernel holds
        # |0><0| (x) diag(p, 1-p) for every p, so the traceless |0><0| (x) Z
        # stays in the kernel of the pinned matrix T + e0 e0^T.
        lat = Lattice(1, (2,), "open")
        terms = [LindbladTerm(Region((0,)), (), lambda xs: (None, [SM]), "ad"),
                 LindbladTerm(Region((1,)), (), lambda xs: (None, [Z.astype(complex)]), "deph")]
        gen = assemble(ParamLindbladian(lat, terms), np.zeros(0))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(gen)

    def test_one_factorization_per_steady_state(self, monkeypatch):
        lat = Lattice(1, (3,), "open")
        fam = instantiate("dissipative_tfim", lat).family
        gen = assemble(fam, np.random.default_rng(4).uniform(-1, 1, fam.m))
        calls = []

        def counted(*args, _splu=spla.splu, **kwargs):
            calls.append(args)
            return _splu(*args, **kwargs)
        monkeypatch.setattr(lindblad.spla, "splu", counted)
        steady_state(gen)
        assert len(calls) == 1
        # a point of the same pattern is factored in the order the first left
        steady_state(assemble(fam, np.random.default_rng(5).uniform(-1, 1, fam.m)))
        assert len(calls) == 2

    def test_degenerate_after_ordering_reuse(self, monkeypatch):
        # precession about one axis keeps I and the axis fixed at every x != 0
        h = X + 0.6 * Y + 0.3 * Z
        term = LindbladTerm(Region((0,)), (0,), lambda xs: (float(xs[0]) * h, []), "h")
        fam = ParamLindbladian(Lattice(1, (1,)), [term])
        specs = []

        def counted(*args, _splu=spla.splu, **kwargs):
            specs.append(kwargs["permc_spec"])
            return _splu(*args, **kwargs)
        monkeypatch.setattr(lindblad.spla, "splu", counted)
        for x in (0.4, 0.7):
            with pytest.raises(DegenerateSteadyStateError, match="probe"):
                steady_state(assemble(fam, np.array([x])))
        assert specs == ["MMD_AT_PLUS_A", "NATURAL"]

    def test_ordering_reused_after_scatter_slot_grows(self, monkeypatch):
        # x = 0 empties blocks, so a chunk that also holds generic points
        # grows the scatter slot, which drops the order x = 0 left: x = 0 and
        # the first generic point are ordered afresh, and the second generic
        # point reuses the order; the states keep a fresh family's bytes
        def fresh():
            return instantiate("dissipative_tfim", Lattice(1, (3,), "open")).family

        fam, specs = fresh(), []
        rng = np.random.default_rng(6)
        points = np.array([np.zeros(fam.m), rng.uniform(-1, 1, fam.m),
                           rng.uniform(-1, 1, fam.m)])

        def counted(*args, _splu=spla.splu, **kwargs):
            specs.append(kwargs["permc_spec"])
            return _splu(*args, **kwargs)
        want = [steady_state(assemble(fresh(), x)).data.tobytes() for x in points]
        monkeypatch.setattr(lindblad.spla, "splu", counted)
        with mock.patch.object(lindblad, "_scatter_plan", wraps=lindblad._scatter_plan) as plan:
            steady_state(assemble(fam, points[0]))
            got = [rho.data.tobytes() for rho in lindblad.steady_states(fam, points)]
        assert plan.call_count == 2
        assert specs == ["MMD_AT_PLUS_A"] * 3 + ["NATURAL"]
        assert got == want

    def test_evolved_generator_solves_like_fresh(self):
        # building the column-stacked generator first leaves T and the state as
        # a generator on a fresh family gives them
        def fresh():
            return instantiate("dissipative_tfim", Lattice(1, (3,), "open")).family

        x = np.random.default_rng(8).uniform(-1, 1, fresh().m)
        gen, ref = assemble(fresh(), x), assemble(fresh(), x)
        evolve(gen, DensityMatrix(np.eye(8) / 8, 3), 0.5)
        got, want = transfer_matrix(gen), transfer_matrix(ref)
        for attr in ("indptr", "indices", "data"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
        assert steady_state(gen).data.tobytes() == steady_state(ref).data.tobytes()

    @given(seed=st.integers(0, 2**32 - 1),
           model=st.sampled_from([("chain", 1), ("chain", 2), ("chain", 3),
                                  ("dissipative_tfim", 3), ("dissipative_tfim", 4)]),
           cancel=st.booleans(), dissipate_all=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_history_independent(self, seed, model, cancel, dissipate_all):
        # T and the steady state at a point have the same bytes on a fresh
        # family and on one that solved other points first; x = 0 has another
        # pattern, so each point after it is a miss and the next one a hit
        name, n = model

        def fresh():
            if name == "chain":
                return _random_chain_family(np.random.default_rng(seed), n, cancel, dissipate_all)
            return instantiate(name, Lattice(1, (n,), "open")).family

        used = fresh()
        rng = np.random.default_rng([seed, 1])
        points = [rng.uniform(-1, 1, used.m) for _ in range(4)]
        zero = np.zeros(used.m)
        for x in (zero, points[0], points[1], zero, points[2], points[3]):
            assert _outcome(fresh(), x) == _outcome(used, x)


def _dark_switch_family(rng: np.random.Generator, n: int) -> ParamLindbladian:
    """Random damped chain on n sites whose site 0 decays at rate (1 + x_0) / 2
    and otherwise only precesses about Z and couples by ZZ: at x_0 = -1 its Z
    population is conserved, so the kernel is degenerate.  Every other site
    decays at a fixed rate under a random transverse field."""
    def dark(xs):
        return float(xs[1]) * Z, [np.sqrt((1.0 + xs[0]) / 2.0) * SM]

    terms = [LindbladTerm(Region((0,)), (0, 1), dark, "dark")]
    for j in range(1, n):
        g = float(rng.uniform(0.2, 1.0))
        terms.append(LindbladTerm(Region((j,)), (j + 1,),
                                  lambda xs, _g=g: (float(xs[0]) * Z + _g * X, [0.8 * SM]),
                                  f"s{j}"))
    for j in range(n - 1):
        terms.append(LindbladTerm(Region((j, j + 1)), (n + 1 + j,),
                                  lambda xs: (float(xs[0]) * np.kron(Z, Z), []), f"b{j}"))
    return ParamLindbladian(Lattice(1, (n,), "open"), terms)


def _counted_run(run) -> tuple[list, int]:
    """What ``run`` yields, as state bytes, then the type and message of the
    error it raises, if any; and the number of SuperLU factorizations."""
    calls = []

    def counted(*args, _splu=spla.splu, **kwargs):
        calls.append(args)
        return _splu(*args, **kwargs)

    out = []
    with mock.patch.object(lindblad.spla, "splu", counted):
        try:
            for rho in run():
                out.append(rho.data.tobytes())
        except (DegenerateSteadyStateError, NumericalError, ValueError) as exc:
            out.append((type(exc), str(exc)))
    return out, len(calls)


class TestSteadyStates:
    @given(seed=st.integers(0, 2**32 - 1),
           model=st.sampled_from([("chain", 1, 0), ("chain", 2, 0), ("chain", 3, 0),
                                  ("dissipative_tfim", 3, 0), ("dissipative_tfim", 2, 1),
                                  ("pinning", 4, 0), ("pinning", 2, 1), ("dark", 3, 0)]),
           cancel=st.booleans(), dissipate_all=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_one_by_one(self, seed, model, cancel, dissipate_all, data):
        # the chunked path gives each point the T and the state that one
        # steady_state per point gives, and a failing point raises the same
        # error after the same earlier points and factorizations; the points
        # cross chunk boundaries, with x = 0 rows and a degenerate row among them
        name, n, omega = model
        chunk = lindblad.STEADY_CHUNK

        def fresh():
            rng = np.random.default_rng(seed)
            if name == "chain":
                return _random_chain_family(rng, n, cancel, dissipate_all)
            if name == "dark":
                return _dark_switch_family(rng, n)
            return instantiate(name, Lattice(1, (n,), "open"), omega=omega).family

        size = data.draw(st.integers(1, 2 * chunk + 3), label="size")
        X = np.random.default_rng([seed, 2]).uniform(-1, 1, (size, fresh().m))
        X[sorted(data.draw(st.sets(st.integers(0, size - 1), max_size=3), label="zeros"))] = 0.0
        if name == "dark":
            dark = data.draw(st.integers(0, size - 1), label="dark")
            X[dark, 0] = -1.0
        ref = fresh()
        expected = _counted_run(lambda: (steady_state(assemble(ref, x)) for x in X))
        assert _counted_run(lambda: lindblad.steady_states(fresh(), X)) == expected
        if name == "dark":
            assert expected[0][dark] == (DegenerateSteadyStateError, expected[0][dark][1])

        used = fresh()
        for lo in range(0, size, chunk):
            fail = lindblad._FirstError(len(X[lo:lo + chunk]))
            values, indices, indptr = lindblad._transfer_values(used, X[lo:lo + chunk], fail)
            assert fail.error is None
            for k, x in enumerate(X[lo:lo + chunk]):
                got = lindblad._pruned(values[k], indices, indptr)
                want = transfer_matrix(assemble(ref, x))
                assert got[0].tobytes() == want.data.tobytes()
                assert np.array_equal(got[1], want.indices) and np.array_equal(got[2], want.indptr)

    @pytest.mark.parametrize("fails, term, point", [
        ({0: 1, 2: 1}, "a", 1),
        ({0: 2, 2: 1}, "c", 1),
        ({1: 1, 2: 1}, "b", 1),
        ({0: 0, 2: 0}, "a", 0),
    ], ids=["same_point", "earlier_point", "across_sizes", "first_point"])
    def test_grouped_build_reports_the_first_error(self, fails, term, point):
        # terms a and c act on one site and are built in one stack, b on two;
        # coordinate j = 1 makes term j's Hamiltonian part non-Hermitian.  The
        # error is the earliest failing point's, and at that point the
        # earliest term's, as one point at a time reports it
        def built(sites, h):
            def build(xs):
                skew = np.kron(SM, np.eye(2 ** (sites - 1))) if xs[0] == 1.0 else 0.0
                return xs[0] * h + skew, [np.kron(SM, np.eye(2 ** (sites - 1)))]
            return build

        terms = [LindbladTerm(Region((0,)), (0,), built(1, X), "a"),
                 LindbladTerm(Region((0, 1)), (1,), built(2, np.kron(Z, Z)), "b"),
                 LindbladTerm(Region((1,)), (2,), built(1, X), "c")]
        fam = ParamLindbladian(Lattice(1, (2,), "open"), terms)
        X_ = np.full((4, 3), 0.3)
        for coord, at in fails.items():
            X_[at, coord] = 1.0
        got = _counted_run(lambda: lindblad.steady_states(fam, X_))
        assert got == _counted_run(lambda: (steady_state(assemble(fam, x)) for x in X_))
        states, error = got[0][:-1], got[0][-1]
        assert len(states) == point
        assert error == (ValueError, f"term {term!r}: Hamiltonian part not Hermitian")

    def test_points_checked_like_assemble(self):
        fam = instantiate("dissipative_tfim", Lattice(1, (2,), "open")).family
        with pytest.raises(ValueError, match="expected points of 3 parameters"):
            next(lindblad.steady_states(fam, np.zeros((2, 4))))
        for bad in (1.5, np.nan):
            X = np.zeros((3, fam.m))
            X[1, 0] = bad
            states = lindblad.steady_states(fam, X)
            assert next(states).data.tobytes() == steady_state(assemble(fam, X[0])).data.tobytes()
            with pytest.raises(ValueError, match="outside"):
                next(states)


class TestLocalize:
    def test_whole_lattice_returns_x(self):
        lat = Lattice(1, (6,), "open")
        model = instantiate("dissipative_tfim", lat)
        x = np.full(model.family.m, 0.5)
        xp = np.zeros(model.family.m)
        hyb = localize(model.family, x, xp, Region(tuple(range(6))))
        assert np.array_equal(hyb, x)

    def test_empty_region_returns_xprime(self):
        lat = Lattice(1, (6,), "open")
        model = instantiate("dissipative_tfim", lat)
        x = np.full(model.family.m, 0.5)
        xp = np.zeros(model.family.m)
        hyb = localize(model.family, x, xp, Region(()))
        assert np.array_equal(hyb, xp)

    def test_ball_region_selects_inner_terms(self):
        lat = Lattice(1, (6,), "open")
        model = instantiate("dissipative_tfim", lat)
        x = np.ones(model.family.m)
        xp = np.zeros(model.family.m)
        hyb = localize(model.family, x, xp, ball(lat, 2, 1))
        expected = np.zeros(model.family.m)
        expected[[1, 2, 3, 6 + 1, 6 + 2]] = 1.0  # sites 1,2,3 and bonds (1,2),(2,3)
        assert np.array_equal(hyb, expected)


class TestHelpers:
    def test_partial_trace_product(self):
        rng = np.random.default_rng(10)
        a, b = random_density(1, rng), random_density(1, rng)
        joint = np.kron(a.data, b.data)
        assert np.allclose(partial_trace(joint, 2, [0]), a.data)
        assert np.allclose(partial_trace(joint, 2, [1]), b.data)

    def test_subfamily_matches_full_on_region(self):
        lat = Lattice(1, (6,), "open")
        model = instantiate("pinning", lat)
        sub, cmap = subfamily(model.family, Region((1, 2, 3)))
        assert sub.n_total == 3
        assert list(cmap) == [1, 2, 3]
        x = np.random.default_rng(11).uniform(-1, 1, 6)
        ss = steady_state(assemble(sub, x[cmap]))
        expect = model.oracle.marginal(x, np.inf, [1, 2, 3])
        assert trace_norm(ss.data - expect) < 1e-8

    def test_density_matrix_guards(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.5, 0.6]).astype(complex), 1)  # trace 1.1
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex), 1)
