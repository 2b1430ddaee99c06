import numpy as np
import pytest
import scipy.linalg

from conftest import Z, amplitude_damping_family, random_density, random_two_site_family
from phaselearn.errors import DegenerateSteadyStateError
from phaselearn.lattice import Lattice, Region, ball
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


class TestAssemble:
    def test_zero_family_gives_zero_generator(self):
        lat = Lattice(1, (2,))
        term = LindbladTerm(Region((0,)), (), lambda xs: (None, []), "null")
        gen = assemble(ParamLindbladian(lat, [term]), np.zeros(0))
        assert gen.matrix.nnz == 0

    def test_amplitude_damping_spectrum(self):
        # hand-computed 4x4 generator for the jump sigma-minus at rate 1:
        # populations relax at rate 1, coherences at 1/2
        gen = assemble(amplitude_damping_family(1.0), np.zeros(0))
        eig = np.sort(np.linalg.eigvals(gen.matrix.toarray()).real)
        assert np.allclose(eig, [-1.0, -0.5, -0.5, 0.0], atol=1e-12)

    def test_linearity_over_terms(self):
        rng = np.random.default_rng(0)
        fam = random_two_site_family(rng)
        x = rng.uniform(-1, 1, fam.m)
        total = assemble(fam, x).matrix
        acc = None
        for ti, term in enumerate(fam.terms):
            piece = fam.term_superoperator(ti, x[list(term.coord_indices)])
            acc = piece if acc is None else acc + piece
        assert abs(total - acc).max() < 1e-14

    def test_trace_preservation_residual(self):
        rng = np.random.default_rng(1)
        fam = random_two_site_family(rng)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        assert gen.trace_preservation_residual() <= 1e-10

    def test_out_of_bounds_rejected(self):
        fam = amplitude_damping_family()
        lat = Lattice(1, (2,))
        term = LindbladTerm(Region((0,)), (0,), lambda xs: (float(xs[0]) * Z, []), "h")
        fam2 = ParamLindbladian(lat, [term])
        with pytest.raises(ValueError):
            assemble(fam2, np.array([1.5]))

    def test_family_does_not_grow_with_points(self):
        # assembling at many distinct points must leave the family as it was
        fam = instantiate("dissipative_tfim", Lattice(1, (4,), "open")).family

        def sizes():
            return {k: len(v) if hasattr(v, "__len__") else None
                    for k, v in vars(fam).items()}

        before = sizes()
        rng = np.random.default_rng(3)
        for _ in range(50):
            assemble(fam, rng.uniform(-1, 1, fam.m))
        assert sizes() == before


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
        prop = scipy.linalg.expm(t * gen.matrix.toarray())
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

    def test_negative_time_rejected(self):
        gen = assemble(amplitude_damping_family(), np.zeros(0))
        with pytest.raises(ValueError):
            evolve(gen, DensityMatrix.maximally_mixed(1), -0.1)


class TestHeisenberg:
    def test_identity_fixed(self):
        rng = np.random.default_rng(5)
        fam = random_two_site_family(rng)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        out = heisenberg_evolve(gen, np.eye(4, dtype=complex), 1.7)
        assert np.max(np.abs(out - np.eye(4))) < 1e-9

    def test_duality(self):
        rng = np.random.default_rng(6)
        fam = random_two_site_family(rng)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        rho = random_density(2, rng)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obs = h + h.conj().T
        t = 1.1
        lhs = np.trace(obs @ evolve(gen, rho, t).data)
        rhs = np.trace(heisenberg_evolve(gen, obs, t) @ rho.data)
        assert abs(lhs - rhs) < 1e-8

    def test_zero_generator(self):
        lat = Lattice(1, (1,))
        term = LindbladTerm(Region((0,)), (), lambda xs: (None, []), "null")
        gen = assemble(ParamLindbladian(lat, [term]), np.zeros(0))
        out = heisenberg_evolve(gen, Z, 3.0)
        assert np.max(np.abs(out - Z)) < 1e-10


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
        oracle = model.oracle.full_state(x, np.inf, model.family)
        assert trace_norm(ss.data - oracle.data) < 1e-6

    def test_residual_invariant(self):
        rng = np.random.default_rng(8)
        fam = random_two_site_family(rng)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        ss = steady_state(gen)
        resid = (gen.matrix @ ss.data.flatten(order="F")).reshape((4, 4), order="F")
        assert trace_norm(resid) <= 1e-9

    def test_fixity_under_evolution(self):
        rng = np.random.default_rng(9)
        fam = random_two_site_family(rng)
        gen = assemble(fam, rng.uniform(-1, 1, fam.m))
        ss = steady_state(gen)
        out = evolve(gen, ss, 10.0)
        assert trace_norm(out.data - ss.data) < 1e-7

    def test_degenerate_kernel_is_an_error(self):
        # pure Z dephasing keeps every diagonal state fixed
        lat = Lattice(1, (1,))
        term = LindbladTerm(Region((0,)), (), lambda xs: (None, [Z.astype(complex)]), "deph")
        gen = assemble(ParamLindbladian(lat, [term]), np.zeros(0))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(gen)


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
