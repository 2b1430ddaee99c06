import itertools
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp

from phaselearn.lattice import Lattice, Region
from phaselearn.lindblad import (
    DensityMatrix,
    LindbladTerm,
    ParamLindbladian,
    Superoperator,
    _FirstError,
    _pruned,
    _transfer_values,
)

SM = np.array([[0, 1], [0, 0]], dtype=complex)
SP = SM.conj().T
Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


@pytest.fixture
def chain5():
    return Lattice(1, (5,), "open")


@pytest.fixture
def ring5():
    return Lattice(1, (5,), "periodic")


@pytest.fixture
def grid33():
    return Lattice(2, (3, 3), "open")


def amplitude_damping_family(kappa: float = 1.0) -> ParamLindbladian:
    """Single qubit, jump sqrt(kappa) sigma-minus, no parameters."""
    lat = Lattice(1, (1,))
    term = LindbladTerm(Region((0,)), (), lambda xs: (None, [np.sqrt(kappa) * SM]), "ad")
    return ParamLindbladian(lat, [term], name="amplitude_damping")


def pauli_vec_basis(n: int) -> sp.csr_matrix:
    """Unitary whose column mu is vec(P_mu) = P_mu.flatten(order="F") for the
    normalised Pauli string P_mu on n sites: site 0 the most significant
    base-4 digit, digits I, X, Y, Z.  Sparse, so the n = 6 basis fits."""
    D = 2**n
    rows, cols, vals = [], [], []
    for mu, factors in enumerate(itertools.product((np.eye(2), X, Y, Z), repeat=n)):
        string = reduce(np.kron, factors)
        a, b = np.nonzero(string)
        rows.append(b * D + a)
        cols.append(np.full(a.size, mu))
        vals.append(string[a, b] / np.sqrt(D))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(D * D, D * D))


def transfer_matrix(gen: Superoperator) -> sp.csr_matrix:
    """The Pauli transfer matrix T of ``gen``, built as ``steady_states``
    builds it (``_transfer_values``, then ``_pruned``): real CSR without the
    entries that are zero at this point."""
    fail = _FirstError(1)
    values, indices, indptr = _transfer_values(gen.family, gen.values[None], fail)
    fail.raise_first()
    dim = gen.hilbert_dim**2
    # a copy: the pattern arrays are the family's scatter slot
    return sp.csr_matrix(_pruned(values[0], indices, indptr), shape=(dim, dim), copy=True)


def vec_generator(gen: Superoperator) -> sp.csr_matrix:
    """The generator on column-stacked vec(rho), V T V^dag, from its Pauli
    transfer matrix T (sparse; ``.toarray()`` for the dense matrix)."""
    V = pauli_vec_basis(gen.n_sites)
    return (V @ transfer_matrix(gen) @ V.conj().T).tocsr()


def full_state(oracle, x: np.ndarray, tau: float, family: ParamLindbladian) -> DensityMatrix:
    """Dense state of a pinning family from its oracle's site states: the
    product reference for the oracle, the samplers and the steady-state solver."""
    mats = [oracle.site_state(float(x[j]), tau) for j in range(family.n_system)]
    for anc in family.ancillas:
        # ancillas start at |0><0| and are reset toward |0>, so they stay put
        mats.append(np.asarray(anc.state, dtype=complex))
    return DensityMatrix(reduce(np.kron, mats), family.n_total)


def random_density(n: int, rng: np.random.Generator) -> DensityMatrix:
    d = 2**n
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    return DensityMatrix(rho, n)


def random_two_site_family(rng: np.random.Generator, n: int = 2) -> ParamLindbladian:
    """Random parameterised nearest-neighbour family for oracle checks.

    Site terms carry a random Hermitian field scaled by one coordinate plus a
    random fixed jump; bond terms a random two-site Hamiltonian coordinate.
    """
    lat = Lattice(1, (n,), "open")
    terms = []

    def rand_herm(d):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (a + a.conj().T) / 2

    for j in range(n):
        h0 = rand_herm(2)
        jump = 0.7 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))

        def build(xs, _h=h0, _L=jump):
            return float(xs[0]) * _h, [_L]

        terms.append(LindbladTerm(Region((j,)), (j,), build, label=f"s{j}"))
    for j in range(n - 1):
        hb = rand_herm(4)

        def build_b(xs, _h=hb):
            return float(xs[0]) * _h, []

        terms.append(LindbladTerm(Region((j, j + 1)), (n + j,), build_b, label=f"b{j}"))
    return ParamLindbladian(lat, terms, name="random2")
