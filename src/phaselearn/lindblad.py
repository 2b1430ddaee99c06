"""Superoperators for local Lindbladians: assembly, evolution, steady states.

A generator is a family L at a point x of its parameter box, as ``assemble``
returns it after its checks.  Each of its two matrices is built from the
family's term blocks when first read, so a generator that is only evolved
never builds the one the steady state needs.

The steady state is solved on the Pauli transfer matrix T, a real sparse
matrix with T[mu, nu] = tr(P_mu L(P_nu)) over the normalised Pauli strings
P_mu = (x)_s sigma_{mu_s} / sqrt(2), site 0 the most significant base-4 digit
of mu and (I, X, Y, Z) the digits 0..3.  A Lindbladian maps Hermitian
operators to Hermitian operators, so T is real; it preserves the trace, so
row 0 of T (the identity string) is zero.

The integrators run on the column-stacked generator instead,
``vec(rho) = rho.flatten(order="F")``; the Heisenberg generator is its
conjugate transpose.  They keep its roundoff because the stability verdicts
of the diagnostics rest on it.

Site 0 occupies the leftmost Kronecker slot, matching :mod:`phaselearn.lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .errors import DegenerateSteadyStateError, NumericalError
from .lattice import CoordInfo, Lattice, Region, embed_sparse_indices, embed_triplets

__all__ = [
    "SUPEROP_SITE_CAP",
    "TermMatrices",
    "LindbladTerm",
    "AncillaSpec",
    "ParamLindbladian",
    "Superoperator",
    "DensityMatrix",
    "assemble",
    "evolve",
    "heisenberg_evolve",
    "steady_state",
    "localize",
    "partial_trace",
    "trace_norm",
    "subfamily",
]

# Sparse superoperators have side d^(2n); beyond 9 sites the memory footprint
# leaves desk scale even in sparse storage.
SUPEROP_SITE_CAP = 9

TermMatrices = tuple[np.ndarray | None, list[np.ndarray]]


@dataclass(frozen=True)
class LindbladTerm:
    """One local term of a parameterised Lindbladian.

    ``build`` maps this term's parameter slice (length ``len(coord_indices)``)
    to ``(h, jumps)`` on the support, sites ascending, site order = Kronecker
    order.  ``h`` may be None for purely dissipative terms.  The map may be
    nonlinear in the parameters; families that are generator-linear simply
    supply a linear ``build``.
    """

    support: Region
    coord_indices: tuple[int, ...]
    build: Callable[[np.ndarray], TermMatrices]
    label: str = ""

    @property
    def n_params(self) -> int:
        return len(self.coord_indices)


@dataclass(frozen=True)
class AncillaSpec:
    """An ancilla qubit appended after the system sites.

    ``slot`` is its tensor position (>= n_system), ``anchor`` the system site
    it neighbours, ``state`` its initial density matrix.
    """

    slot: int
    anchor: int
    state: np.ndarray


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices as one broadcast outer product: the
    same elementwise products, without the wrapper's per-call overhead."""
    p, q = a.shape[0], b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * q, p * q)


# I, X, Y, Z over sqrt(2); per site, X[a, b] = sum_p _FROM_PAULI[2a + b, p] c_p
_FROM_PAULI = (np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                         [[1, 0], [0, -1]]]) / np.sqrt(2)).reshape(4, 4).T


def _from_pauli(c: np.ndarray, n: int) -> np.ndarray:
    """The operator sum_mu c_mu P_mu over the normalised Pauli strings, one
    site's 4 x 4 factor at a time: each pass acts on the leading digit and
    rotates it to the end."""
    for _ in range(n):
        c = (_FROM_PAULI @ c.reshape(4, -1)).T.ravel()
    pairs = c.reshape((2,) * (2 * n))
    return pairs.transpose(np.arange(2 * n).reshape(n, 2).T.ravel()).reshape(2**n, 2**n)


@cache  # one entry per term support size, at most SUPEROP_SITE_CAP
def _pauli_change(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(V^dag, V) for the unitary V whose column nu is vec(P_nu), column-stacked,
    on k sites."""
    v = np.stack([_from_pauli(e, k).flatten(order="F") for e in np.eye(4**k)], axis=1)
    return v.conj().T, v


class ParamLindbladian:
    """A geometrically local Lindbladian family L(x) = sum_j L_j(x_j).

    Its lattice, terms and certified constants are fixed at construction.
    Certifies at build time an upper bound J on the completely bounded 1->1
    norm of every term (2 ||h|| + 2 sum ||L_k||^2, maximised over the corners
    of the per-term parameter box) and checks that term supports overlap each
    site only O(1) times.

    The family also keeps the work that depends only on a generator's
    sparsity pattern, which is the same at every generic point: the scatter
    of the term blocks into T (``Superoperator.matrix``) and
    ``steady_state``'s fill-reducing order of T'.  Each is one slot, replaced
    when a point of another pattern comes along (a zero coordinate can empty
    a block) and never grown.
    """

    OVERLAP_CAP = 8

    def __init__(
        self,
        lattice: Lattice,
        terms: Sequence[LindbladTerm],
        ancillas: Sequence[AncillaSpec] = (),
        name: str = "",
    ):
        self.lattice = lattice
        self.terms = tuple(terms)
        self.ancillas = tuple(ancillas)
        self.name = name
        self.n_system = lattice.n_sites
        self.n_total = self.n_system + len(self.ancillas)
        for a in self.ancillas:
            if not self.n_system <= a.slot < self.n_total:
                raise ValueError("ancilla slots must follow the system sites")

        coords: dict[int, CoordInfo] = {}
        for ti, term in enumerate(self.terms):
            for ci in term.coord_indices:
                if ci in coords:
                    raise ValueError(f"coordinate {ci} owned by two terms")
                coords[ci] = CoordInfo(ti, term.support.as_set())
        self.m = len(coords)
        if sorted(coords) != list(range(self.m)):
            raise ValueError("coordinate indices must be 0..m-1 without gaps")
        self.coord_info = tuple(coords[i] for i in range(self.m))

        overlap = np.zeros(self.n_total, dtype=int)
        for term in self.terms:
            for s in term.support.sites:
                overlap[s] += 1
        if overlap.size and overlap.max() > self.OVERLAP_CAP:
            raise ValueError(f"term overlap {overlap.max()} exceeds bound {self.OVERLAP_CAP}")

        # per term, embed_sparse_indices on 2 n_total binary slots of its Pauli
        # digits (site s owns slots 2s and 2s + 1) and of its vec-space factors
        # (column factor of site s at slot s, row factor at slot n_total + s);
        # a family too large to assemble gets none
        n = self.n_total
        self._term_offsets = tuple(
            (embed_sparse_indices(2 * n, [b for s in t.support.sites for b in (2 * s, 2 * s + 1)]),
             embed_sparse_indices(2 * n, [*t.support.sites, *(n + s for s in t.support.sites)]))
            for t in self.terms) if n <= SUPEROP_SITE_CAP else ()
        self.term_centers, self.term_radii = self._support_geometry()
        self.r0 = max(self.term_radii, default=0)
        self.term_strengths = self._certify_strengths()
        self.J = max(self.term_strengths, default=0.0)
        self._scatter: tuple | None = None  # see _scatter_plan
        self._ordering: tuple | None = None  # see _ordering_plan

    # -- structure ---------------------------------------------------------

    def _support_geometry(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per term: the first center minimising the covering-ball radius, and that radius."""
        centers, radii = [], []
        for term in self.terms:
            sites = [s for s in term.support.sites if s < self.n_system]
            if not sites:
                centers.append(term.support.sites[0])
                radii.append(0)
                continue
            ecc = [int(self.lattice.distances(u)[sites].max()) for u in sites]
            best = int(np.argmin(ecc))
            centers.append(sites[best])
            radii.append(ecc[best])
        return tuple(centers), tuple(radii)

    def _certify_strengths(self) -> tuple[float, ...]:
        """Per-term cb-norm surrogate 2||h|| + 2 sum ||L_k||^2 over box corners."""
        out = []
        for term in self.terms:
            ell = term.n_params
            corners = (
                np.array(np.meshgrid(*([[-1.0, 1.0]] * ell))).T.reshape(-1, ell)
                if ell
                else np.zeros((1, 0))
            )
            bound = 0.0
            for corner in corners:
                h, jumps = term.build(corner)
                b = 0.0
                if h is not None:
                    b += 2.0 * float(np.linalg.norm(h, 2))
                b += 2.0 * sum(float(np.linalg.norm(L, 2)) ** 2 for L in jumps)
                bound = max(bound, b)
            out.append(bound)
        return tuple(out)

    def as_values(self, x: np.ndarray | Sequence[float]) -> np.ndarray:
        """``x`` as a float array, checked to be a point of the box [-1, 1]^m."""
        values = np.asarray(x, dtype=float)
        if values.shape != (self.m,):
            raise ValueError(f"expected {self.m} parameters, got shape {values.shape}")
        if values.size and (values.max() > 1.0 + 1e-12 or values.min() < -1.0 - 1e-12):
            raise ValueError("parameter values outside [-1, 1]")
        return values

    def coords_for_region(self, region: Region) -> np.ndarray:
        """Sorted coordinate indices whose term support intersects ``region``."""
        target = region.as_set()
        out = [i for i, c in enumerate(self.coord_info) if c.support & target]
        return np.asarray(out, dtype=int)

    # -- assembly ----------------------------------------------------------

    def _term_local(self, term_index: int, x_slice: np.ndarray) -> np.ndarray:
        """Column-stacked generator of one term on its support at its parameter
        slice, ordered like the term's vec-space slots."""
        x_slice = np.asarray(x_slice, dtype=float)
        term = self.terms[term_index]
        dk = 2 ** len(term.support.sites)
        h, jumps = term.build(x_slice)
        local = np.zeros((dk * dk, dk * dk), dtype=complex)
        eye = np.eye(dk)
        if h is not None:
            if np.max(np.abs(h - h.conj().T)) > 1e-12:
                raise ValueError(f"term {term.label!r}: Hamiltonian part not Hermitian")
            local += -1j * (_kron(eye, h) - _kron(h.T, eye))
        for L in jumps:
            LdL = L.conj().T @ L
            local += (
                _kron(L.conj(), L)
                - 0.5 * _kron(eye, LdL)
                - 0.5 * _kron(LdL.T, eye)
            )
        return local

    def term_superoperator(self, term_index: int, x_slice: np.ndarray) -> np.ndarray:
        """Transfer matrix of one term on its support at its parameter slice,
        ordered like the term's Pauli-digit slots; ``Superoperator.matrix``
        embeds and sums all terms.

        The block is V^dag M V, with M the term's column-stacked generator and
        V its vec'd Pauli strings.  Entries below 1e-14 of the block's largest
        are roundoff of structural zeros and are set to zero; an imaginary part
        above that bound means the term does not preserve Hermiticity.
        """
        vh, v = _pauli_change(len(self.terms[term_index].support.sites))
        block = vh @ self._term_local(term_index, x_slice) @ v
        real, bound = block.real, 1e-14 * np.abs(block).max()
        if np.abs(block.imag).max() > bound:
            raise NumericalError(f"term {self.terms[term_index].label!r}: "
                                 "generator does not preserve Hermiticity")
        real[np.abs(real) < bound] = 0.0
        return real


@dataclass(frozen=True, eq=False)
class Superoperator:
    """The Schroedinger-picture generator of ``family`` at the point ``values``,
    as ``assemble`` makes it.

    Its matrices are cached properties, each built from the family's term
    blocks when first read: :attr:`matrix`, the Pauli transfer matrix T that
    ``steady_state`` solves, and :attr:`column_stacked`, the generator the
    integrators run on.
    """

    family: ParamLindbladian
    values: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.family.n_total

    @property
    def hilbert_dim(self) -> int:
        return 2**self.n_sites

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """T, the term blocks summed in term order through the family's scatter
        slot, rebuilt first when the blocks are nonzero elsewhere, so T has the
        same bytes whatever the family built before.  Exact zeros left by
        cancelling terms are dropped.  Row 0 is sqrt(D) times the trace
        functional, so an entry of it above 1e-10 is a NumericalError."""
        family, x = self.family, self.values
        blocks = [family.term_superoperator(ti, x[list(term.coord_indices)])
                  for ti, term in enumerate(family.terms)]
        flat = np.concatenate([np.zeros(0), *(b.ravel() for b in blocks)])
        nonzero = flat != 0
        if family._scatter is None or not np.array_equal(nonzero, family._scatter[0]):
            family._scatter = _scatter_plan(family, blocks, nonzero)
        _, gather, inverse, indptr, indices = family._scatter
        dim = self.hilbert_dim**2
        total = sp.csr_matrix((np.bincount(inverse, flat[gather], indices.size), indices, indptr),
                              shape=(dim, dim), copy=True)  # the slot's arrays stay unpruned
        total.eliminate_zeros()
        resid = float(np.abs(total.data[:total.indptr[1]]).max(initial=0.0))
        if resid > 1e-10:
            raise NumericalError(f"trace-preservation residual {resid:.2e} exceeds 1e-10")
        return total

    @cached_property
    def column_stacked(self) -> sp.csr_matrix:
        """The generator M on vec(rho) = rho.flatten(order="F"):
        -1j (I (x) h - h^T (x) I) + sum_k conj(L_k) (x) L_k
        - 1/2 I (x) L_k^dag L_k - 1/2 (L_k^dag L_k)^T (x) I per term."""
        family, x = self.family, self.values
        return _summed([embed_triplets(family._term_local(ti, x[list(term.coord_indices)]),
                                       *family._term_offsets[ti][1])
                        for ti, term in enumerate(family.terms)], self.hilbert_dim**2, complex)


@dataclass(frozen=True)
class DensityMatrix:
    """Dense Hermitian PSD trace-one operator on the full Hilbert space.

    Construction applies an admission guard (Hermiticity and trace to 1e-7,
    positivity to -1e-6 when the dimension allows a cheap check); call
    :meth:`validate` for the strict invariants (Hermiticity and trace to
    1e-10, minimum eigenvalue above -1e-8).
    """

    data: np.ndarray
    n_sites: int

    _GUARD_HERM = 1e-7
    _GUARD_TRACE = 1e-7
    _GUARD_EIG = -1e-6
    _CHEAP_EIG_DIM = 64

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", arr)
        dim = 2**self.n_sites
        if arr.shape != (dim, dim):
            raise ValueError(f"density matrix shape {arr.shape} != ({dim}, {dim})")
        herm = float(np.max(np.abs(arr - arr.conj().T)))
        if herm > self._GUARD_HERM:
            raise ValueError(f"not Hermitian: residual {herm:.2e}")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > self._GUARD_TRACE:
            raise ValueError(f"trace {tr} differs from 1")
        if dim <= self._CHEAP_EIG_DIM:
            lo = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2).min())
            if lo < self._GUARD_EIG:
                raise ValueError(f"minimum eigenvalue {lo:.2e} below guard")

    def validate(self) -> None:
        arr = self.data
        herm = float(np.max(np.abs(arr - arr.conj().T)))
        if herm > 1e-10:
            raise ValueError(f"Hermiticity residual {herm:.2e} > 1e-10")
        if abs(complex(np.trace(arr)) - 1.0) > 1e-10:
            raise ValueError("trace deviates from 1 beyond tolerance")
        lo = self.min_eigenvalue()
        if lo < -1e-8:
            raise ValueError(f"minimum eigenvalue {lo:.2e} < -1e-08")

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.data + self.data.conj().T) / 2).min())

    def expectation(self, full_matrix: np.ndarray) -> float:
        return float(np.real(np.trace(full_matrix @ self.data)))


def _summed(triplets: list, dim: int, dtype: type) -> sp.csr_matrix:
    """The dim x dim CSR sum of COO triplets, without the explicit zeros that
    cancelling terms leave; no triplets give the zero matrix."""
    triplets = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, dtype)), *triplets]
    rows, cols, data = (np.concatenate(part) for part in zip(*triplets))
    total = sp.coo_matrix((data, (rows, cols)), shape=(dim, dim)).tocsr()
    total.eliminate_zeros()
    return total


def _scatter_plan(family: ParamLindbladian, blocks: list[np.ndarray],
                  nonzero: np.ndarray) -> tuple:
    """The scatter slot for term blocks whose raveled, concatenated entries
    are nonzero where ``nonzero`` is: that mask; per embedded entry, in term
    order, the block entry it copies and the stored entry of T it sums into;
    and T's CSR ``indptr`` and ``indices``."""
    dim = 4**family.n_total
    # 1-based positions of the nonzero entries, so embed_triplets keeps exactly those
    ids = np.where(nonzero, np.arange(1, nonzero.size + 1), 0)
    keys, pos, start = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], 0
    for ti, block in enumerate(blocks):
        rows, cols, p = embed_triplets(ids[start:start + block.size].reshape(block.shape),
                                       *family._term_offsets[ti][0])
        keys.append(rows * dim + cols)
        pos.append(p - 1)
        start += block.size
    keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(dim + 1) * dim)
    return nonzero, np.concatenate(pos), inverse, indptr, keys % dim


def assemble(family: ParamLindbladian, x: np.ndarray) -> Superoperator:
    """The generator of ``family`` at the parameter point x.

    Checks that the family fits under ``SUPEROP_SITE_CAP`` and that x lies in
    its box; the matrices are built when first read (:class:`Superoperator`).
    """
    if family.n_total > SUPEROP_SITE_CAP:
        raise ValueError(
            f"superoperator assembly capped at {SUPEROP_SITE_CAP} sites, "
            f"family has {family.n_total}"
        )
    return Superoperator(family, family.as_values(x).copy())


def _integrate(matrix: sp.csr_matrix, y0: np.ndarray, t: float,
               rtol: float) -> np.ndarray:
    sol = solve_ivp(
        lambda _t, y: matrix @ y,
        (0.0, t),
        y0,
        method="RK45",
        t_eval=[t],
        rtol=rtol,
        atol=1e-12,
    )
    if not sol.success:
        raise NumericalError(f"integrator failed (stiffness/step underflow): {sol.message}")
    y = sol.y[:, -1]
    if not np.all(np.isfinite(y)):
        raise NumericalError("integrator produced non-finite values")
    return y


def evolve(superop: Superoperator, rho: DensityMatrix, t: float,
           rtol: float = 1e-9) -> DensityMatrix:
    """rho(t) = exp(t L)(rho) via an adaptive explicit 4th/5th-order pair on the
    column-stacked vec(rho).

    No per-step trace renormalisation is applied; trace drift is a health
    metric and surfaces through the admission guard of the result.
    """
    if rho.n_sites != superop.n_sites:
        raise ValueError(f"state on {rho.n_sites} sites, generator on {superop.n_sites}")
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    if t == 0:
        return rho
    y0 = rho.data.flatten(order="F")
    y = _integrate(superop.column_stacked, y0, t, rtol)
    D = superop.hilbert_dim
    return DensityMatrix(y.reshape((D, D), order="F"), superop.n_sites)


def heisenberg_evolve(superop: Superoperator, observable: np.ndarray, t: float,
                      rtol: float = 1e-9) -> np.ndarray:
    """O(t) = exp(t L*)(O); satisfies tr[O evolve(rho, t)] = tr[O(t) rho].

    L* is the conjugate transpose of the column-stacked generator.
    """
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    D = superop.hilbert_dim
    observable = np.asarray(observable, dtype=complex)
    if observable.shape != (D, D):
        raise ValueError("observable must act on the full space")
    if t == 0:
        return observable.copy()
    y = _integrate(superop.column_stacked.conj().T.tocsr(), observable.flatten(order="F"),
                   t, rtol)
    return y.reshape((D, D), order="F")


def trace_norm(mat: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def _splu(matrix: sp.csc_matrix, permc_spec: str) -> spla.SuperLU:
    return spla.splu(matrix, permc_spec=permc_spec, diag_pivot_thresh=0.1,
                     options={"SymmetricMode": True})


def _ordering_plan(pinned_t: sp.csc_matrix, perm: np.ndarray) -> tuple:
    """The ordering slot for T'^T and SuperLU's column permutation ``perm``
    of it (column j to position perm[j]): the pattern of T'^T, the order
    that inverts ``perm``, ``perm``, the entry of T'^T that each entry of
    T'^T with rows and columns taken in that order copies, and that matrix's
    CSC ``indptr`` and ``indices``.  Each column keeps its row indices in
    T'^T's order, which makes its NATURAL factor the fill-reducing factor of
    T'^T to the bit; sorting them moved solves by up to 1.7e-16."""
    order = np.argsort(perm)
    counts = np.diff(pinned_t.indptr)[order]
    indptr = np.r_[0, np.cumsum(counts)]
    gather = np.repeat(pinned_t.indptr[order] - indptr[:-1], counts) + np.arange(indptr[-1])
    return (pinned_t.indptr, pinned_t.indices, order, perm, gather, indptr,
            perm[pinned_t.indices[gather]])


def _factor(pinned_t: sp.csc_matrix,
            family: ParamLindbladian) -> tuple[spla.SuperLU, np.ndarray, np.ndarray]:
    """``(lu, order, rank)``: ``lu`` factors T'^T with rows and columns taken
    in ``order``, whose inverse is ``rank``.  The order is the family's
    ordering slot when T' has its pattern; otherwise MMD_AT_PLUS_A orders
    T'^T afresh (``order`` the identity) and its order replaces the slot."""
    slot = family._ordering
    if (slot is not None and np.array_equal(pinned_t.indptr, slot[0])
            and np.array_equal(pinned_t.indices, slot[1])):
        _, _, order, rank, gather, indptr, indices = slot
        permuted = sp.csc_matrix((pinned_t.data[gather], indices, indptr), shape=pinned_t.shape)
        permuted.has_canonical_format = True  # keeps splu from sorting the row indices
        return _splu(permuted, "NATURAL"), order, rank
    lu = _splu(pinned_t, "MMD_AT_PLUS_A")
    # a copy: lu.perm_c is a view that would keep the whole factor alive
    family._ordering = _ordering_plan(pinned_t, lu.perm_c.copy())
    identity = np.arange(pinned_t.shape[0])
    return lu, identity, identity


def _solve_t(factor: tuple[spla.SuperLU, np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """The solution c of T' c = rhs from the ``_factor`` of T'^T."""
    lu, order, rank = factor
    return lu.solve(rhs[order], trans="T")[rank]


def _kernel_is_degenerate(factor: tuple[spla.SuperLU, np.ndarray, np.ndarray],
                          line: float) -> tuple[bool, float]:
    """Whether the pinned generator T' (``factor`` from ``_factor``) is
    singular, and the last residual, by inverse iteration from a fixed random
    seed: solving T' w = v for a unit v leaves w / ||w|| the residual
    1 / ||w||.  A singular T' has a pivot of order 1e-16 norm_scale, so each
    solve multiplies the weight of a kernel vector by about 1e16 / norm_scale
    against at most 1/|lambda| for every other eigenvector: within one or two
    solves the residual collapses below ``line`` (or the solve overflows), and
    one that stays 1e4 times above the line twice in a row rules the
    degeneracy out.  At most 50 solves.
    """
    v = np.random.default_rng(12345).standard_normal(factor[0].shape[0])
    v /= np.linalg.norm(v)
    resid, far = np.inf, 0
    for _ in range(50):
        w = _solve_t(factor, v)
        nrm = np.linalg.norm(w)
        resid = 1.0 / nrm
        if not resid >= line:  # also an overflowed solve
            return True, resid
        v = w / nrm
        far = far + 1 if resid > 1e4 * line else 0
        if far == 2:
            break
    return False, resid


def steady_state(superop: Superoperator) -> DensityMatrix:
    """Unique fixed point of the semigroup generated by ``superop``.

    Row 0 of T is zero (to the 1e-10 that building T admits), so T
    with row 0 replaced by e0^T is T' = T + e0 e0^T, nonsingular exactly when
    the kernel of T is simple; then T' c = e0 / sqrt(D) gives the steady
    state's coefficients: T c = 0, c_0 = 1/sqrt(D) makes the trace 1 and
    real coefficients make it Hermitian.  T's CSR arrays with that row are
    the CSC arrays of T'^T, so SuperLU factors T'^T once (threshold pivoting
    0.1 in symmetric mode: 53 to 78% of the fill of partial pivoting on TFIM
    generators of 4 to 6 sites) and solves transposed.  The fill-reducing
    MMD_AT_PLUS_A order depends only on the pattern of T', so a generator
    reuses the order its family last computed for that pattern
    (``_factor``); the state has the same bytes either way.  The
    factor also serves the degeneracy probe, which stops at its first
    residual below the 1e-8 * norm_scale line or once two solves in a row
    leave it 1e4 times above it (two solves on a simple kernel).
    An exactly singular factor or a probe below the line is a degenerate
    kernel, an error (no silent selection); a non-finite solve or a
    trace-norm residual ||L(rho)||_1 above 1e-9 is a NumericalError.
    """
    T = superop.matrix
    n, D = superop.n_sites, superop.hilbert_dim
    rows = np.repeat(np.arange(D * D), np.diff(T.indptr))
    norm_scale = max(1.0, float(np.bincount(rows, np.abs(T.data), D * D).max()))
    s = T.indptr[1]
    pinned_t = sp.csc_matrix((np.r_[1.0, T.data[s:]], np.r_[0, T.indices[s:]],
                              np.r_[0, T.indptr[1:] - s + 1]), shape=T.shape)
    try:
        factor = _factor(pinned_t, superop.family)
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise DegenerateSteadyStateError(f"non-unique steady state: {exc}") from exc
    degenerate, probe = _kernel_is_degenerate(factor, 1e-8 * norm_scale)
    if degenerate:
        raise DegenerateSteadyStateError(
            f"non-unique steady state: kernel probe residual {probe:.2e}")
    rhs = np.zeros(D * D)
    rhs[0] = 1.0 / np.sqrt(D)
    c = _solve_t(factor, rhs)
    if not np.all(np.isfinite(c)):
        raise NumericalError("steady-state solve produced non-finite values")
    resid = trace_norm(_from_pauli(T @ c, n))
    if resid > 1e-9:
        raise NumericalError(f"steady-state residual {resid:.2e} exceeds 1e-9")
    out = DensityMatrix(_from_pauli(c, n), n)
    out.validate()
    return out


def localize(family: ParamLindbladian, x: np.ndarray, x_prime: np.ndarray,
             region: Region) -> np.ndarray:
    """Hybrid parameter point of L^A: terms inside ``region`` carry x, the rest x'.

    A term is inside when its whole support lies in the region.  Assembling the
    family at the returned point realises the localized generator; the term
    count is unchanged by construction.
    """
    xv = family.as_values(x)
    xpv = family.as_values(x_prime)
    inside = region.as_set()
    out = xpv.copy()
    for term in family.terms:
        if term.support.as_set() <= inside:
            for c in term.coord_indices:
                out[c] = xv[c]
    return out


def partial_trace(data: np.ndarray, n_sites: int, keep: Sequence[int]) -> np.ndarray:
    """Reduced matrix on ``keep`` (ascending), tracing out the other sites."""
    keep = sorted(keep)
    t = data.reshape((2,) * (2 * n_sites))
    drop = [s for s in range(n_sites) if s not in keep]
    for count, s in enumerate(drop):
        ns = n_sites - count  # sites remaining in tensor
        pos = s - sum(1 for q in drop[:count] if q < s)
        t = np.trace(t, axis1=pos, axis2=ns + pos)
    dk = 2 ** len(keep)
    return t.reshape((dk, dk))


def subfamily(family: ParamLindbladian, region: Region) -> tuple[ParamLindbladian, np.ndarray]:
    """Family restricted to a contiguous 1D region, on its own Hilbert space.

    Keeps exactly the terms with support inside the region and relabels their
    coordinates 0..m_sub-1.  Returns the restricted family and the array
    mapping new coordinate index -> original coordinate index.
    """
    if family.lattice.dim != 1:
        raise ValueError("subfamily extraction implemented for 1D lattices only")
    if family.ancillas:
        raise ValueError("subfamily extraction does not support ancilla registers")
    sites = list(region.sites)
    if sites != list(range(sites[0], sites[-1] + 1)):
        raise ValueError("subfamily region must be contiguous")
    offset = sites[0]
    sub_lat = Lattice(1, (len(sites),), boundary="open")
    inside = region.as_set()
    new_terms: list[LindbladTerm] = []
    coord_map: list[int] = []
    for term in family.terms:
        if not term.support.as_set() <= inside:
            continue
        new_support = Region(tuple(s - offset for s in term.support.sites))
        new_idx = tuple(range(len(coord_map), len(coord_map) + term.n_params))
        coord_map.extend(term.coord_indices)
        new_terms.append(
            LindbladTerm(new_support, new_idx, term.build, label=term.label)
        )
    sub = ParamLindbladian(sub_lat, new_terms, name=f"{family.name}|{region.descriptor}")
    return sub, np.asarray(coord_map, dtype=int)
