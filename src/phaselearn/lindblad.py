"""Superoperators for local Lindbladians: assembly, evolution, steady states.

Vectorisation is column-stacking throughout: ``vec(rho) = rho.flatten(order="F")``,
so the generator for Hamiltonian h and jumps {L_k} is

    M = -1j (I (x) h - h^T (x) I)
        + sum_k conj(L_k) (x) L_k - 1/2 I (x) L_k^dag L_k - 1/2 (L_k^dag L_k)^T (x) I

acting on vec(rho).  The Heisenberg generator is the conjugate transpose of M.

Site 0 occupies the leftmost Kronecker slot, matching :mod:`phaselearn.lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class ParamLindbladian:
    """A geometrically local Lindbladian family L(x) = sum_j L_j(x_j).

    Immutable after construction.  Certifies at build time an upper bound J on
    the completely bounded 1->1 norm of every term (2 ||h|| + 2 sum ||L_k||^2,
    maximised over the corners of the per-term parameter box) and checks that
    term supports overlap each site only O(1) times.
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

        # per term, embed_sparse_indices of its vec-space slots (column factor
        # of site s at slot s, row factor at slot n_total + s), for assembly;
        # a family too large to assemble gets none
        self._term_offsets = tuple(
            embed_sparse_indices(2 * self.n_total,
                                 [*t.support.sites, *(self.n_total + s for s in t.support.sites)])
            for t in self.terms) if self.n_total <= SUPEROP_SITE_CAP else ()
        self.term_centers, self.term_radii = self._support_geometry()
        self.r0 = max(self.term_radii, default=0)
        self.term_strengths = self._certify_strengths()
        self.J = max(self.term_strengths, default=0.0)

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

    def term_superoperator(self, term_index: int,
                           x_slice: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generator of one term at its parameter slice, embedded in the full space
        as unsummed COO triplets (rows, cols, data); ``assemble`` sums all terms.
        Only a family within ``SUPEROP_SITE_CAP`` sites has the embedding."""
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
        # the local matrix above is ordered like the term's vec-space slots
        return embed_triplets(local, *self._term_offsets[term_index])


@dataclass
class Superoperator:
    """Sparse Schroedinger-picture generator acting on column-stacked vec(rho)."""

    matrix: sp.csr_matrix
    n_sites: int

    def __post_init__(self):
        dim = self.hilbert_dim**2
        if self.matrix.shape != (dim, dim):
            raise ValueError("superoperator shape inconsistent with site count")
        resid = self.trace_preservation_residual()
        if resid > 1e-10:
            raise NumericalError(
                f"trace-preservation residual {resid:.2e} exceeds 1e-10"
            )

    @property
    def hilbert_dim(self) -> int:
        return 2**self.n_sites

    def trace_preservation_residual(self) -> float:
        """max |tr(M applied to any basis element)| via the trace functional row."""
        D = self.hilbert_dim
        e = np.zeros(D * D, dtype=complex)
        e[np.arange(D) * (D + 1)] = 1.0
        return float(np.max(np.abs(self.matrix.T @ e)))


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


def assemble(family: ParamLindbladian, x: np.ndarray) -> Superoperator:
    """Build the sparse Schroedinger-picture generator at parameter point x."""
    if family.n_total > SUPEROP_SITE_CAP:
        raise ValueError(
            f"superoperator assembly capped at {SUPEROP_SITE_CAP} sites, "
            f"family has {family.n_total}"
        )
    values = family.as_values(x)
    D2 = 4**family.n_total
    # the empty triplet lets a family without terms assemble to the zero matrix
    triplets = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, complex))]
    triplets += [family.term_superoperator(ti, values[list(term.coord_indices)])
                 for ti, term in enumerate(family.terms)]
    rows, cols, data = (np.concatenate(part) for part in zip(*triplets))
    total = sp.coo_matrix((data, (rows, cols)), shape=(D2, D2)).tocsr()
    total.eliminate_zeros()  # terms that cancel leave explicit zeros
    return Superoperator(total, family.n_total)


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
    """rho(t) = exp(t L)(rho) via an adaptive explicit 4th/5th-order pair.

    No per-step trace renormalisation is applied; trace drift is a health
    metric and surfaces through the admission guard of the result.
    """
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    if t == 0:
        return rho
    y0 = rho.data.flatten(order="F")
    y = _integrate(superop.matrix, y0, t, rtol)
    D = superop.hilbert_dim
    return DensityMatrix(y.reshape((D, D), order="F"), superop.n_sites)


def heisenberg_evolve(superop: Superoperator, observable: np.ndarray, t: float,
                      rtol: float = 1e-9) -> np.ndarray:
    """O(t) = exp(t L*)(O); satisfies tr[O evolve(rho, t)] = tr[O(t) rho].

    L* is the conjugate transpose of the Schroedinger-picture generator.
    """
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    D = superop.hilbert_dim
    observable = np.asarray(observable, dtype=complex)
    if observable.shape != (D, D):
        raise ValueError("observable must act on the full space")
    if t == 0:
        return observable.copy()
    y = _integrate(superop.matrix.conj().T.tocsr(), observable.flatten(order="F"), t, rtol)
    return y.reshape((D, D), order="F")


def trace_norm(mat: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def _inverse_iteration(matrix: sp.csr_matrix, lu: spla.SuperLU,
                       seed: np.ndarray) -> tuple[np.ndarray, float]:
    """The eigenvector of ``matrix`` nearest the shift of ``lu``, the LU of M - shift I.
    Returns (vector, residual ||M v|| / ||v||).
    """
    v = seed / np.linalg.norm(seed)
    resid = np.inf
    for _ in range(50):
        w = lu.solve(v)
        nrm = np.linalg.norm(w)
        if nrm == 0 or not np.isfinite(nrm):
            raise NumericalError("inverse iteration collapsed")
        v = w / nrm
        new_resid = float(np.linalg.norm(matrix @ v))
        if abs(new_resid - resid) < 1e-13:
            resid = new_resid
            break
        resid = new_resid
    return v, resid


def _kernel_is_degenerate(matrix: sp.csr_matrix, lu: spla.SuperLU,
                          v1: np.ndarray, line: float) -> tuple[bool, float]:
    """Whether ``matrix`` has a kernel vector besides ``v1``, and the last residual.

    Inverse iteration deflated against ``v1``, from a fixed random seed made
    orthogonal to ``v1``.  The kernel is degenerate as soon as a residual
    ||M v|| falls below ``line``.  With a second kernel vector, each solve
    multiplies that vector's weight by about 1/shift = 1e10 / norm_scale
    against at most 1/|lambda| for every other eigenvector, so within one or
    two solves the residual collapses far below the line.  A residual that
    stays 1e4 times above the line for two solves in a row therefore rules
    the degeneracy out.  At most 50 solves, as in the main iteration.
    """
    n = matrix.shape[0]
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v -= v1 * (v1.conj() @ v)
    if np.linalg.norm(v) <= 1e-12:
        return False, np.inf
    v = v / np.linalg.norm(v)
    resid, far = np.inf, 0
    for _ in range(50):
        w = lu.solve(v)
        w = w - v1 * (v1.conj() @ w)
        nrm = np.linalg.norm(w)
        if nrm == 0 or not np.isfinite(nrm):
            return False, resid
        v = w / nrm
        resid = float(np.linalg.norm(matrix @ v))
        if resid < line:
            return True, resid
        far = far + 1 if resid > 1e4 * line else 0
        if far == 2:
            break
    return False, resid


def steady_state(superop: Superoperator, resid_tol: float = 1e-9) -> DensityMatrix:
    """Unique fixed point of the semigroup generated by ``superop``.

    Shifted inverse iteration targeting eigenvalue 0, seeded with the
    maximally mixed state; a second, deflated iteration probes for kernel
    degeneracy, which is an error (no silent selection).  The probe stops at
    its first residual below the 1e-8 * norm_scale line (degenerate) or once
    two solves in a row leave it 1e4 times above that line (simple kernel);
    on generators with a simple kernel that is two solves.  The shifted
    generator gets one SuperLU factorization, shared by the inverse iteration
    and the deflated probe, under the MMD_AT_PLUS_A ordering (under half the
    fill of the default COLAMD on TFIM generators).  An iteration that fails
    or stops above the line is a NumericalError.
    """
    M = superop.matrix
    D = superop.hilbert_dim
    norm_scale = max(1.0, float(np.abs(M).sum(axis=1).max()))
    line = 1e-8 * norm_scale
    shifted = (M - 1e-10 * norm_scale * sp.identity(M.shape[0], dtype=complex)).tocsc()
    seed = np.eye(D, dtype=complex).flatten(order="F") / D

    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A")
        v1, resid1 = _inverse_iteration(M, lu, seed)
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise NumericalError(f"steady-state factorization failed: {exc}") from exc
    if resid1 > line:
        raise NumericalError(f"steady-state iteration did not converge (residual {resid1:.2e})")

    degenerate, resid2 = _kernel_is_degenerate(M, lu, v1, line)
    if degenerate:
        raise DegenerateSteadyStateError(
            f"non-unique steady state: deflated kernel residual {resid2:.2e}"
        )

    rho = v1.reshape((D, D), order="F")
    rho = (rho + rho.conj().T) / 2
    tr = float(np.real(np.trace(rho)))
    if abs(tr) < 1e-12:
        raise NumericalError("steady-state candidate is traceless")
    rho = rho / tr
    resid = trace_norm((M @ rho.flatten(order="F")).reshape((D, D), order="F"))
    if resid > resid_tol:
        raise NumericalError(f"steady-state residual {resid:.2e} exceeds {resid_tol:.0e}")
    out = DensityMatrix(rho, superop.n_sites)
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
