"""Superoperators for local Lindbladians: assembly, evolution, steady states.

A generator is a family L at a point x of its parameter box, as ``assemble``
returns it after its checks.  Each of its two matrices is built from the
family's term locals when first read, so a generator that is only evolved
never builds the one the steady state needs.  The locals are built one
stacked pass per term support size, over every point and every term of
that size at once (``ParamLindbladian._stacks``).

The steady state is solved on the Pauli transfer matrix T, a real sparse
matrix with T[mu, nu] = tr(P_mu L(P_nu)) over the normalised Pauli strings
P_mu = (x)_s sigma_{mu_s} / sqrt(2), site 0 the most significant base-4 digit
of mu and (I, X, Y, Z) the digits 0..3.  A Lindbladian maps Hermitian
operators to Hermitian operators, so T is real; it preserves the trace, so
row 0 of T (the identity string) is zero.

``steady_states`` solves a family at many points, ``STEADY_CHUNK`` of them at
a time: per chunk, one stacked pass per support size builds T's entries at
every point, SuperLU factors, probes and solves each point alone in point
order, and the remaining checks run once on stacked arrays.  Per point, the
only work outside SuperLU is one gather of the point's data into the
factorization's matrix, whose index arrays are kept in the dtype ``splu``
takes; the order of T' lives as long as the scatter pattern it was computed
on.  ``steady_state`` is its batch of one, so both give a point the same
bytes, and its memory is bounded by the chunk, not by the number of points.

The integrators run on the column-stacked generator instead,
``vec(rho) = rho.flatten(order="F")``; the Heisenberg generator is its
conjugate transpose.  They keep its roundoff because the stability verdicts
of the diagnostics rest on it.  They step with ``solve_ivp``, the package's
own port of scipy's RK45: scipy's step control and arithmetic, bit for bit,
without importing ``scipy.integrate``, which loads ``scipy.optimize`` too
(about 20 MB and 0.2 s of every process's start).

Site 0 occupies the leftmost Kronecker slot, matching :mod:`phaselearn.lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DegenerateSteadyStateError, NumericalError
from .lattice import PAULI, CoordInfo, Lattice, Region, embed_sparse_indices, embed_triplets

__all__ = [
    "SUPEROP_SITE_CAP",
    "STEADY_CHUNK",
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
    "steady_states",
    "localize",
    "partial_trace",
    "trace_norm",
    "subfamily",
]

# Sparse superoperators have side d^(2n); beyond 9 sites the memory footprint
# leaves desk scale even in sparse storage.
SUPEROP_SITE_CAP = 9

# Points per pass of steady_states, and states per stack of the training
# sampler: the stacked T build, checks and sampling amortise numpy's per-call
# overhead over a chunk, and the chunk bounds their memory (TFIM n = 4 on a
# 2-vCPU host: T's build takes 0.10-0.11 ms per point at 16 to 64 points per
# chunk and 0.26 ms at 1; a 1,000-snapshot train stage takes 1.00 s at 16,
# 0.93 s at 32 and 0.92 s at 64).
STEADY_CHUNK = 32

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
    """``np.kron`` of two square matrices, or of each pair of two stacks of
    them, as one broadcast outer product: the same elementwise products,
    without the wrapper's per-call overhead."""
    p, q = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (p * q, p * q))


# I, X, Y, Z over sqrt(2); per site, X[a, b] = sum_p _FROM_PAULI[2a + b, p] c_p
_FROM_PAULI = (np.array([PAULI[c] for c in "IXYZ"]) / np.sqrt(2)).reshape(4, 4).T


def _from_pauli(c: np.ndarray, n: int) -> np.ndarray:
    """The operator sum_mu c_mu P_mu over the normalised Pauli strings for each
    row of c, (B, 4^n) to (B, 2^n, 2^n), one site's 4 x 4 factor at a time:
    each pass acts on the leading digit and rotates it to the end."""
    b = c.shape[0]
    for _ in range(n):
        c = (_FROM_PAULI @ c.reshape(b, 4, 4 ** (n - 1))).transpose(0, 2, 1).reshape(b, 4**n)
    pairs = c.reshape((b,) + (2,) * (2 * n))
    order = np.arange(1, 2 * n + 1).reshape(n, 2).T.ravel()
    return pairs.transpose(0, *order).reshape(b, 2**n, 2**n)


@cache  # one entry per term support size, at most SUPEROP_SITE_CAP
def _pauli_change(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(V^dag, V) for the unitary V whose column nu is vec(P_nu), column-stacked,
    on k sites."""
    v = np.ascontiguousarray(_from_pauli(np.eye(4**k), k).transpose(0, 2, 1).reshape(4**k, -1).T)
    return v.conj().T, v


class _FirstError:
    """The first point of a batch that failed, and its error.  A check looks
    only at the points before it and moves it to the first of them that
    fails, so checks run in the order one point runs them leave the error
    that a point-by-point loop raises first, after the same earlier points."""

    def __init__(self, size: int):
        self.stop, self.error = size, None

    def check(self, bad: np.ndarray, error: Callable[[int], Exception]) -> None:
        """Fail at the first point k before ``stop`` where ``bad`` holds, with ``error(k)``."""
        bad = bad[:self.stop]
        if bad.any():
            self.stop = int(bad.argmax())
            self.error = error(self.stop)

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


class ParamLindbladian:
    """A geometrically local Lindbladian family L(x) = sum_j L_j(x_j).

    Its lattice, terms and certified constants are fixed at construction.
    Certifies at build time an upper bound J on the completely bounded 1->1
    norm of every term (2 ||h|| + 2 sum ||L_k||^2, maximised over the corners
    of the per-term parameter box) and checks that term supports overlap each
    site only O(1) times.

    The family also keeps the work that depends only on a generator's
    sparsity pattern, which is the same at every generic point: the scatter
    of the term blocks into T (``_transfer_values``) and the fill-reducing
    order of T' (``_factors``).  Each is one slot.  The scatter slot grows to
    the union of its mask and a point's block nonzeros when they reach past
    it (a zero coordinate can empty a block), which is bounded by the
    blocks' size, and drops the ordering slot, which is otherwise replaced
    when T' has another pattern.
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
        # the term indices of each support size, sizes in order of first use
        groups: dict[int, list[int]] = {}
        for ti, t in enumerate(self.terms):
            groups.setdefault(len(t.support.sites), []).append(ti)
        self._size_groups = tuple((k, tuple(members)) for k, members in groups.items())
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
        if not (np.abs(values) <= 1.0 + 1e-12).all():
            raise ValueError("parameter values outside [-1, 1]")
        return values

    def coords_for_region(self, region: Region) -> np.ndarray:
        """Sorted coordinate indices whose term support intersects ``region``."""
        target = region.as_set()
        out = [i for i, c in enumerate(self.coord_info) if c.support & target]
        return np.asarray(out, dtype=int)

    # -- assembly ----------------------------------------------------------

    def _stacks(self, X: np.ndarray, fail: _FirstError, transfer: bool) -> list[np.ndarray]:
        """Per support size, in ``_size_groups`` order, a (b, T, side, side)
        stack over the b points of X before ``fail.stop`` and that size's T
        terms: each term's column-stacked generator on its support, ordered
        like its vec-space slots, or with ``transfer`` its transfer matrix
        block, ordered like its Pauli-digit slots.

        Every term's ``build`` runs at each of the b points.  The points'
        Hamiltonian parts and jumps are stacked, the missing ones as zeros,
        which adds nothing.  A block is V^dag M V, with M the column-stacked
        generator and V the vec'd Pauli strings.  Entries below 1e-14 of the
        block's largest are roundoff of structural zeros and are set to zero;
        an imaginary part above that bound means the term does not preserve
        Hermiticity.  The checks run term by term in term order, each term's
        Hamiltonian check before its Hermiticity-preservation check, so a
        point reports the error it would report alone."""
        b = fail.stop
        stacks, checks = [], []
        for k, members in self._size_groups:
            dk, t = 2**k, len(members)
            eye, zero = np.eye(dk), np.zeros((dk, dk))
            terms = [self.terms[ti] for ti in members]
            # per point, per term: (h, jumps)
            built = list(zip(*([term.build(x) for x in X[:b, list(term.coord_indices)]]
                               for term in terms)))
            local = np.zeros((b, t, dk * dk, dk * dk), dtype=complex)
            herm = np.zeros((b, t))
            if any(h is not None for point in built for h, _ in point):
                h = np.array([[zero if h is None else h for h, _ in point] for point in built])
                h = h.reshape(b, t, dk, dk)
                herm = np.abs(h - h.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
                part = _kron(eye, h)  # -1j (I (x) h - h^T (x) I), in place
                part -= _kron(h.swapaxes(-2, -1), eye)
                part *= -1j
                local += part
            for j in range(max((len(jumps) for point in built for _, jumps in point), default=0)):
                L = np.array([[jumps[j] if j < len(jumps) else zero for _, jumps in point]
                              for point in built]).reshape(b, t, dk, dk)
                LdL = L.conj().swapaxes(-2, -1) @ L
                part = _kron(L.conj(), L)
                part -= 0.5 * _kron(eye, LdL)
                part -= 0.5 * _kron(LdL.swapaxes(-2, -1), eye)
                local += part
            leaks = np.zeros((b, t), dtype=bool)
            if transfer:
                vh, v = _pauli_change(k)
                np.matmul(vh @ local, v, out=local)
                bound = 1e-14 * np.abs(local).max(axis=(-2, -1))
                leaks = np.abs(local.imag).max(axis=(-2, -1)) > bound
                local = local.real.copy()
                local[np.abs(local) < bound[..., None, None]] = 0.0
            stacks.append(local)
            checks += [(ti, herm[:, j], leaks[:, j]) for j, ti in enumerate(members)]
        for ti, herm, leaks in sorted(checks, key=lambda check: check[0]):
            label = self.terms[ti].label
            fail.check(herm > 1e-12, lambda _, label=label: ValueError(
                f"term {label!r}: Hamiltonian part not Hermitian"))
            fail.check(leaks, lambda _, label=label: NumericalError(
                f"term {label!r}: generator does not preserve Hermiticity"))
        return stacks


@dataclass(frozen=True, eq=False)
class Superoperator:
    """The Schroedinger-picture generator of ``family`` at the point ``values``,
    as ``assemble`` makes it.

    :attr:`column_stacked`, the generator the integrators run on, is a cached
    property built from the family's stacked term locals when first read; the steady
    state is solved on the Pauli transfer matrix T (``steady_states``).
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
    def column_stacked(self) -> sp.csr_matrix:
        """The generator M on vec(rho) = rho.flatten(order="F"):
        -1j (I (x) h - h^T (x) I) + sum_k conj(L_k) (x) L_k
        - 1/2 I (x) L_k^dag L_k - 1/2 (L_k^dag L_k)^T (x) I per term."""
        family, fail = self.family, _FirstError(1)
        stacks = family._stacks(self.values[None], fail, transfer=False)
        fail.raise_first()
        local = {ti: stack[0, j] for (_, members), stack in zip(family._size_groups, stacks)
                 for j, ti in enumerate(members)}
        return _summed([embed_triplets(local[ti], *family._term_offsets[ti][1])
                        for ti in range(len(family.terms))], self.hilbert_dim**2, complex)


@dataclass(frozen=True)
class DensityMatrix:
    """Dense Hermitian PSD trace-one operator on the full Hilbert space.

    Construction applies an admission guard (Hermiticity and trace to 1e-7,
    positivity to -1e-6 when the dimension allows a cheap check); a solved
    steady state also passes the strict invariants (``_check_states``).
    """

    data: np.ndarray
    n_sites: int

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", arr)
        dim = 2**self.n_sites
        if arr.shape != (dim, dim):
            raise ValueError(f"density matrix shape {arr.shape} != ({dim}, {dim})")
        fail = _FirstError(1)
        _check_states(arr[None], fail, strict=False)
        fail.raise_first()

    def expectation(self, full_matrix: np.ndarray) -> float:
        return float(np.real(np.trace(full_matrix @ self.data)))


def _check_states(rho: np.ndarray, fail: _FirstError, strict: bool) -> None:
    """Check each operator of the stack ``rho`` before ``fail.stop`` as one
    point runs the checks: DensityMatrix's admission guard (Hermiticity and
    trace to 1e-7, minimum eigenvalue above -1e-6 up to dimension 64), then,
    when ``strict``, the invariants of a solved state (Hermiticity and trace
    to 1e-10, minimum eigenvalue above -1e-8).  One stacked ``eigvalsh``
    serves both."""
    rho = rho[:fail.stop]
    herm = np.abs(rho - rho.conj().swapaxes(1, 2)).max(axis=(1, 2))
    trace = np.trace(rho, axis1=1, axis2=2)
    fail.check(herm > 1e-7, lambda k: ValueError(f"not Hermitian: residual {herm[k]:.2e}"))
    fail.check(np.abs(trace - 1.0) > 1e-7,
               lambda k: ValueError(f"trace {complex(trace[k])} differs from 1"))
    cheap = rho.shape[1] <= 64
    if not (cheap or strict):
        return
    passed = rho[:fail.stop]
    low = np.linalg.eigvalsh((passed + passed.conj().swapaxes(1, 2)) / 2).min(axis=1)
    if cheap:
        fail.check(low < -1e-6,
                   lambda k: ValueError(f"minimum eigenvalue {low[k]:.2e} below guard"))
    if strict:
        fail.check(herm > 1e-10,
                   lambda k: ValueError(f"Hermiticity residual {herm[k]:.2e} > 1e-10"))
        fail.check(np.abs(trace - 1.0) > 1e-10,
                   lambda k: ValueError("trace deviates from 1 beyond tolerance"))
        fail.check(low < -1e-8,
                   lambda k: ValueError(f"minimum eigenvalue {low[k]:.2e} < -1e-08"))


def _admitted(data: np.ndarray, n_sites: int) -> DensityMatrix:
    """A DensityMatrix of ``data`` whose checks ``_check_states`` has run."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "data", data)
    object.__setattr__(rho, "n_sites", n_sites)
    return rho


def _summed(triplets: list, dim: int, dtype: type) -> sp.csr_matrix:
    """The dim x dim CSR sum of COO triplets, without the explicit zeros that
    cancelling terms leave; no triplets give the zero matrix."""
    triplets = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, dtype)), *triplets]
    rows, cols, data = (np.concatenate(part) for part in zip(*triplets))
    total = sp.coo_matrix((data, (rows, cols)), shape=(dim, dim)).tocsr()
    total.eliminate_zeros()
    return total


def _scatter_plan(family: ParamLindbladian, mask: np.ndarray) -> tuple:
    """The scatter slot for term blocks whose raveled, concatenated entries
    (the stacks of ``_stacks`` in order, each point's terms in a stack in
    term order) may be nonzero where ``mask`` is: that mask; the ``_adder``
    that sums, per embedded entry in term order, the block entry it copies
    into the stored entry of T it lands on; T's CSR ``indptr`` and
    ``indices``; and the ``_adder`` that sums T's stored entries over each
    row of T."""
    dim = 4**family.n_total
    # 1-based positions of the masked entries, so embed_triplets keeps exactly those
    ids = np.where(mask, np.arange(1, mask.size + 1), 0)
    starts, start = {}, 0
    for k, members in family._size_groups:
        for ti in members:
            starts[ti], start = start, start + 16**k
    keys, pos = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for ti, term in enumerate(family.terms):
        side = 4 ** len(term.support.sites)
        rows, cols, p = embed_triplets(ids[starts[ti]:starts[ti] + side * side].reshape(side, side),
                                       *family._term_offsets[ti][0])
        keys.append(rows * dim + cols)
        pos.append(p - 1)
    keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(dim + 1) * dim)
    rows = np.repeat(np.arange(dim), np.diff(indptr))
    return (mask, _adder(np.concatenate(pos), inverse, keys.size, mask.size), indptr,
            keys % dim, _adder(np.arange(keys.size), rows, dim, keys.size))


def _transfer_values(family: ParamLindbladian, X: np.ndarray,
                     fail: _FirstError) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T at each point of X before ``fail.stop``: ``(values, indices, indptr)``
    with one row of values per point on the CSR pattern of the family's
    scatter slot, where an entry that is zero at a point is stored as 0.0.

    The terms of each support size build their blocks for all points in one
    pass (``_stacks``), and one sparse product (``_binned``) sums them into
    T in term order.  The slot grows to the union of its mask and the points'
    nonzeros when they reach past it (a zero coordinate can empty a block;
    the union is at most every block entry), dropping the ordering slot, and
    is reused otherwise: adding 0.0 changes no partial sum, so T has the same
    bytes whatever the family built before.  Row 0 is sqrt(D) times the trace
    functional, so an entry of it above 1e-10 is a NumericalError.
    """
    stacks = family._stacks(X, fail, transfer=True)
    b = fail.stop
    flat = np.concatenate([np.zeros((b, 0)), *(stack[:b].reshape(b, np.prod(stack.shape[1:]))
                                               for stack in stacks)], axis=1)
    nonzero = (flat != 0).any(axis=0)
    slot = family._scatter
    if slot is None or (nonzero & ~slot[0]).any():
        slot = family._scatter = _scatter_plan(
            family, nonzero if slot is None else nonzero | slot[0])
        family._ordering = None  # it indexes the old pattern
    _, adder, indptr, indices, _ = slot
    values = _binned(adder, flat)
    resid = np.abs(values[:, :indptr[1]]).max(axis=1, initial=0.0)
    fail.check(resid > 1e-10, lambda k: NumericalError(
        f"trace-preservation residual {resid[k]:.2e} exceeds 1e-10"))
    return values, indices, indptr


def _adder(columns: np.ndarray, bins: np.ndarray, size: int, width: int) -> sp.csr_matrix:
    """The size x width CSR matrix of ones that adds, for each e in order,
    column ``columns[e]`` of a row of weights into bin ``bins[e]``."""
    order = np.argsort(bins, kind="stable")
    indptr = np.r_[0, np.cumsum(np.bincount(bins, minlength=size))]
    return sp.csr_matrix((np.ones(bins.size), columns[order], indptr), shape=(size, width))


def _binned(adder: sp.csr_matrix, weights: np.ndarray) -> np.ndarray:
    """The ``_adder`` sums of each row of ``weights`` (B, width), as (B, size):
    SciPy's CSR product adds each bin's weights times 1.0 in order, from
    0.0, so a bin gets the bytes ``np.bincount`` gives it, for all rows in
    one call."""
    return (adder @ weights.T).T


def _pruned(values: np.ndarray, indices: np.ndarray,
            indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR arrays ``(data, indices, indptr)`` of one point's T without the
    entries of ``values`` that are zero, in ``eliminate_zeros`` order."""
    keep = values != 0
    if keep.all():
        return values, indices, indptr
    return values[keep], indices[keep], np.r_[0, np.cumsum(keep)][indptr]


def _check_size(family: ParamLindbladian) -> None:
    if family.n_total > SUPEROP_SITE_CAP:
        raise ValueError(
            f"superoperator assembly capped at {SUPEROP_SITE_CAP} sites, "
            f"family has {family.n_total}"
        )


def assemble(family: ParamLindbladian, x: np.ndarray) -> Superoperator:
    """The generator of ``family`` at the parameter point x.

    Checks that the family fits under ``SUPEROP_SITE_CAP`` and that x lies in
    its box; the matrices are built when first read (:class:`Superoperator`).
    """
    _check_size(family)
    return Superoperator(family, family.as_values(x).copy())


# The Dormand-Prince 5(4) pair as scipy.integrate's RK45 holds it.  The
# right-hand side M @ y does not depend on time, so the stage times C are not
# needed.
_RK45_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_RK45_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK45_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                    1/40])
_RK45_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / (4 + 1)  # the embedded error estimate is 4th order


class IvpResult(NamedTuple):
    """y(t), or None when the step size fell below the spacing of the numbers
    near the current time, and the number of right-hand-side evaluations."""

    y: np.ndarray | None
    nfev: int


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(matrix: sp.csr_matrix, y0: np.ndarray, t: float, rtol: float) -> IvpResult:
    """y(t) for dy/dt = matrix @ y, y(0) = y0 a finite complex vector and
    t > 0, by adaptive Dormand-Prince 5(4) steps at ``rtol`` and atol 1e-12.

    A port of the one path of ``scipy.integrate.solve_ivp(lambda _t, y:
    matrix @ y, (0, t), y0, method="RK45", t_eval=[t], rtol=rtol,
    atol=1e-12)``, from scipy 1.17.1's ``scipy/integrate/_ivp`` (``ivp.py``,
    ``base.py``, ``common.py``, ``rk.py``; BSD-3-Clause, "Copyright (c)
    2001-2002 Enthought, Inc. 2003, SciPy Developers.").  It makes
    scipy's floating-point operations in scipy's order and on scipy's operand
    shapes, so y(t) and ``nfev`` equal scipy's bit for bit.  One departure: a
    NaN step size fails at once, where scipy retries it forever.
    """
    y = np.asarray(y0, dtype=complex)
    if not (t > 0 and np.isfinite(y).all()):
        raise ValueError("solve_ivp needs t > 0 and a finite y0")
    t_bound, atol = float(t), 1e-12

    # select_initial_step (Hairer, Norsett and Wanner, Sec. II.4)
    f = matrix @ y
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    d2 = _rms((matrix @ (y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (4 + 1))
    h_abs = min(100 * h0, h1, t_bound)
    nfev = 2

    K = np.empty((7, y.size), dtype=complex)
    t_now = 0.0
    while True:  # one accepted step per pass; the last one lands on t_bound
        min_step = 10 * np.abs(np.nextafter(t_now, np.inf) - t_now)
        h_abs = min_step if h_abs < min_step else h_abs
        step_rejected = False
        while True:
            if not h_abs >= min_step:
                return IvpResult(None, nfev)
            t_new = min(t_now + h_abs, t_bound)
            h = t_new - t_now
            h_abs = np.abs(h)

            K[0] = f
            for s in range(1, 6):
                dy = np.dot(K[:s].T, _RK45_A[s, :s]) * h
                K[s] = matrix @ (y + dy)
            y_new = y + h * np.dot(K[:-1].T, _RK45_B)
            f_new = matrix @ y_new
            K[-1] = f_new
            nfev += 6

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _RK45_E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
        if t_new >= t_bound:
            break
        t_now, y, f = t_new, y_new, f_new

    # scipy's value at t_eval = [t]: the step's dense output at x = (t - t_old)
    # / h, which is exactly 1, so p is a column of four ones.
    out = h * np.dot(K.T.dot(_RK45_P), np.ones((4, 1)))
    out += y[:, None]
    return IvpResult(out[:, 0], nfev)


def _integrate(matrix: sp.csr_matrix, y0: np.ndarray, t: float,
               rtol: float) -> np.ndarray:
    y = solve_ivp(matrix, y0, t, rtol).y
    if y is None:
        raise NumericalError("integrator failed (stiffness/step underflow): Required step "
                             "size is less than spacing between numbers.")
    if not np.all(np.isfinite(y)):
        raise NumericalError("integrator produced non-finite values")
    return y


def evolve(superop: Superoperator, rho: DensityMatrix, t: float,
           rtol: float = 1e-9) -> DensityMatrix:
    """rho(t) = exp(t L)(rho) on the column-stacked vec(rho), by the adaptive
    Dormand-Prince 5(4) steps of :func:`solve_ivp` (scipy's RK45, ported) at
    ``rtol`` and atol 1e-12.

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

    L* is the conjugate transpose of the column-stacked generator; it is
    integrated as in :func:`evolve`.
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


def _ordering_plan(pinned_t: sp.csc_matrix, perm: np.ndarray, stored: np.ndarray) -> tuple:
    """The ordering slot for T'^T, which keeps T's stored entries past row 0
    where ``stored`` holds, and SuperLU's column permutation ``perm`` of it
    (column j to position perm[j]): ``stored``, the order that inverts
    ``perm``, ``perm``, the column of a point's row of ``_factors``'
    ``pinned`` that each entry of T'^T with rows and columns taken in that
    order copies, and that permuted matrix, whose data each point refills
    (its index arrays are ``intc``, as ``splu`` takes them).  ``stored`` and
    the gather index the scatter slot's pattern, so a grown scatter slot
    drops the slot.  Each column keeps its row indices in T'^T's order, which
    makes its NATURAL factor the fill-reducing factor of T'^T to the bit;
    sorting them moved solves by up to 1.7e-16."""
    order = np.argsort(perm)
    counts = np.diff(pinned_t.indptr)[order]
    indptr = np.r_[0, np.cumsum(counts)]
    gather = np.repeat(pinned_t.indptr[order] - indptr[:-1], counts) + np.arange(indptr[-1])
    permuted = sp.csc_matrix((np.zeros(indptr[-1]), perm[pinned_t.indices[gather]].astype(np.intc),
                              indptr.astype(np.intc)), shape=pinned_t.shape)
    permuted.has_canonical_format = True  # keeps splu from sorting the row indices
    take = np.r_[0, np.flatnonzero(stored) + 1][gather]
    return stored, order, perm, take, permuted


def _factors(family: ParamLindbladian, values: np.ndarray, indices: np.ndarray,
             indptr: np.ndarray) -> Iterator[tuple[spla.SuperLU, np.ndarray, np.ndarray]]:
    """Per row of ``values``, T at a point on the CSR pattern ``(indices,
    indptr)``, in row order: ``(lu, order, rank)``, where ``lu`` factors
    T'^T, T without its zero entries and with row 0 replaced by e0^T, with
    rows and columns taken in ``order``, whose inverse is ``rank``.

    A point whose stored entries are those of the family's ordering slot,
    which lives as long as the scatter pattern, costs one gather of its data
    into the slot's matrix and one NATURAL factorization.  Any other point is
    factored in the fill-reducing MMD_AT_PLUS_A order (``order`` the
    identity), which replaces the slot.  An exactly singular factor raises
    DegenerateSteadyStateError."""
    dim, s = indptr.size - 1, indptr[1]
    # per point, T'^T's data on T's pattern: e0's 1.0, then T past row 0
    pinned = np.empty((len(values), 1 + indices.size - s))
    pinned[:, 0] = 1.0
    pinned[:, 1:] = values[:, s:]
    stored = pinned[:, 1:] != 0
    slot, hits = None, None
    for k in range(len(values)):
        if hits is None or family._ordering is not slot:
            slot = family._ordering
            hits = (np.zeros(len(values), dtype=bool) if slot is None
                    else (stored == slot[0]).all(axis=1))
        if hits[k]:
            _, order, rank, take, matrix = slot
            matrix.data = pinned[k, take]
            spec = "NATURAL"
        else:
            data, cols, ptr = _pruned(values[k], indices, indptr)
            cut = ptr[1]
            matrix = sp.csc_matrix((np.r_[1.0, data[cut:]], np.r_[0, cols[cut:]],
                                    np.r_[0, ptr[1:] - cut + 1]), shape=(dim, dim))
            order = rank = np.arange(dim)
            spec = "MMD_AT_PLUS_A"
        try:
            lu = _splu(matrix, spec)
        except RuntimeError as exc:  # SuperLU reports an exactly singular factor
            raise DegenerateSteadyStateError(f"non-unique steady state: {exc}") from exc
        if not hits[k]:
            # a copy: lu.perm_c is a view that would keep the whole factor alive
            family._ordering = _ordering_plan(matrix, lu.perm_c.copy(), stored[k].copy())
        yield lu, order, rank


def _solve_t(factor: tuple[spla.SuperLU, np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """The solution c of T' c = rhs from a factor of T'^T (``_factors``)."""
    lu, order, rank = factor
    return lu.solve(rhs[order], trans="T")[rank]


@cache  # one entry per dimension of T', the 4^n of each system size
def _start_vector(dim: int) -> np.ndarray:
    """The read-only unit start vector of inverse iteration, drawn from a
    fixed seed."""
    v = np.random.default_rng(12345).standard_normal(dim)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def _kernel_is_degenerate(factor: tuple[spla.SuperLU, np.ndarray, np.ndarray],
                          line: float) -> tuple[bool, float]:
    """Whether the pinned generator T' (``factor`` from ``_factors``) is
    singular, and the last residual, by inverse iteration from a fixed random
    seed: solving T' w = v for a unit v leaves w / ||w|| the residual
    1 / ||w||.  A singular T' has a pivot of order 1e-16 norm_scale, so each
    solve multiplies the weight of a kernel vector by about 1e16 / norm_scale
    against at most 1/|lambda| for every other eigenvector: within one or two
    solves the residual collapses below ``line`` (or the solve overflows), and
    one that stays 1e4 times above the line twice in a row rules the
    degeneracy out.  At most 50 solves.
    """
    v = _start_vector(factor[0].shape[0])
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


def steady_states(family: ParamLindbladian, X: np.ndarray) -> Iterator[DensityMatrix]:
    """The unique fixed point of the semigroup of ``family`` at each row of X,
    in row order, ``STEADY_CHUNK`` rows at a time.

    The chunk's T are built at once, one pass per term support size
    (``_transfer_values``), and a point's T is its row of values without the
    entries that are zero there.  Row 0 of T is zero (to the 1e-10 that building T
    admits), so T with row 0 replaced by e0^T is T' = T + e0 e0^T,
    nonsingular exactly when the kernel of T is simple; then
    T' c = e0 / sqrt(D) gives the steady state's coefficients: T c = 0,
    c_0 = 1/sqrt(D) makes the trace 1 and real coefficients make it
    Hermitian.  T's CSR arrays with that row are the CSC arrays of T'^T, so
    SuperLU factors T'^T once per point (threshold pivoting 0.1 in symmetric
    mode: 53 to 78% of the fill of partial pivoting on TFIM generators of 4
    to 6 sites) and solves transposed.  The fill-reducing MMD_AT_PLUS_A order
    depends only on the pattern of T', so a point reuses the order its family
    last computed for that pattern, unless the scatter slot has grown since
    (``_factors``); the state has the same bytes either way.  The factor also
    serves the degeneracy probe, which stops at its first residual below the
    1e-8 * norm_scale line or once two solves in a row leave it 1e4 times
    above it (two solves on a simple kernel).  Per point only SuperLU works,
    in row order: a point of the reused pattern costs one gather of its data,
    one factorization, the probe's solves and the solve.  The checks that
    follow run once per chunk on stacked arrays.

    An exactly singular factor or a probe below the line is a degenerate
    kernel, an error (no silent selection); a non-finite solve or a
    trace-norm residual ||L(rho)||_1 above 1e-9 is a NumericalError; each
    state also passes the strict invariants of ``_check_states``.  A point
    that fails raises after the states of the points before it, with the
    error a point-by-point loop would raise.  Every term's ``build`` runs at
    each point of a chunk before its first point outside the box, and an
    exception from it propagates at once.
    """
    _check_size(family)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != family.m:
        raise ValueError(f"expected points of {family.m} parameters, got shape {X.shape}")
    for lo in range(0, len(X), STEADY_CHUNK):
        states, error = _steady_chunk(family, X[lo:lo + STEADY_CHUNK])
        yield from states
        if error is not None:
            raise error


def _steady_chunk(family: ParamLindbladian,
                  X: np.ndarray) -> tuple[list[DensityMatrix], Exception | None]:
    """The steady states of the points of X before the first that fails, and
    that point's error (None when every point succeeds)."""
    n, D = family.n_total, 2**family.n_total
    fail = _FirstError(len(X))
    for k, x in enumerate(X):
        try:
            family.as_values(x)
        except ValueError as exc:
            fail.stop, fail.error = k, exc
            break
    values, indices, indptr = _transfer_values(family, X, fail)
    # sums over each row of T (the scatter slot's last adder); its stored
    # zeros add nothing
    row_sums = family._scatter[-1]
    norm_scale = np.fmax(1.0, _binned(row_sums, np.abs(values)).max(axis=1, initial=0.0))
    coeffs = np.empty((fail.stop, D * D))
    rhs = np.zeros(D * D)
    rhs[0] = 1.0 / np.sqrt(D)
    factors = _factors(family, values[:fail.stop], indices, indptr)
    for k in range(fail.stop):
        try:
            factor = next(factors)
            degenerate, probe = _kernel_is_degenerate(factor, 1e-8 * norm_scale[k])
            if degenerate:
                raise DegenerateSteadyStateError(
                    f"non-unique steady state: kernel probe residual {probe:.2e}")
        except DegenerateSteadyStateError as exc:
            fail.stop, fail.error = k, exc
            break
        coeffs[k] = _solve_t(factor, rhs)
    fail.check(~np.isfinite(coeffs).all(axis=1), lambda k: NumericalError(
        "steady-state solve produced non-finite values"))
    c = coeffs[:fail.stop]
    image = _binned(row_sums, values[:fail.stop] * c[:, indices])  # T c per point
    resid = np.linalg.svd(_from_pauli(image, n), compute_uv=False).sum(axis=1)
    fail.check(resid > 1e-9, lambda k: NumericalError(
        f"steady-state residual {resid[k]:.2e} exceeds 1e-9"))
    rho = _from_pauli(c, n)
    _check_states(rho, fail, strict=True)
    return [_admitted(rho[k].copy(), n) for k in range(fail.stop)], fail.error


def steady_state(superop: Superoperator) -> DensityMatrix:
    """The unique fixed point of the semigroup generated by ``superop``: the
    batch of one of :func:`steady_states`."""
    return next(steady_states(superop.family, superop.values[None]))


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
    """Reduced matrix on ``keep`` (ascending), tracing out the other sites one
    at a time in site order; of each matrix of a stack (..., D, D) too."""
    keep = sorted(keep)
    lead = data.shape[:-2]
    t = data.reshape(lead + (2,) * (2 * n_sites))
    drop = [s for s in range(n_sites) if s not in keep]
    for count, s in enumerate(drop):
        ns = n_sites - count  # sites remaining in tensor
        pos = len(lead) + s - sum(1 for q in drop[:count] if q < s)
        t = np.trace(t, axis1=pos, axis2=ns + pos)
    dk = 2 ** len(keep)
    return t.reshape(lead + (dk, dk))


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
    sub = ParamLindbladian(sub_lat, new_terms, name=family.name)
    return sub, np.asarray(coord_map, dtype=int)
