"""Lattice geometry, regions, local observables, and parameter-coordinate ownership.

Conventions fixed here and used identically by every other module:

* sites are indexed row-major; site 0 is the tensor factor acted on by the
  leftmost Kronecker slot,
* the lattice metric is the l1 (Manhattan) distance, wrapped per axis under
  periodic boundary conditions; every geometric query reads it one site at a
  time, as the vectorised row ``Lattice.distances(u)``,
* full-space dense embeddings are only permitted up to ``DENSE_SITE_CAP``
  sites; larger systems must stay on structured paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

__all__ = [
    "DENSE_SITE_CAP",
    "Lattice",
    "Region",
    "LocalObservable",
    "CoordInfo",
    "ball",
    "enlarge",
    "check_nesting",
    "embed",
    "embed_sparse_indices",
    "embed_triplets",
    "pauli_matrix",
    "observable_from_string",
    "l1_ball_volume",
]

DENSE_SITE_CAP = 12

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class Lattice:
    """A D-dimensional rectangular lattice of qubits (D in {1, 2})."""

    dim: int
    extent: tuple[int, ...]
    boundary: str = "open"

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"only D=1 and D=2 lattices supported, got D={self.dim}")
        object.__setattr__(self, "extent", tuple(int(e) for e in self.extent))
        if len(self.extent) != self.dim or any(e < 1 for e in self.extent):
            raise ValueError(f"extent {self.extent} inconsistent with dim {self.dim}")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")

    @property
    def n_sites(self) -> int:
        return math.prod(self.extent)

    def distances(self, u: int) -> np.ndarray:
        """l1 distance from site ``u`` to every site; wraps per axis on a torus."""
        self._check_site(u)
        grid = np.indices(self.extent).reshape(self.dim, -1)
        step = np.abs(grid - grid[:, u, None])
        if self.boundary == "periodic":
            step = np.minimum(step, np.array(self.extent)[:, None] - step)
        return step.sum(axis=0)

    def _check_site(self, s: int) -> None:
        if not 0 <= s < self.n_sites:
            raise ValueError(f"site index {s} outside [0, {self.n_sites})")

    def all_sites(self) -> range:
        return range(self.n_sites)

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "extent": list(self.extent),
                "boundary": self.boundary,
                "local_dim": 2,  # every site is a qubit; part of the training.shadows header
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class Region:
    """An ordered set of sites."""

    sites: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(sorted(set(int(s) for s in self.sites))))

    def __len__(self) -> int:
        return len(self.sites)

    def __contains__(self, s: int) -> bool:
        return s in set(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.sites)

    def diameter(self, lattice: Lattice) -> int:
        sites = list(self.sites)
        return max((int(lattice.distances(u)[sites].max()) for u in sites), default=0)

    def boundary_sites(self, lattice: Lattice) -> frozenset[int]:
        """Sites of the region with at least one neighbour outside it."""
        rows = [lattice.distances(s) for s in self.sites]
        outside = np.ones(lattice.n_sites, dtype=bool)
        outside[list(self.sites)] = False
        return frozenset(s for s, row in zip(self.sites, rows) if (outside & (row == 1)).any())


def ball(lattice: Lattice, center: int, radius: int) -> Region:
    """All sites within l1 distance ``radius`` of ``center``."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    sites = np.flatnonzero(lattice.distances(center) <= radius)
    return Region(tuple(sites.tolist()))


def enlarge(lattice: Lattice, region: Region, r: int) -> Region:
    """Union of radius-``r`` balls around every site of ``region``."""
    if r < 0:
        raise ValueError("enlargement radius must be >= 0")
    if r == 0:
        return region
    near = np.zeros(lattice.n_sites, dtype=bool)
    for s in region.sites:
        near |= lattice.distances(s) <= r
    return Region(tuple(np.flatnonzero(near).tolist()))


def check_nesting(lattice: Lattice, a: Region, r: Region, w: Region) -> None:
    """ValueError unless A lies within R within W, A avoids the boundary of R
    and R avoids the boundary of W."""
    a_set, r_set = a.as_set(), r.as_set()
    if not (a_set <= r_set and r_set <= w.as_set()):
        raise ValueError("regions must nest a within r within w")
    if a_set & r.boundary_sites(lattice):
        raise ValueError("region 'a' meets the boundary of region 'r'")
    if r_set & w.boundary_sites(lattice):
        raise ValueError("region 'r' meets the boundary of region 'w'")


def l1_ball_volume(radius: int, dim: int) -> int:
    """Number of lattice points of Z^dim within l1 distance ``radius`` of a point."""
    if radius < 0:
        return 0
    if dim == 1:
        return 2 * radius + 1
    if dim == 2:
        return 2 * radius * radius + 2 * radius + 1
    raise ValueError("only dim 1 and 2 supported")


@dataclass(frozen=True)
class LocalObservable:
    """A Hermitian operator on a small region of the lattice."""

    support: Region
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError(f"observable {self.label!r} is not Hermitian to 1e-12")

    def validate(self, lattice: Lattice, k0: int = 2) -> None:
        side = 2 ** len(self.support)
        if self.matrix.shape != (side, side):
            raise ValueError(
                f"matrix side {self.matrix.shape[0]} != {side} for {len(self.support)} sites"
            )
        if self.support.sites and self.support.diameter(lattice) > k0:
            raise ValueError(
                f"support diameter {self.support.diameter(lattice)} exceeds k0={k0}"
            )

    @property
    def operator_norm(self) -> float:
        if self.matrix.size == 0:
            return 0.0
        return float(np.linalg.norm(self.matrix, 2))


def pauli_matrix(letters: str) -> np.ndarray:
    """Kronecker product of single-qubit Paulis, leftmost letter first."""
    mats = [PAULI[c] for c in letters]
    return reduce(np.kron, mats) if mats else np.eye(1, dtype=complex)


def observable_from_string(spec: str, lattice: Lattice, k0: int = 2) -> LocalObservable:
    """Parse ``"Z@4"`` or ``"XX@2,3"`` into a LocalObservable.

    A spec names at least one site.  Letters apply to the listed sites in the
    order given; sites are stored sorted, so the matrix is permuted accordingly.
    """
    try:
        letters, _, sitepart = spec.partition("@")
        sites = [int(s) for s in sitepart.split(",")] if sitepart else []
    except ValueError as exc:
        raise ValueError(f"bad observable spec {spec!r}") from exc
    if not sites:
        raise ValueError(f"observable spec {spec!r} names no site")
    if len(letters) != len(sites):
        raise ValueError(f"observable spec {spec!r}: {len(letters)} letters, {len(sites)} sites")
    if len(set(sites)) != len(sites):
        raise ValueError(f"observable spec {spec!r} repeats a site")
    order = np.argsort(sites)
    letters_sorted = "".join(letters[i] for i in order)
    obs = LocalObservable(Region(tuple(sites)), pauli_matrix(letters_sorted), label=spec)
    obs.validate(lattice, k0=k0)
    return obs


@dataclass(frozen=True)
class CoordInfo:
    """Where one parameter coordinate lives: owning term and its support."""

    term_index: int
    support: frozenset[int]


def embed_sparse_indices(
    n_sites: int, sites: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Index machinery for embedding an operator on ``sites`` into the full space.

    Returns ``(local_offsets, rest_offsets)`` such that the full-space flat index
    of (local config i, complement config j) is ``local_offsets[i] + rest_offsets[j]``.
    Site 0 carries the largest stride (leftmost Kronecker slot).
    """
    sites = list(sites)
    rest = [s for s in range(n_sites) if s not in sites]
    strides = 2 ** (n_sites - 1 - np.arange(n_sites, dtype=np.int64))

    def offsets(idx: list[int]) -> np.ndarray:
        # each site appends one bit below those of the sites before it
        out = np.zeros(1, dtype=np.int64)
        for s in idx:
            out = (out[:, None] + np.array([0, strides[s]])).ravel()
        return out

    return offsets(sites), offsets(rest)


def embed_triplets(mat: np.ndarray, local_offsets: np.ndarray,
                   rest_offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets (rows, cols, data) of ``mat`` tensored with the identity on
    the complement, from the offsets of :func:`embed_sparse_indices`."""
    li, lj = np.nonzero(mat)
    rows = (rest_offsets[:, None] + local_offsets[li][None, :]).ravel()
    cols = (rest_offsets[:, None] + local_offsets[lj][None, :]).ravel()
    return rows, cols, np.tile(mat[li, lj], rest_offsets.size)


def embed(obs: LocalObservable, lattice: Lattice, n_total: int | None = None) -> np.ndarray:
    """Dense full-space matrix of a local observable, identity elsewhere.

    ``n_total`` widens the space beyond the lattice (ancilla registers appended
    after the system sites).  Capped at ``DENSE_SITE_CAP`` sites.
    """
    n = n_total if n_total is not None else lattice.n_sites
    if n > DENSE_SITE_CAP:
        raise ValueError(f"dense embedding capped at {DENSE_SITE_CAP} sites, got {n}")
    out = np.zeros((2**n, 2**n), dtype=complex)
    rows, cols, vals = embed_triplets(obs.matrix, *embed_sparse_indices(n, obs.support.sites))
    out[rows, cols] = vals
    return out
