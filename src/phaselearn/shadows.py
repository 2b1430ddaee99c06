"""Randomized single-qubit-basis measurements and snapshot post-processing.

One snapshot is one product measurement: a uniformly random basis in {X, Y, Z}
per site, outcomes sampled from the exact Born rule site-by-site
(conditioning on earlier outcomes, which avoids enumerating all 2^n outcome
probabilities and is exact).  The inverse-channel estimate

    (x)_{i in B} (3 |z_i><z_i| - I)

is an unbiased estimator of the reduced state on B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import IO, Sequence

import numpy as np

from .errors import NumericalError
from .lindblad import DensityMatrix, partial_trace

__all__ = [
    "BASIS_LETTERS",
    "MAX_LOCAL_SITES",
    "ShadowSnapshot",
    "TrainingSet",
    "measure_snapshot",
    "measure_snapshot_product",
    "snapshot_local_matrix",
    "median_of_means",
    "mom_batch_count",
    "required_shadow_count",
    "write_shadows",
    "read_shadows",
]

BASIS_LETTERS = "XYZ"
MAX_LOCAL_SITES = 6

_SQ2 = 1.0 / math.sqrt(2.0)
# EIG_KETS[basis][outcome] = eigenvector; outcome 0 <-> +1, 1 <-> -1
_EIG_KETS = np.array(
    [
        [[_SQ2, _SQ2], [_SQ2, -_SQ2]],            # X: |+>, |->
        [[_SQ2, 1j * _SQ2], [_SQ2, -1j * _SQ2]],  # Y: |+i>, |-i>
        [[1.0, 0.0], [0.0, 1.0]],                 # Z: |0>, |1>
    ],
    dtype=complex,
)
# rows are eigenbras <z|
_EIG_BRAS = _EIG_KETS.conj()


@dataclass(frozen=True)
class ShadowSnapshot:
    """Outcome record of one randomized product measurement, with its tag."""

    bases: np.ndarray    # int8 codes into BASIS_LETTERS, length n (system sites)
    outcomes: np.ndarray  # int8 in {+1, -1}
    x: np.ndarray
    tau: float
    omega: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "bases", np.asarray(self.bases, dtype=np.int8))
        object.__setattr__(self, "outcomes", np.asarray(self.outcomes, dtype=np.int8))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.bases.shape != self.outcomes.shape:
            raise ValueError("bases and outcomes must have equal length")
        if not np.all(np.isin(self.outcomes, (-1, 1))):
            raise ValueError("outcomes must be +-1")

    @property
    def n_sites(self) -> int:
        return len(self.bases)

    def eigenstate_ket(self, site: int) -> np.ndarray:
        return _EIG_KETS[self.bases[site], 0 if self.outcomes[site] == 1 else 1]


def measure_snapshot(rho: DensityMatrix, seed: int, x: np.ndarray | None = None,
                     tau: float = math.inf, omega: int = 0,
                     n_system: int | None = None) -> ShadowSnapshot:
    """One randomized product measurement of ``rho`` on its first ``n_system`` sites.

    Ancilla slots beyond ``n_system`` are traced out before measuring.  Bases
    are i.i.d. uniform over {X, Y, Z}; outcomes follow the exact Born rule via
    sequential conditional sampling.
    """
    if rho.local_dim != 2:
        raise ValueError("snapshots are defined for qubit systems")
    n = rho.n_sites if n_system is None else n_system
    rng = np.random.default_rng(seed)
    bases = rng.integers(0, 3, size=n).astype(np.int8)
    work = rho.data
    if n < rho.n_sites:
        work = partial_trace(work, rho.n_sites, range(n), rho.local_dim)
    outcomes = np.empty(n, dtype=np.int8)
    for i in range(n):
        k = n - i
        sub = work.reshape(2, 2 ** (k - 1), 2, 2 ** (k - 1))
        bras = _EIG_BRAS[bases[i]]
        blocks = np.einsum("za,aibj,zb->zij", bras, sub, bras.conj(), optimize=True)
        probs = np.einsum("zii->z", blocks).real
        if probs.min() < -1e-10:
            raise NumericalError(f"negative conditional probability {probs.min():.2e}")
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if total <= 0:
            raise NumericalError("vanishing conditional probability mass")
        o = 0 if rng.random() < probs[0] / total else 1
        outcomes[i] = 1 if o == 0 else -1
        work = blocks[o] / probs[o] if k > 1 else work
    return ShadowSnapshot(
        bases=bases,
        outcomes=outcomes,
        x=np.zeros(0) if x is None else np.asarray(x, dtype=float),
        tau=tau,
        omega=omega,
        seed=seed,
    )


def measure_snapshot_product(site_states: np.ndarray, seed: int,
                             x: np.ndarray | None = None, tau: float = math.inf,
                             omega: int = 0) -> ShadowSnapshot:
    """Product-state fast path of :func:`measure_snapshot`.

    ``site_states`` is an (n, 2, 2) stack of single-site density matrices.
    Consumes the random stream exactly like the general sampler (bases first,
    then one uniform per site), so a snapshot taken here matches the general
    path on the corresponding product state.
    """
    site_states = np.asarray(site_states, dtype=complex)
    n = site_states.shape[0]
    rng = np.random.default_rng(seed)
    bases = rng.integers(0, 3, size=n).astype(np.int8)
    us = rng.random(n)
    bras = _EIG_BRAS[bases]  # (n, 2, 2)
    # probability of outcome +1 at each site: <v+| rho_i |v+>
    p_plus = np.einsum("na,nab,nb->n", bras[:, 0], site_states, bras[:, 0].conj()).real
    if p_plus.min() < -1e-10 or p_plus.max() > 1.0 + 1e-10:
        raise NumericalError("site state produced an out-of-range probability")
    p_plus = np.clip(p_plus, 0.0, 1.0)
    outcomes = np.where(us < p_plus, 1, -1).astype(np.int8)
    return ShadowSnapshot(
        bases=bases,
        outcomes=outcomes,
        x=np.zeros(0) if x is None else np.asarray(x, dtype=float),
        tau=tau,
        omega=omega,
        seed=seed,
    )


def snapshot_local_matrix(snapshot: ShadowSnapshot, sites: Sequence[int]) -> np.ndarray:
    """Inverse-channel estimate (x)_{i in B} (3 |z_i><z_i| - I) on ``sites``.

    Sites ascending; the empty region yields the 1x1 scalar 1.
    """
    sites = sorted(sites)
    if len(sites) > MAX_LOCAL_SITES:
        raise ValueError(f"region of {len(sites)} sites exceeds local cap {MAX_LOCAL_SITES}")
    if any(s < 0 or s >= snapshot.n_sites for s in sites):
        raise ValueError("site outside the measured system")
    mats = []
    for s in sites:
        v = snapshot.eigenstate_ket(s)
        mats.append(3.0 * np.outer(v, v.conj()) - np.eye(2))
    return reduce(np.kron, mats) if mats else np.eye(1, dtype=complex)


def median_of_means(values: Sequence[float], batches: int) -> float:
    """Median of ``batches`` equal batch means; the remainder is discarded.

    batches = 1 reduces to the plain mean.
    """
    values = np.asarray(values, dtype=float)
    if batches < 1:
        raise ValueError("batch count must be >= 1")
    if batches > len(values):
        raise ValueError(f"batch count {batches} exceeds {len(values)} values")
    b = len(values) // batches
    used = values[: b * batches].reshape(batches, b)
    return float(np.median(used.mean(axis=1)))


def mom_batch_count(delta_prime: float, count: int) -> int:
    """Default batch count ceil(8 log(2/delta')), capped at floor(count/2)."""
    k = math.ceil(8.0 * math.log(2.0 / delta_prime))
    return max(1, min(k, count // 2)) if count >= 2 else 1


def required_shadow_count(epsilon: float, delta_prime: float, k0: int, n: int) -> int:
    """Per-cell snapshot budget: smallest q with
    q >= (8 * 12^k0 / (3 eps^2)) log(n^k0 2^(k0+1) / delta')."""
    if not (0 < epsilon < 1) or not (0 < delta_prime < 1):
        raise ValueError("epsilon and delta' must lie in (0, 1)")
    if k0 < 0 or n < 1:
        raise ValueError("k0 must be >= 0 and n >= 1")
    bound = (8.0 * 12.0**k0 / (3.0 * epsilon**2)) * math.log(
        (float(n) ** k0) * 2.0 ** (k0 + 1) / delta_prime
    )
    return max(1, math.ceil(bound))


@dataclass
class TrainingSet:
    """Tagged snapshots plus the sampling metadata needed to reuse them."""

    snapshots: list[ShadowSnapshot]
    model_name: str = ""
    lattice_json: str = ""
    mode: str = "steady_state"
    seed: int = 0
    m: int = 0
    _X: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.snapshots)

    @property
    def X(self) -> np.ndarray:
        """(N, m) matrix of parameter tags."""
        if self._X is None:
            self._X = (
                np.vstack([s.x for s in self.snapshots])
                if self.snapshots
                else np.zeros((0, self.m))
            )
        return self._X

    @property
    def taus(self) -> np.ndarray:
        return np.array([s.tau for s in self.snapshots])

    @property
    def omegas(self) -> np.ndarray:
        return np.array([s.omega for s in self.snapshots], dtype=int)

    def subset(self, count: int) -> "TrainingSet":
        """Deterministic prefix subset (used by sample-size sweeps)."""
        return TrainingSet(
            self.snapshots[:count], self.model_name, self.lattice_json,
            self.mode, self.seed, self.m,
        )


def _format_tau(tau: float) -> str:
    return "inf" if math.isinf(tau) else repr(float(tau))


def write_shadows(fileobj: IO[str], training: TrainingSet) -> None:
    """Snapshot interchange format: one record per line,
    ``x_hex tau omega basis_string outcome_bitstring seed``."""
    fileobj.write("# phaselearn-shadows v1\n")
    fileobj.write(f"# model {training.model_name}\n")
    fileobj.write(f"# lattice {training.lattice_json}\n")
    fileobj.write(f"# mode {training.mode}\n")
    fileobj.write(f"# seed {training.seed}\n")
    fileobj.write(f"# m {training.m}\n")
    for s in training.snapshots:
        xhex = s.x.astype("<f8").tobytes().hex()
        basis = "".join(BASIS_LETTERS[b] for b in s.bases)
        bits = "".join("0" if o == 1 else "1" for o in s.outcomes)
        fileobj.write(f"{xhex or '-'} {_format_tau(s.tau)} {s.omega} {basis} {bits} {s.seed}\n")


def read_shadows(fileobj: IO[str]) -> TrainingSet:
    meta = {"model": "", "lattice": "", "mode": "steady_state", "seed": "0", "m": "0"}
    snaps: list[ShadowSnapshot] = []
    for line in fileobj:
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split(" ", 1)
            if len(parts) == 2 and parts[0] in meta:
                meta[parts[0]] = parts[1]
            continue
        xhex, tau_s, omega_s, basis, bits, seed_s = line.split(" ")
        x = (
            np.frombuffer(bytes.fromhex(xhex), dtype="<f8")
            if xhex != "-"
            else np.zeros(0)
        )
        bases = np.array([BASIS_LETTERS.index(c) for c in basis], dtype=np.int8)
        outcomes = np.array([1 if c == "0" else -1 for c in bits], dtype=np.int8)
        snaps.append(
            ShadowSnapshot(bases, outcomes, x, float(tau_s), int(omega_s), int(seed_s))
        )
    return TrainingSet(
        snaps,
        model_name=meta["model"],
        lattice_json=meta["lattice"],
        mode=meta["mode"],
        seed=int(meta["seed"]),
        m=int(meta["m"]),
    )
