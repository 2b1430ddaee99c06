"""Randomized single-qubit-basis measurements and snapshot post-processing.

One snapshot is one product measurement: a uniformly random basis in {X, Y, Z}
per site, outcomes sampled from the exact Born rule site-by-site
(conditioning on earlier outcomes, which avoids enumerating all 2^n outcome
probabilities and is exact).  Product states skip the conditioning:
:func:`measure_snapshot_product` takes N rows of single-site Bloch vectors,
draws each row's bases and uniforms from that row's own seeded Generator in
the general sampler's order, and compares the uniforms with the outcome
probabilities of all rows at once.  A TrainingSet holds N snapshots as columns:
(N, n) int8 basis codes and +-1 outcomes beside the per-snapshot tags.  The
inverse-channel estimate

    (x)_{i in B} (3 |z_i><z_i| - I)

is an unbiased estimator of the reduced state on B.  It depends on a
snapshot only through its (basis, outcome) pairs on the k sites of B, so
:func:`local_estimates` evaluates tr[O . estimate] once per distinct code
(at most 6^k) and looks it up for every snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import IO, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .lindblad import DensityMatrix, partial_trace

__all__ = [
    "BASIS_LETTERS",
    "MAX_LOCAL_SITES",
    "TrainingSet",
    "measure_snapshot",
    "measure_snapshot_product",
    "snapshot_local_matrix",
    "local_estimates",
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


def measure_snapshot(rho: DensityMatrix, seed: int,
                     n_system: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One randomized product measurement of ``rho`` on its first ``n_system`` sites.

    Returns the int8 basis codes and +-1 outcomes.  Ancilla slots beyond
    ``n_system`` are traced out before measuring.  Bases are i.i.d. uniform
    over {X, Y, Z}; outcomes follow the exact Born rule via sequential
    conditional sampling.
    """
    n = rho.n_sites if n_system is None else n_system
    rng = np.random.default_rng(seed)
    bases = rng.integers(0, 3, size=n).astype(np.int8)
    work = rho.data
    if n < rho.n_sites:
        work = partial_trace(work, rho.n_sites, range(n))
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
    return bases, outcomes


def measure_snapshot_product(bloch: np.ndarray,
                             seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Product-state fast path of :func:`measure_snapshot`, one snapshot per row.

    ``bloch`` is an (N, n, 3) stack of single-site Bloch vectors (<X>, <Y>, <Z>)
    and ``seeds`` holds one stream seed per row.  Row i draws from its own
    ``default_rng(seeds[i])`` exactly as the general sampler does (n basis
    codes, then one uniform per site), so it matches :func:`measure_snapshot`
    on the corresponding product state and does not depend on the other rows.
    The outcome is +1 where the uniform falls below p+ = (1 + r_basis) / 2,
    computed for all rows at once.  Returns (N, n) int8 bases and outcomes.
    """
    bloch = np.asarray(bloch, dtype=float)
    seeds = np.asarray(seeds, dtype=np.uint64)
    n_rows, n = bloch.shape[:2]
    if seeds.shape != (n_rows,):
        raise ValueError("one seed per Bloch-vector row required")
    bases = np.empty((n_rows, n), dtype=np.int8)
    us = np.empty((n_rows, n))
    for i, seed in enumerate(seeds.tolist()):
        rng = np.random.default_rng(seed)
        bases[i] = rng.integers(0, 3, size=n)
        us[i] = rng.random(n)
    p_plus = 0.5 * (1.0 + np.take_along_axis(bloch, bases[..., None], axis=2)[..., 0])
    if p_plus.min() < -1e-10 or p_plus.max() > 1.0 + 1e-10:
        raise NumericalError("Bloch vector produced an out-of-range probability")
    np.clip(p_plus, 0.0, 1.0, out=p_plus)
    outcomes = np.where(us < p_plus, 1, -1).astype(np.int8)
    return bases, outcomes


def snapshot_local_matrix(bases: np.ndarray, outcomes: np.ndarray,
                          sites: Sequence[int]) -> np.ndarray:
    """Inverse-channel estimate (x)_{i in B} (3 |z_i><z_i| - I) on ``sites``.

    ``bases`` and ``outcomes`` are one snapshot's length-n rows.  Sites
    ascending; the empty region yields the 1x1 scalar 1.
    """
    sites = sorted(sites)
    if len(sites) > MAX_LOCAL_SITES:
        raise ValueError(f"region of {len(sites)} sites exceeds local cap {MAX_LOCAL_SITES}")
    if any(s < 0 or s >= len(bases) for s in sites):
        raise ValueError("site outside the measured system")
    mats = []
    for s in sites:
        v = _EIG_KETS[bases[s], 0 if outcomes[s] == 1 else 1]
        mats.append(3.0 * np.outer(v, v.conj()) - np.eye(2))
    return reduce(np.kron, mats) if mats else np.eye(1, dtype=complex)


def local_estimates(bases: np.ndarray, outcomes: np.ndarray, sites: Sequence[int],
                    matrix: np.ndarray) -> np.ndarray:
    """tr[matrix . snapshot_local_matrix(row, sites)] for every snapshot row.

    The (basis, outcome) pairs of the k sites form a code in [0, 6^k); the
    trace is evaluated once per distinct code, on its first row, and looked
    up for the others.
    """
    sites = sorted(sites)
    pairs = 2 * bases[:, sites].astype(np.int64) + (outcomes[:, sites] < 0)
    codes = pairs @ 6 ** np.arange(len(sites) - 1, -1, -1, dtype=np.int64)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    table = np.array([
        float(np.real(np.trace(matrix @ snapshot_local_matrix(bases[j], outcomes[j], sites))))
        for j in first
    ])
    return table[inverse]


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


def mom_batch_count(delta_prime: float, count: int | None = None) -> int:
    """Batch count ceil(8 log(2/delta')); for a cell of ``count`` estimates,
    capped at floor(count/2) and at least 1."""
    k = math.ceil(8.0 * math.log(2.0 / delta_prime))
    return k if count is None else max(1, min(k, count // 2))


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


# the per-snapshot columns of a TrainingSet and their dtypes
_COLUMNS = {"bases": np.int8, "outcomes": np.int8, "X": float, "taus": float,
            "omegas": int, "seeds": np.uint64}


@dataclass
class TrainingSet:
    """N tagged snapshots as columns (row i is snapshot i), plus the sampling
    metadata needed to reuse them."""

    bases: np.ndarray     # (N, n) int8 codes into BASIS_LETTERS
    outcomes: np.ndarray  # (N, n) int8 in {+1, -1}
    X: np.ndarray         # (N, m) float64 parameter tags
    taus: np.ndarray      # (N,) float times; inf in steady-state mode
    omegas: np.ndarray    # (N,) int ancilla choices
    seeds: np.ndarray     # (N,) uint64 measurement stream seeds
    model_name: str = ""
    lattice_json: str = ""
    mode: str = "steady_state"
    seed: int = 0

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if (self.bases.shape != self.outcomes.shape
                or len({len(getattr(self, name)) for name in _COLUMNS}) != 1):
            raise ValueError("training columns must have equal length")

    def __len__(self) -> int:
        return len(self.taus)

    def subset(self, count: int) -> "TrainingSet":
        """Deterministic prefix subset (used by sample-size sweeps)."""
        return replace(self, **{name: getattr(self, name)[:count] for name in _COLUMNS})


def _format_tau(tau: float) -> str:
    return "inf" if math.isinf(tau) else repr(float(tau))


def write_shadows(fileobj: IO[str], training: TrainingSet) -> None:
    """Snapshot interchange format: one record per line,
    ``x_hex tau omega basis_string outcome_bitstring seed``."""
    m = training.X.shape[1]
    fileobj.write("# phaselearn-shadows v1\n")
    fileobj.write(f"# model {training.model_name}\n")
    fileobj.write(f"# lattice {training.lattice_json}\n")
    fileobj.write(f"# mode {training.mode}\n")
    fileobj.write(f"# seed {training.seed}\n")
    fileobj.write(f"# m {m}\n")
    # letters and bits as ASCII codes: X, Y, Z are consecutive, '0' is +1
    letters = (training.bases + ord("X")).astype(np.uint8)
    bits = ((training.outcomes < 0) + ord("0")).astype(np.uint8)
    X = training.X.astype("<f8")
    for i in range(len(training)):
        xhex = X[i].tobytes().hex() if m else "-"
        fileobj.write(
            f"{xhex} {_format_tau(training.taus[i])} {training.omegas[i]} "
            f"{letters[i].tobytes().decode()} {bits[i].tobytes().decode()} "
            f"{training.seeds[i]}\n"
        )


def _ascii_offsets(rows: Sequence[str], n: int, first: str) -> np.ndarray:
    """Equal-length ASCII strings as an (len(rows), n) array of offsets from ``first``."""
    codes = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    return (codes.reshape(len(rows), n) - ord(first)).astype(np.int8)


def _parse_record(line: str, m: int, n: int | None) -> tuple:
    """(x bytes, tau, omega, basis string, bit string, seed) of one record with
    m tags and, unless n is None, n sites; ValueError names what is malformed."""
    fields = line.split(" ")
    if len(fields) != 6:
        raise ValueError(f"expected 6 fields, got {len(fields)}")
    xhex, tau_s, omega_s, basis, bits, seed_s = fields
    if (xhex != "-") if m == 0 else (len(xhex) != 16 * m):
        raise ValueError(f"x field does not hold m = {m} float64 values")
    n = len(basis) if n is None else n
    if len(basis) != n or len(bits) != n:
        raise ValueError(f"basis and outcome strings must have the first record's length {n}")
    if not (set(basis) <= set(BASIS_LETTERS) and set(bits) <= set("01")):
        raise ValueError("basis letters must be X, Y or Z and outcome bits 0 or 1")
    seed = int(seed_s)
    if not 0 <= seed < 2**64:
        raise ValueError("seed outside the 64-bit range")
    return bytes.fromhex(xhex) if m else b"", float(tau_s), int(omega_s), basis, bits, seed


def read_shadows(fileobj: IO[str]) -> TrainingSet:
    """Parse the interchange format; a malformed line raises ConfigError
    naming it."""
    meta = {"model": "", "lattice": "", "mode": "steady_state", "seed": 0, "m": 0}
    records = []
    for lineno, line in enumerate(fileobj, 1):
        line = line.rstrip("\n")
        try:
            if line.startswith("#"):
                parts = line[1:].strip().split(" ", 1)
                if len(parts) == 2 and parts[0] in meta:
                    key, value = parts
                    meta[key] = int(value) if key in ("m", "seed") else value
            elif line:
                n = len(records[0][3]) if records else None
                records.append(_parse_record(line, meta["m"], n))
        except ValueError as exc:
            raise ConfigError(f"shadows line {lineno}: {exc}") from None
    xs, taus, omegas, basis_rows, bit_rows, seeds = zip(*records) if records else [()] * 6
    n = len(basis_rows[0]) if records else 0
    return TrainingSet(
        bases=_ascii_offsets(basis_rows, n, "X"),
        outcomes=1 - 2 * _ascii_offsets(bit_rows, n, "0"),
        X=np.frombuffer(b"".join(xs), dtype="<f8").reshape(len(xs), meta["m"]),
        taus=taus, omegas=omegas, seeds=seeds,
        model_name=meta["model"], lattice_json=meta["lattice"], mode=meta["mode"],
        seed=meta["seed"],
    )
