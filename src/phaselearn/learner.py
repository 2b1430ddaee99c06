"""Nearest-patch learning: plan the run, select training cells, predict.

The planner turns target accuracies (epsilon, delta, delta') and model
constants into the run prescription (r, gamma, q, t_eps, N):

    r     = max(1, ceil(2 xi log(4 c' |A| J (D-1)! (2 xi)^(D-1) D^(D-1) [f(n)]
                         / (eps e^(1/2xi) (1 - e^(-1/2xi))))))
    gamma = eps / (2 [2(r+k0)]^D J ell)            (steady / general)
          = eps / (3 [2(r+k0)]^D J (ell+1))        (slow mixing)
    q     = ceil((8 12^k0 / (3 eps^2)) log(n^k0 2^(k0+1) / delta'))
    t_eps = (1/gamma') log(6 c' |A|^kappa / eps)   (general)
          = (1/gamma') log(3 f(n) / eps)           (slow mixing)
    m_r   = [2(r+r0+k0)]^D ell
    N     = q (2/gamma)^m_r (log(M/delta) + m_r log(2/gamma) + log q)
    N     = W q (t_eps/gamma) (2/gamma)^m_r
            (log(M/delta) + m_r log(2/gamma) + log(t_eps/gamma) + log q)
                                                   (general / slow mixing)

f(n) enters r, t_eps only in slow-mixing mode.  |A| is the l1 ball volume of
radius k0.  All logs are natural.

Prediction restricts both the target point and the training tags to the
coordinates of Lindbladian terms meeting the r-enlarged observable support,
keeps the samples within l-infinity distance gamma (and within gamma in time
at a finite target time: a steady state is tau = inf, where time does not
count), and takes a median of means of the per-snapshot estimates.  An empty
cell degrades to the single nearest sample with a warning.  Ties break toward
the lowest sample index everywhere.

The training set streams past in chunks.  :class:`CellFold` keeps, per test
point and term, only the cell's rows and their snapshot codes on the term's
support and the running nearest samples before the cell's first row; per
term, the estimate of each code held; per term's patch, the occupied
gamma-cells' counts, which :func:`coverage_report` reads.  The cell of the
first s samples is the whole cell's rows below s, so one pass answers every
prefix (the run and every sweep size), and memory does not grow with N beyond
the cells themselves.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .config import JSON_TYPES, MODES
from .errors import ConfigError, EmptyCellError, PlanInfeasibleError
from .lattice import LocalObservable, enlarge, l1_ball_volume
from .lindblad import ParamLindbladian
from .shadows import (
    MAX_LOCAL_SITES,
    TrainingSet,
    median_of_means,
    mom_batch_count,
    required_shadow_count,
    snapshot_local_matrix,
)

__all__ = [
    "PlanConstants",
    "LearnerPlan",
    "Prediction",
    "plan",
    "restricted_distance",
    "CellFold",
    "predict",
    "coverage_report",
]


@dataclass(frozen=True)
class PlanConstants:
    """Structural and calibrated constants feeding the plan formulas.

    J, ell, r0, D, n, m come from the model; xi, gamma_prime, c_prime are
    measured by the diagnostics (1/xi = min(fitted mixing rate, fitted spatial
    rate / 2)); kappa is the poly(|A|) exponent (default 1); f_n is the
    slow-mixing prefactor.
    """

    J: float
    ell: int
    r0: int
    D: int
    n: int
    m: int
    k0: int = 1
    M: int = 1
    W: int = 1
    xi: float = 1.0
    gamma_prime: float = 1.0
    c_prime: float = 1.0
    kappa: float = 1.0
    f_n: float | None = None

    @property
    def ball_volume_k0(self) -> int:
        return l1_ball_volume(self.k0, self.D)

    def m_r(self, r: int) -> int:
        """Coordinates a radius-r patch may meet: [2(r + r0 + k0)]^D ell."""
        return (2 * (r + self.r0 + self.k0)) ** self.D * self.ell


@dataclass(frozen=True)
class LearnerPlan:
    epsilon: float
    delta: float
    delta_prime: float
    mode: str
    r: int
    gamma: float
    q: int
    t_eps: float | None
    N: int
    N_log2: float
    capped: bool
    n_cap: int | None
    mom_batches: int
    constants: PlanConstants

    @property
    def m_r(self) -> int:
        return self.constants.m_r(self.r)

    def to_json(self) -> str:
        obj = asdict(self)
        obj["m_r"] = self.m_r
        obj["t_eps"] = None if self.t_eps is None else float(self.t_eps)
        return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)

    @staticmethod
    def from_json(text: str) -> "LearnerPlan":
        """The plan that :meth:`to_json` wrote; a value of the wrong JSON type
        or out of range is a ConfigError naming the ``plan.json`` field."""
        obj = json.loads(text)
        obj.pop("m_r", None)
        consts = obj.pop("constants")
        _check_json_types(PlanConstants, consts, "constants.")
        _check_json_types(LearnerPlan, obj, "")
        p = LearnerPlan(constants=PlanConstants(**consts), **obj)
        _check_ranges(p)
        return p


# the JSON type of a plan.json value, by its field's annotation
_FIELD_KINDS = {"float": "number", "int": "integer", "str": "string", "bool": "boolean",
                "float | None": "number or null", "int | None": "integer or null"}


def _check_json_types(cls, obj: dict, prefix: str) -> None:
    for f in fields(cls):
        kind = _FIELD_KINDS.get(f.type)
        if kind is not None and f.name in obj and not JSON_TYPES[kind](obj[f.name]):
            raise ConfigError(f"plan.json {prefix}{f.name}: expected {kind}, "
                              f"got {json.dumps(obj[f.name])}")


# the range of a plan.json value the predict stage reads
_FIELD_RANGES = {
    "gamma": (lambda v: 0 < v < math.inf, "a positive number"),
    "r": (lambda v: v >= 0, "a non-negative integer"),
    "delta_prime": (lambda v: 0 < v < 1, "a number in (0, 1)"),
    "N": (lambda v: v >= 1, "a positive integer"),
    "q": (lambda v: v >= 1, "a positive integer"),
}


def _check_ranges(p: "LearnerPlan") -> None:
    """Each value of ``_FIELD_RANGES`` in its range, and t_eps null exactly in
    steady-state mode (a steady state is tau = inf), a positive number in the
    others."""
    for name, (ok, kind) in _FIELD_RANGES.items():
        if not ok(getattr(p, name)):
            raise ConfigError(f"plan.json {name}: expected {kind}, "
                              f"got {json.dumps(getattr(p, name))}")
    steady = p.mode == "steady_state"
    if not (p.t_eps is None if steady else p.t_eps is not None and 0 < p.t_eps < math.inf):
        raise ConfigError(f"plan.json t_eps is {json.dumps(p.t_eps)}, but plan.json mode "
                          f"{p.mode!r} needs {'null' if steady else 'a positive number'}")


def plan(epsilon: float, delta: float, delta_prime: float,
         constants: PlanConstants, mode: str = "steady_state",
         n_cap: int | None = None, r: int | None = None,
         gamma: float | None = None, n: int | None = None) -> LearnerPlan:
    """Derive (r, gamma, q, t_eps, N) from the closed-form prescriptions.

    A given ``r`` replaces the derived patch radius, and gamma is derived at
    that r unless ``gamma`` is given too; m_r, the prescribed N and the
    regime checks are all taken at these effective values.  N is ``n`` when
    given, else the prescription capped at ``n_cap``; ``capped`` records that
    N falls short of the prescription, whose size N_log2 still states
    (coverage_report quantifies the shortfall).

    Raises PlanInfeasibleError when the constants sit outside the
    prescription's regime, when epsilon is so small that q overflows a
    float, or when the prescribed N overflows 2**63 and neither ``n`` nor
    ``n_cap`` bounds it.
    """
    for name, val in (("epsilon", epsilon), ("delta", delta), ("delta_prime", delta_prime)):
        if not (0.0 < val < 1.0):
            raise ValueError(f"{name} must lie in (0, 1), got {val}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    c = constants
    if c.J <= 0 or c.xi <= 0 or c.gamma_prime <= 0 or c.c_prime <= 0:
        raise ValueError("J, xi, gamma_prime, c_prime must be positive")
    slow = mode == "slow_mixing"
    if slow and (c.f_n is None or c.f_n <= 0):
        raise ValueError("slow-mixing mode requires a positive f_n")

    # q before r: 1 / epsilon**2 overflows at a larger epsilon than r's log does
    try:
        q = required_shadow_count(epsilon, delta_prime, c.k0, c.n)
    except (OverflowError, ZeroDivisionError):
        raise PlanInfeasibleError(f"per-cell snapshot count q overflows a float at "
                                  f"epsilon = {epsilon!r}") from None

    A = c.ball_volume_k0
    if r is None:
        two_xi = 2.0 * c.xi
        numer = (4.0 * c.c_prime * A * c.J * math.factorial(c.D - 1)
                 * two_xi ** (c.D - 1) * float(c.D) ** (c.D - 1))
        if slow:
            numer *= c.f_n
        denom = epsilon * math.exp(1.0 / two_xi) * (1.0 - math.exp(-1.0 / two_xi))
        r = max(1, math.ceil(two_xi * math.log(numer / denom)))
    r = int(r)

    if gamma is None:
        if slow:
            gamma = epsilon / (3.0 * (2.0 * (r + c.k0)) ** c.D * c.J * (c.ell + 1))
        else:
            gamma = epsilon / (2.0 * (2.0 * (r + c.k0)) ** c.D * c.J * c.ell)
        gamma = min(gamma, 1.0 - 1e-12)
    gamma = float(gamma)

    m_r = c.m_r(r)

    t_eps: float | None = None
    if mode == "general_phase":
        t_eps = (1.0 / c.gamma_prime) * math.log(6.0 * c.c_prime * A**c.kappa / epsilon)
    elif slow:
        t_eps = (1.0 / c.gamma_prime) * math.log(3.0 * c.f_n / epsilon)

    log_ratio = math.log(2.0 / gamma)
    bracket = math.log(c.M / delta) + m_r * log_ratio + math.log(q)
    log2_n = math.log2(q) + m_r * math.log2(2.0 / gamma)
    if mode != "steady_state":
        assert t_eps is not None
        if t_eps <= gamma:
            raise PlanInfeasibleError(
                f"time horizon t_eps = {t_eps:.3g} does not exceed the cell "
                f"width gamma = {gamma:.3g}; constants sit outside the "
                "prescription's regime"
            )
        bracket += math.log(t_eps / gamma)
        log2_n += math.log2(c.W) + math.log2(t_eps / gamma)
    if bracket <= 0:
        raise PlanInfeasibleError("sample-count bracket is nonpositive; targets/constants "
                                  "outside the prescription's regime")
    log2_n += math.log2(bracket)

    if log2_n < 63.0:
        scale = q * (2.0 / gamma) ** m_r
        if mode != "steady_state":
            scale *= c.W * (t_eps / gamma)
        n_exact = max(1, math.ceil(scale * bracket))
    else:
        n_exact = None

    if n is not None:
        n_used = int(n)
    elif n_cap is not None and (n_exact is None or n_exact > n_cap):
        n_used = int(n_cap)
    elif n_exact is not None:
        n_used = n_exact
    else:
        raise PlanInfeasibleError(f"prescribed N ~ 2**{log2_n:.1f} exceeds 2**63")

    return LearnerPlan(
        epsilon=epsilon, delta=delta, delta_prime=delta_prime, mode=mode,
        r=r, gamma=gamma, q=q, t_eps=t_eps, N=n_used, N_log2=log2_n,
        capped=n_exact is None or n_used < n_exact, n_cap=n_cap,
        mom_batches=mom_batch_count(delta_prime), constants=c,
    )


def restricted_distance(x_values: np.ndarray, t: float, tags: np.ndarray,
                        taus: np.ndarray) -> np.ndarray:
    """The distance of each row from the target (x, t).

    ``tags`` holds the rows' tags on the patch coordinates and ``x_values``
    the target's.  The distance of row i is max_j |tags[i, j] - x_j|, and
    also |taus[i] - t| when t is finite: a steady state is t = inf, where time
    does not count.
    """
    dist = np.abs(tags - x_values).max(axis=1, initial=0.0)
    if math.isfinite(t):
        dist = np.maximum(dist, np.abs(taus - t))
    return dist


@dataclass(frozen=True)
class Prediction:
    """Estimator output: total value, per-term contributions, provenance."""

    value: float
    per_term: tuple[float, ...]
    counts: tuple[int, ...]
    warnings: tuple[str, ...]


class _Cell:
    """The cell of the target (x, t) for one term, folded a chunk at a time,
    so that it answers every prefix of the training set: its rows, ascending,
    and their snapshot codes on the term's sites, one array per chunk; and,
    over the rows before its first row, the strict running minima of the
    distance as (distance, row, code), the nearest sample of every prefix the
    cell misses.  ``x`` holds the target's patch coordinates."""

    def __init__(self, x: np.ndarray, t: float):
        self.x, self.t = x, t
        self.rows: list[np.ndarray] = []
        self.codes: list[np.ndarray] = []
        self.nearest: list[tuple] = []

    def add(self, lo: int, tags: np.ndarray, taus: np.ndarray, codes: np.ndarray,
            gamma: float) -> np.ndarray:
        """Fold in the chunk of rows from ``lo`` on; returns the chunk's rows kept."""
        dist = restricted_distance(self.x, self.t, tags, taus)
        cell = kept = np.flatnonzero(dist <= gamma)
        if not self.rows:
            # rows before the cell's first: a strict < keeps the lowest row on ties
            head = dist[:cell[0] if cell.size else len(dist)]
            best = self.nearest[-1][0] if self.nearest else math.inf
            below = np.minimum.accumulate(np.r_[best, head])[:-1]  # min(best, head[:i])
            new = np.flatnonzero(head < below)
            self.nearest += [(float(head[i]), lo + int(i), codes[i]) for i in new]
            kept = np.r_[new, cell]
        if cell.size:
            self.rows.append(lo + cell)
            self.codes.append(codes[cell])
        return kept


class CellFold:
    """The cells of every test point (X[i], taus[i]) and term, and the sample
    count of each occupied gamma-cell of every term's patch, folded over a
    training set one chunk at a time (:meth:`add`); a whole training set
    held in memory is its one chunk.

    A term's patch is its support enlarged by the plan's radius r, and its
    cell is the rows within :func:`restricted_distance` gamma of the point on
    the patch's coordinates.  The cell of the first s samples is the whole
    cell's rows below s, so :func:`predict` answers every prefix.

    A row's code on a term is its (basis, outcome) pairs on the term's sites
    as base-6 digits, the first site's most significant; the term's table
    holds the estimate of every code a cell holds, evaluated once per run.

    A row's gamma-cell is its cell index on each patch coordinate and on the
    time axis, T = t_eps long, or one cell (T = gamma) for a steady state.
    Only occupied cells are counted: a patch keeps each occupied cell's index
    row and count, and a chunk's rows merge in with them by one np.unique
    over their int64 cell codes (:func:`_cell_codes`), however many cells
    there are.
    """

    def __init__(self, observables: Sequence[LocalObservable], X: np.ndarray,
                 taus: np.ndarray, plan_: LearnerPlan, family: ParamLindbladian):
        self.span = plan_.gamma if plan_.t_eps is None else plan_.t_eps
        if not (plan_.gamma > 0 and self.span > 0):
            raise ValueError("gamma must be positive, and so must the time horizon t_eps")
        self.observables = list(observables)
        wide = max((len(obs.support) for obs in self.observables), default=0)
        if wide > MAX_LOCAL_SITES:
            raise ValueError(f"region of {wide} sites exceeds local cap {MAX_LOCAL_SITES}")
        self.gamma, self.delta_prime = plan_.gamma, plan_.delta_prime
        self.n_samples = 0
        self.patches = [enlarge(family.lattice, obs.support, plan_.r) for obs in self.observables]
        self.indices = [family.coords_for_region(patch) for patch in self.patches]
        self.cells = [[_Cell(x[indices], float(t)) for indices in self.indices]
                      for x, t in zip(map(family.as_values, X), taus)]
        # per term: the estimate of each code, nan until a cell holds the code
        self.tables = [np.full(6 ** len(obs.support), np.nan) for obs in self.observables]
        # per patch: its occupied gamma-cells' index rows and their counts
        self.coverage = [(np.empty((0, indices.size + 1)), np.empty(0, np.int64))
                         for indices in self.indices]

    def add(self, chunk: TrainingSet) -> None:
        """Fold in the next chunk of the training set."""
        axis_cells, time_cells = math.ceil(2.0 / self.gamma), math.ceil(self.span / self.gamma)
        tkeys = np.minimum(time_cells - 1, np.floor(chunk.taus / self.gamma))
        for j, (obs, indices, table) in enumerate(zip(self.observables, self.indices,
                                                      self.tables)):
            tags = chunk.X[:, indices]  # gathered once for every test point and the coverage
            if self.cells:  # a fold without test points reads no snapshots
                sites, place = list(obs.support.sites), 6 ** np.arange(len(obs.support))[::-1]
                pairs = 2 * chunk.bases[:, sites].astype(np.int64) + (chunk.outcomes[:, sites] < 0)
                codes = (pairs @ place).astype(np.uint16)  # 6^MAX_LOCAL_SITES < 2^16
                held = np.zeros(len(table), dtype=bool)
                for cells in self.cells:
                    held[codes[cells[j].add(self.n_samples, tags, chunk.taus, codes,
                                            self.gamma)]] = True
                for code in np.flatnonzero(held & np.isnan(table)):
                    digits = code // place % 6
                    table[code] = float(np.real(np.trace(obs.matrix @ snapshot_local_matrix(
                        digits // 2, 1 - 2 * (digits % 2), range(len(sites))))))
            # the time column keys a coordinate-free patch too
            old_index, old_counts = self.coverage[j]
            index = np.concatenate([old_index, np.column_stack([
                np.minimum(axis_cells - 1, np.floor((tags + 1.0) / self.gamma)), tkeys])])
            occupied, inverse = np.unique(
                _cell_codes(index, [axis_cells] * indices.size + [time_cells]),
                return_inverse=True)
            row_of = np.empty(len(occupied), dtype=np.intp)  # a row of each cell: any will do
            row_of[inverse] = np.arange(len(index))
            counts = np.concatenate([old_counts, np.ones(len(chunk), dtype=np.int64)])
            self.coverage[j] = index[row_of], np.bincount(inverse, counts).astype(np.int64)
        self.n_samples += len(chunk)


def _cell_codes(index: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """One int64 code per row of ``index`` (column c: integer cell indices
    below radices[c]), equal exactly for equal rows: the row in mixed radix.
    Before a factor that would overflow int64 the code so far is renumbered
    densely by np.unique, and so is a column whose factor still would or
    whose indices pass 2^53, where floats stop being consecutive integers."""
    code, size = np.zeros(len(index), dtype=np.int64), 1
    for column, radix in zip(index.T, radices):
        if size * radix >= 2**63:
            values, code = np.unique(code, return_inverse=True)
            size = len(values)
        if radix > 2**53 or size * radix >= 2**63:
            values, column = np.unique(column, return_inverse=True)
            radix = len(values)
        code = code * radix + column.astype(np.int64)
        size *= radix
    return code


def predict(fold: CellFold, point: int, size: int | None = None) -> Prediction:
    """Nearest-patch median-of-means prediction of sum_i tr[O_i rho(x, t)] at
    the fold's test point ``point``, from the first ``size`` samples folded
    (all of them when None; a size past their number is all of them too).

    Per term: the cell's inverse-channel estimates and their median of means.
    An empty cell falls back to the single nearest sample and is flagged.
    """
    if fold.n_samples == 0:
        raise EmptyCellError("training set is empty")
    if size is not None and size < 1:
        raise ValueError(f"a prediction needs at least 1 sample, got size {size}")
    limit = fold.n_samples if size is None else size
    per_term, counts, warnings = [], [], []
    for obs, cell, table in zip(fold.observables, fold.cells[point], fold.tables):
        k = int(np.searchsorted(np.concatenate(cell.rows), limit)) if cell.rows else 0
        if k:
            vals = table[np.concatenate(cell.codes)[:k]]
        else:
            # row 0 is in the cell or the first running minimum
            dist, row, code = next(m for m in reversed(cell.nearest) if m[1] < limit)
            vals = table[[code]]
            warnings.append(f"empty cell for {obs.label or obs.support.sites}; "
                            f"nearest sample {row} at distance {dist:.3g}")
        per_term.append(median_of_means(vals, mom_batch_count(fold.delta_prime, len(vals))))
        counts.append(len(vals))
    return Prediction(float(sum(per_term)), tuple(per_term), tuple(counts), tuple(warnings))


def coverage_report(fold: CellFold, q: int = 1) -> dict:
    """The ``coverage.json`` document: the occupancy of each term's patch's
    gamma-cells in the training set ``fold`` has folded.

    A cell counts as covered when at least q samples land in it.  Unoccupied
    cells never qualify, so the exact fraction only needs the occupied cells'
    counts even when the cell count is astronomically large; a cell count past
    exp(700) is null and its fraction 0.  The reported failure bound is
    M exp(-N (gamma/2)^m_r (gamma/T) + m_r log(2/gamma) + log(T/gamma)).
    """
    gamma, span, N = fold.gamma, fold.span, fold.n_samples
    axis_cells, time_cells = math.ceil(2.0 / gamma), math.ceil(span / gamma)
    entries = []
    M = max(1, len(fold.patches))
    for patch, indices, (cells, totals) in zip(fold.patches, fold.indices, fold.coverage):
        m_r = int(indices.size)
        covered = int(np.count_nonzero(totals >= q))
        log_total = m_r * math.log(axis_cells) + math.log(time_cells)
        if log_total < 45.0:
            total = float(axis_cells**m_r * time_cells)
        elif log_total < 700.0:
            total = math.exp(log_total)
        else:
            total = None
        cell_prob_log = m_r * math.log(gamma / 2.0) + math.log(gamma / span)
        exponent = (-N * math.exp(cell_prob_log) + m_r * math.log(2.0 / gamma)
                    + math.log(span / gamma))
        entries.append({
            "sites": list(patch.sites),
            "m_r": m_r,
            "total_cells": total,
            "occupied": len(cells),
            "covered": covered,
            "fraction": 0.0 if total is None else covered / total,
            "failure_bound": min(1.0, M * math.exp(min(700.0, exponent))),
        })
    return {"gamma": gamma, "q": q, "n_samples": N, "entries": entries,
            "min_fraction": min((e["fraction"] for e in entries), default=0.0)}
