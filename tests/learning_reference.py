"""The whole-array train and predict stages that the chunked ones replaced,
kept as the slow reference the chunk-at-a-time stages are tested against.

The train stage here draws every tag, state and snapshot of the training set
in one pass and writes it with the record-at-a-time reference writer; the
predictor selects each cell over every row at once and evaluates its
estimates by :func:`local_estimates`, a sweep size takes a prefix copy of the
columns, and the coverage counts bin every row's float cell indices in one
np.unique, whatever their size.  Nothing
here reads ``shadows._CHUNK_ROWS``.
"""

from __future__ import annotations

import io
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

import shadows_reference
from phaselearn.errors import EmptyCellError
from phaselearn.lattice import enlarge
from phaselearn.learner import Prediction
from phaselearn.lindblad import steady_states
from phaselearn.models import generate_state
from phaselearn.shadows import (
    TrainingSet,
    _stream_rows,
    median_of_means,
    mom_batch_count,
    snapshot_local_matrix,
)

_COLUMNS = ("bases", "outcomes", "X", "taus")


def joined(chunks) -> TrainingSet:
    """The chunks as one TrainingSet, rows in order (no rows: empty columns)."""
    chunks = list(chunks)
    if not chunks:
        return TrainingSet(np.empty((0, 0)), np.empty((0, 0)), np.empty((0, 0)), [])
    return TrainingSet(*(np.concatenate([getattr(c, name) for c in chunks])
                         for name in _COLUMNS))


def sample_parameters(model, N: int, t_eps: float | None, seed: int):
    """All N points from one generator: the tags, then the taus."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(N, model.family.m))
    if t_eps is None:
        return xs, np.full(N, np.inf)
    return xs, rng.uniform(0.0, t_eps, size=N)


def training_states(model, X: np.ndarray, taus: np.ndarray, key: int):
    """Every snapshot at once: the oracle's Bloch vectors of all N points and
    all N stream rows compared in one pass, or each state generated (steady
    states through ``steady_states``) and measured alone with its stream row
    by the reference sampler."""
    if model.oracle is not None:
        bloch = shadows_reference.bloch_vectors(model.oracle, X, taus)
        bases, us = _stream_rows(key, 0, len(X), bloch.shape[1])
        p_plus = 0.5 * (1.0 + np.take_along_axis(bloch, bases[:, :, None], axis=2)[..., 0])
        return bases, np.where(us < p_plus, 1, -1).astype(np.int8)
    n_sys = model.family.n_system
    states = (steady_states(model.family, X) if np.isinf(taus).all() else
              (generate_state(model, x, tau) for x, tau in zip(X, taus.tolist())))
    rows = [shadows_reference.measure_snapshot(rho, key, row=i, n_system=n_sys)
            for i, rho in enumerate(states)]
    return (np.array([b for b, _ in rows], dtype=np.int8).reshape(len(X), n_sys),
            np.array([o for _, o in rows], dtype=np.int8).reshape(len(X), n_sys))


def training_bytes(cfg, model, p, sampling_seed: int, measurement_key: int) -> bytes:
    """The training.shadows bytes of the whole training set, drawn at once."""
    X, taus = sample_parameters(model, p.N, p.t_eps, sampling_seed)
    bases, outcomes = training_states(model, X, taus, measurement_key)
    header = {"model": model.name, "lattice": cfg.lattice.to_json(), "mode": cfg.mode,
              "seed": cfg.seed, "omega": model.omega, "m": model.family.m,
              "n": model.family.n_system}
    buf = io.BytesIO()
    shadows_reference.write_shadows(buf, header, TrainingSet(bases, outcomes, X, taus))
    return buf.getvalue()


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


def select_cell(x_values, t, training: TrainingSet, indices, gamma):
    """The cell over every row: rows within gamma of (x, t) on ``indices``, or
    the nearest row alone and its distance."""
    if len(training) == 0:
        raise EmptyCellError("training set is empty")
    dist = np.abs(training.X[:, indices] - x_values[indices]).max(axis=1, initial=0.0)
    if math.isfinite(t):
        dist = np.maximum(dist, np.abs(training.taus - t))
    cell = np.flatnonzero(dist <= gamma)
    if cell.size:
        return cell, None
    idx = int(np.argmin(dist))
    return np.array([idx]), float(dist[idx])


def predict(observables: Sequence, x, t: float, training: TrainingSet, plan_,
            family) -> Prediction:
    """The nearest-patch median of means at (x, t) from the whole training set."""
    x_values = family.as_values(x)
    per_term, counts, warnings = [], [], []
    for obs in observables:
        indices = family.coords_for_region(enlarge(family.lattice, obs.support, plan_.r))
        cell, dist = select_cell(x_values, t, training, indices, plan_.gamma)
        if dist is not None:
            warnings.append(f"empty cell for {obs.label or obs.support.sites}; "
                            f"nearest sample {cell[0]} at distance {dist:.3g}")
        vals = local_estimates(training.bases[cell], training.outcomes[cell],
                               obs.support.sites, obs.matrix)
        per_term.append(median_of_means(vals, mom_batch_count(plan_.delta_prime, len(vals))))
        counts.append(len(vals))
    return Prediction(float(sum(per_term)), tuple(per_term), tuple(counts), tuple(warnings))


def row_slice(training: TrainingSet, lo: int, hi: int) -> TrainingSet:
    """Rows lo..hi-1 as a TrainingSet: a sweep size's prefix copy, or a chunk."""
    return replace(training, **{name: getattr(training, name)[lo:hi] for name in _COLUMNS})


def coverage_cells(training: TrainingSet, gamma: float, regions, family,
                   t_eps: float | None = None) -> list[tuple[int, np.ndarray]]:
    """Per region, the occupied cell count and the sorted per-cell sample
    counts, from one np.unique over every row's float cell indices."""
    span = gamma if t_eps is None else t_eps
    axis_cells, time_cells = math.ceil(2.0 / gamma), math.ceil(span / gamma)
    tkeys = np.minimum(time_cells - 1, np.floor(training.taus / gamma))
    out = []
    for region in regions:
        indices = family.coords_for_region(region)
        keys = np.minimum(axis_cells - 1, np.floor((training.X[:, indices] + 1.0) / gamma))
        _, counts = np.unique(np.column_stack([keys, tkeys]), axis=0, return_counts=True)
        out.append((len(counts), np.sort(counts)))
    return out
