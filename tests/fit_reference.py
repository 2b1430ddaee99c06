"""The one-resample-at-a-time decay fit that ``phaselearn.diagnostics``
replaced, kept as the reference its stacked fit is tested against.

Each bootstrap resample draws its indices alone and runs the full 2-D fit,
prefactor and R^2 included, of which only the rate is read; a resample with a
single distinct abscissa or an exactly singular normal matrix is dropped.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from phaselearn.diagnostics import FLOOR, N_BOOT


def wls_logfit(s: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """Weighted least squares of log v = log a - rate * s; returns (rate, a, R^2)."""
    w = np.clip(v, FLOOR, None) ** 2
    y = np.log(v)
    X = np.vstack([np.ones_like(s), -s]).T
    WX = X * w[:, None]
    coef = np.linalg.solve(X.T @ WX, WX.T @ y)
    resid = y - X @ coef
    ybar = np.sum(w * y) / np.sum(w)
    ss_res = float(np.sum(w * resid**2))
    ss_tot = float(np.sum(w * (y - ybar) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[1]), float(math.exp(coef[0])), r2


def fit_decay(abscissa: Sequence[float], values: Sequence[float], boot_seed: int = 0,
              excluded: Sequence[int] = ()) -> tuple[float, float, float, tuple[float, float]]:
    """(rate, prefactor, r_squared, rate_ci) of ``diagnostics.fit_decay``,
    one resample at a time."""
    s = np.asarray(abscissa, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = np.ones(len(v), dtype=bool)
    keep[list(excluded)] = False
    mask = keep & np.isfinite(v) & (v > FLOOR)
    sm, vm = s[mask], v[mask]
    n_distinct = len(np.unique(sm))
    rate, pref, r2, ci = 0.0, 0.0, 0.0, (0.0, 0.0)
    if n_distinct == 1:
        pref = float(vm.max())
    elif n_distinct > 1:
        rate, pref, r2 = wls_logfit(sm, vm)
        rng = np.random.default_rng(boot_seed)
        boots = []
        for _ in range(N_BOOT):
            idx = rng.integers(0, len(sm), size=len(sm))
            if len(np.unique(sm[idx])) < 2:
                continue
            try:
                b_rate, _, _ = wls_logfit(sm[idx], vm[idx])
            except np.linalg.LinAlgError:  # an exactly singular normal matrix
                continue
            boots.append(b_rate)
        if boots:
            lo, hi = np.percentile(boots, [2.5, 97.5])
        else:
            lo, hi = rate, rate
        ci = (float(lo), float(hi))
    return rate, pref, r2, ci
