"""Numerical checks of the structural assumptions behind the learner.

Five scans, each producing a :class:`DecayFit`:

* ``lieb_robinson_scan``  - operator-norm cost of truncating the generator to
  an enlarged region, as a function of the enlargement radius.
* ``mixing_scan``         - decay of a local expectation toward its
  steady-state value, as a function of time.
* ``ltqo_scan``           - local distinguishability of the steady states of
  the full and the regionally localized generators.
* ``compatibility_scan``  - a nested-region consistency check: the steady
  state of a larger region, restricted and evolved under a smaller region's
  generator, converges locally to the smaller region's steady state.
* ``stability_scan``      - response of an expectation value to a single-term
  perturbation placed at increasing distance from the observable.

The radius scans evaluate each distinct hybrid point ``localize(family, x,
x', patch)`` once per call and never evaluate x again (its value is exactly
0); the time scans evolve from one grid time to the next.

Fits are weighted log-linear least squares (weights proportional to the
squared values, floor-clipped) on points above the numerical floor, with
bootstrap confidence intervals.  Envelope comparisons are one-sided: measured
curve below the certified-constant envelope, never asserted tight.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateSteadyStateError, NumericalError
from .lattice import (
    LocalObservable,
    Region,
    check_nesting,
    embed,
    enlarge,
    l1_ball_volume,
)
from .lindblad import (
    DensityMatrix,
    ParamLindbladian,
    Superoperator,
    assemble,
    evolve,
    heisenberg_evolve,
    localize,
    partial_trace,
    steady_state,
    subfamily,
    trace_norm,
)

__all__ = [
    "SCAN_SITE_CAP",
    "DEFAULT_T_GRID",
    "DecayFit",
    "fit_decay",
    "certify_lr_constants",
    "lieb_robinson_scan",
    "mixing_scan",
    "ltqo_scan",
    "compatibility_scan",
    "stability_scan",
    "calibrate_constants",
]

SCAN_SITE_CAP = 8
DEFAULT_T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
FLOOR = 1e-12
N_BOOT = 200  # bootstrap resamples per fit
MU = 1.0  # spatial decay rate at which the Lieb-Robinson velocity is certified
C_POLY = 1.0  # prefactor of the poly(|A|) envelope term
KAPPA = 1.0  # exponent of the poly(|A|) envelope term


@dataclass(frozen=True)
class DecayFit:
    """A decay curve with its weighted log-linear fit and bootstrap CI."""

    abscissa_label: str
    abscissa: tuple[float, ...]
    values: tuple[float, ...]
    errors: tuple[float, ...]
    rate: float
    prefactor: float
    r_squared: float
    rate_ci: tuple[float, float]
    n_boot: int
    envelope: tuple[float, ...] | None = None
    envelope_ok: bool | None = None
    all_below_floor: bool = False
    excluded: tuple[int, ...] = ()

    @property
    def passes(self) -> bool:
        """Positive decay certified: lower CI bound > 0, or an identically-zero curve."""
        return self.all_below_floor or self.rate_ci[0] > 0.0

    def to_json_dict(self) -> dict:
        """The fields and ``passes``; a float that is not finite (an excluded
        NaN) is written as null, since JSON has no NaN or Infinity."""
        d = json.loads(json.dumps(asdict(self)), parse_constant=lambda name: None)
        d["passes"] = self.passes
        return d


def _wls_logfit(S: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Weighted least squares of log V = log a - rate S, weights V^2 clipped
    at FLOOR, one fit per row of the (fits, points) blocks in one stacked
    solve; returns the (fits, 2) coefficients (log a, rate) of the rows whose
    normal matrix is not exactly singular.

    Each fit's products keep the operand layouts of a lone 2-D fit
    (``X.T @ WX`` and ``WX.T @ y``), which fixes their roundoff.  Only when
    the stacked solve raises LinAlgError are the rows solved one at a time,
    each to the same bytes as in the stacked solve, and the singular ones
    left out.
    """
    Xt = np.stack([np.ones_like(S), -S], axis=1)
    WX = Xt.transpose(0, 2, 1) * (np.clip(V, FLOOR, None) ** 2)[:, :, None]
    A, b = Xt @ WX, (np.log(V)[:, None, :] @ WX).transpose(0, 2, 1)
    with contextlib.suppress(np.linalg.LinAlgError):
        return np.linalg.solve(A, b)[:, :, 0]
    rows = []
    for i in range(len(A)):
        with contextlib.suppress(np.linalg.LinAlgError):
            rows.append(np.linalg.solve(A[i:i + 1], b[i:i + 1])[0, :, 0])
    return np.reshape(rows, (-1, 2))


def _r_squared(s: np.ndarray, v: np.ndarray, coef: np.ndarray) -> float:
    """Weighted R^2 of the log-linear fit ``coef`` = (log a, rate) to (s, v)."""
    w = np.clip(v, FLOOR, None) ** 2
    y = np.log(v)
    resid = y - np.vstack([np.ones_like(s), -s]).T @ coef
    ybar = np.sum(w * y) / np.sum(w)
    ss_res = float(np.sum(w * resid**2))
    ss_tot = float(np.sum(w * (y - ybar) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def fit_decay(abscissa: Sequence[float], values: Sequence[float],
              label: str = "time", boot_seed: int = 0,
              envelope: Sequence[float] | None = None,
              excluded: Sequence[int] = ()) -> DecayFit:
    """Fit an exponential decay to the points above the numerical floor.

    Excluded indices (e.g. degenerate-kernel points) never enter the fit.
    With no point above the floor the curve is flagged ``all_below_floor`` and
    the rate is reported as 0 (a finite placeholder).  The values carry no
    error bars: ``errors`` records zeros.

    The fit is :func:`_wls_logfit` on the L kept points.  Its rate CI is the
    2.5 and 97.5 percentiles of the rates of N_BOOT resamples, whose indices
    are one (N_BOOT, L) block drawn from ``boot_seed``; resamples with a
    single distinct abscissa are dropped, and the rest are fitted in one
    stacked solve, which drops those whose normal matrix is exactly singular
    too.  Only the full fit computes a prefactor and R^2.  A curve with a
    single distinct abscissa, or whose full fit's normal matrix is exactly
    singular, gets no fit: rate, R^2 and CI are 0, so it does not pass.
    """
    s = np.asarray(abscissa, dtype=float)
    v = np.asarray(values, dtype=float)
    s_t, v_t = (tuple(map(float, a)) for a in (s, v))
    e_t = (0.0,) * len(v)
    keep = np.ones(len(v), dtype=bool)
    keep[list(excluded)] = False
    mask = keep & np.isfinite(v) & (v > FLOOR)
    env_ok = None
    if envelope is not None:
        env = np.asarray(envelope, dtype=float)
        env_ok = bool(np.all(v[keep] <= env[keep] + 1e-12))
    env_t = None if envelope is None else tuple(map(float, envelope))
    sm, vm = s[mask], v[mask]
    n_distinct = len(np.unique(sm))
    rate, pref, r2, ci = 0.0, 0.0, 0.0, (0.0, 0.0)
    # no row when the full fit's normal matrix is exactly singular
    full = _wls_logfit(sm[None], vm[None]) if n_distinct > 1 else ()
    if n_distinct == 1:
        pref = float(vm.max())
    elif len(full):
        coef = full[0]
        rate, pref, r2 = float(coef[1]), math.exp(coef[0]), _r_squared(sm, vm, coef)
        idx = np.random.default_rng(boot_seed).integers(0, len(sm), size=(N_BOOT, len(sm)))
        S = sm[idx]
        kept = np.any(S != S[:, :1], axis=1)
        boots = _wls_logfit(S[kept], vm[idx[kept]])[:, 1]
        lo, hi = np.percentile(boots, [2.5, 97.5]) if boots.size else (rate, rate)
        ci = (float(lo), float(hi))
    return DecayFit(label, s_t, v_t, e_t, rate, pref, r2, ci, N_BOOT, env_t, env_ok,
                    all_below_floor=n_distinct == 0, excluded=tuple(excluded))


def certify_lr_constants(family: ParamLindbladian) -> float:
    """Upper-bound the information velocity v from the certified term strengths.

    v(mu) = 2 max_z sum_{terms whose covering ball reaches z}
            J_term |ball(r_term)| e^(mu r_term),  at mu = MU.

    Ancilla terms are charged to their anchor site.  The envelopes decay in
    space at the same rate MU (they stay one-sided upper bounds under this
    choice).  Each site adds its terms in term order, which fixes the float sum.
    """
    lat = family.lattice
    anchor_of = {a.slot: a.anchor for a in family.ancillas}
    totals = np.zeros(lat.n_sites)
    for c, r, strength in zip(family.term_centers, family.term_radii,
                              family.term_strengths):
        reached = lat.distances(anchor_of.get(c, c)) <= r
        totals[reached] += strength * l1_ball_volume(r, lat.dim) * math.exp(MU * r)
    return 2.0 * float(totals.max())


def _scan_observable(family: ParamLindbladian, obs: LocalObservable) -> np.ndarray:
    """``obs`` embedded in the full register of a family within the scan cap."""
    if family.n_total > SCAN_SITE_CAP:
        raise ValueError(f"scans cap the system at {SCAN_SITE_CAP} sites")
    return embed(obs, family.lattice, n_total=family.n_total)


def _hybrid_values(family: ParamLindbladian, x, x_prime, patches: Sequence[Region],
                   value: Callable[[Superoperator], float]) -> list[float]:
    """``value(assemble(family, hyb))`` for the hybrid point of each patch, once
    per distinct point (keyed by its bytes); x itself reads 0 unevaluated."""
    by_point = {family.as_values(x).tobytes(): 0.0}
    values = []
    for patch in patches:
        hyb = localize(family, x, x_prime, patch)
        key = hyb.tobytes()
        if key not in by_point:
            by_point[key] = value(assemble(family, hyb))
        values.append(by_point[key])
    return values


def _evolved_curve(gen: Superoperator, rho0: DensityMatrix, t_grid: Sequence[float],
                   rtol: float, read: Callable[[DensityMatrix], float]) -> np.ndarray:
    """``read(T_t(rho0))`` at each time of the ascending grid, evolving from one
    grid time to the next."""
    out, current, t_prev = [], rho0, 0.0
    for t in t_grid:
        current = evolve(gen, current, t - t_prev, rtol=rtol)
        t_prev = t
        out.append(read(current))
    return np.asarray(out)


def lieb_robinson_scan(family: ParamLindbladian, x, x_prime, obs: LocalObservable,
                       t: float = 1.0, r_max: int | None = None,
                       rtol: float = 1e-8, boot_seed: int = 0) -> DecayFit:
    """|| T_t^*(O) - T_t^{* A(r)}(O) ||_inf for r = 0..r_max.

    The localized generator carries x inside the r-enlargement of the
    observable support and x' outside.  Radii that give the same hybrid point
    share one evolution within the call, and a radius whose patch covers every
    term gives x itself, which is not evolved again: its value is 0.  The
    envelope is ||O|| |A| J (e^{vt} - 1 - vt) / v e^{-MU r} with the certified v.
    """
    O_full = _scan_observable(family, obs)
    lat = family.lattice
    if r_max is None:
        r_max = Region(tuple(lat.all_sites())).diameter(lat)
    v = certify_lr_constants(family)
    if v * t > 700.0:
        raise NumericalError(f"e^(vt) overflows for certified v={v:.3g}, t={t}")
    O_t = heisenberg_evolve(assemble(family, x), O_full, t, rtol=rtol)
    radii = list(range(r_max + 1))
    values = _hybrid_values(
        family, x, x_prime, [enlarge(lat, obs.support, r) for r in radii],
        lambda gen: float(np.linalg.norm(O_t - heisenberg_evolve(gen, O_full, t, rtol=rtol), 2)))
    amp = (obs.operator_norm * len(obs.support) * family.J
           * (math.exp(v * t) - 1.0 - v * t) / v)
    envelope = [amp * math.exp(-MU * r) for r in radii]
    return fit_decay(radii, values, label="radius", boot_seed=boot_seed,
                     envelope=envelope)


def mixing_scan(family: ParamLindbladian, x, rho0: DensityMatrix,
                obs: LocalObservable, rho_inf: DensityMatrix,
                t_grid: Sequence[float] = DEFAULT_T_GRID, rtol: float = 1e-9,
                boot_seed: int = 0) -> DecayFit:
    """|tr[O (T_t(rho0) - rho_inf)]| on the time grid, with its decay rate;
    ``rho_inf`` is the steady state at x."""
    O_full = _scan_observable(family, obs)
    target = rho_inf.expectation(O_full)
    values = np.abs(_evolved_curve(assemble(family, x), rho0, t_grid, rtol,
                                   lambda rho: rho.expectation(O_full)) - target)
    return fit_decay(list(t_grid), values, label="time", boot_seed=boot_seed)


def ltqo_scan(family: ParamLindbladian, x, x_prime, obs: LocalObservable,
              s_grid: Sequence[int], gamma_mix: float = 1.0,
              rho_inf: DensityMatrix | None = None, boot_seed: int = 0) -> DecayFit:
    """|tr[O (rho_inf - rho_inf^{A(s)})]| against the localisation radius s.

    ``rho_inf`` is the steady state at x; computed when None.  Radii that give
    the same hybrid point share one steady-state solve within the call, and
    a radius whose patch covers every term gives x itself, which is not
    solved again: its value is 0.  Points where the localized generator has
    a degenerate kernel are flagged and excluded from the fit, at every
    radius that repeats them.  The envelope is
    ||O|| (J |A| / v + C_POLY |A|^KAPPA) (|A(s)|/|A|)^(KAPPA v / (v+gamma)) e^{-beta' s}
    with beta' = MU gamma / (v + gamma).
    """
    O_full = _scan_observable(family, obs)
    if rho_inf is None:
        rho_inf = steady_state(assemble(family, x))
    base = rho_inf.expectation(O_full)

    def distinguishability(gen: Superoperator) -> float:
        try:
            return abs(steady_state(gen).expectation(O_full) - base)
        except DegenerateSteadyStateError:
            return math.nan

    patches = [enlarge(family.lattice, obs.support, int(s)) for s in s_grid]
    values = _hybrid_values(family, x, x_prime, patches, distinguishability)
    excluded = [i for i, value in enumerate(values) if math.isnan(value)]
    v = certify_lr_constants(family)
    A = max(1, len(obs.support))
    beta_p = MU * gamma_mix / (v + gamma_mix)
    envelope = [obs.operator_norm * (family.J * A / v + C_POLY * A**KAPPA)
                * (len(patch) / A) ** (KAPPA * v / (v + gamma_mix)) * math.exp(-beta_p * s)
                for s, patch in zip(s_grid, patches)]
    return fit_decay(list(map(float, s_grid)), values, label="radius",
                     boot_seed=boot_seed, envelope=envelope, excluded=excluded)


def compatibility_scan(family: ParamLindbladian, x, region_a: Region,
                       region_r: Region, region_w: Region, rho_inf: DensityMatrix,
                       t_grid: Sequence[float] = DEFAULT_T_GRID,
                       boot_seed: int = 0) -> DecayFit:
    """Nested-region steady-state consistency.

    Evolves the restriction of the W-region steady state under the R-region
    generator and tracks the trace distance of its A-marginal from the
    R-region steady state.  Requires A inside R away from R's boundary, and R
    inside W away from W's boundary (:func:`~phaselearn.lattice.check_nesting`).
    ``rho_inf`` is the steady state at x; when W holds every site it is the
    W-region steady state, which is otherwise solved on W's subfamily.
    """
    check_nesting(family.lattice, region_a, region_r, region_w)
    fam_w, map_w = subfamily(family, region_w)
    fam_r, map_r = subfamily(family, region_r)
    if fam_w.n_total > SCAN_SITE_CAP:
        raise ValueError(f"W region exceeds the scan cap of {SCAN_SITE_CAP} sites")
    xv = family.as_values(x)
    if region_w.sites == tuple(range(family.lattice.n_sites)):
        rho_w = rho_inf
    else:
        rho_w = steady_state(assemble(fam_w, xv[map_w]))
    gen_r = assemble(fam_r, xv[map_r])
    rho_r = steady_state(gen_r)
    w_sites = list(region_w.sites)
    r_pos_in_w = [w_sites.index(s) for s in region_r.sites]
    r_sites = list(region_r.sites)
    a_pos_in_r = [r_sites.index(s) for s in region_a.sites]
    sigma = DensityMatrix(partial_trace(rho_w.data, len(w_sites), r_pos_in_w), len(r_sites))
    target = partial_trace(rho_r.data, len(r_sites), a_pos_in_r)
    values = _evolved_curve(
        gen_r, sigma, t_grid, 1e-9,
        lambda rho: trace_norm(partial_trace(rho.data, len(r_sites), a_pos_in_r) - target))
    return fit_decay(list(t_grid), values, label="time", boot_seed=boot_seed)


def stability_scan(family: ParamLindbladian, x, delta: float,
                   obs: LocalObservable, rho0: DensityMatrix,
                   t_checks: Sequence[float] = (1.0, 2.0, 4.0),
                   gamma_mix: float = 1.0, boot_seed: int = 0) -> DecayFit:
    """|f_O(L, t) - f_O(L + E, t)| for a single-coordinate kick at distance d.

    For every available distance d from the observable support, the lowest
    parameter coordinate owned by a term at that distance is shifted by
    ``delta`` (an error if that leaves the box).  The reported value at d is
    the maximum over the (three) check times, so the fit certifies a bound
    uniform in t.  The envelope composes the certified short-time and
    mixing-tail bounds through h(d) = e^{-mu d / 2} + (1/gamma) e^{-gamma t0(d)}
    with t0(d) = (mu/2) (log(v^2 / 2) / v) d.
    """
    O_full = _scan_observable(family, obs)
    lat = family.lattice
    xv = family.as_values(x)
    # distance of every site from the nearest site of the observable support
    to_obs = np.min([lat.distances(o) for o in obs.support.sites], axis=0)
    by_distance: dict[int, int] = {}
    for ci, info in enumerate(family.coord_info):
        sites = [s for s in info.support if s < family.n_system]
        if not sites:
            continue
        d = int(to_obs[sites].min())
        if d not in by_distance or ci < by_distance[d]:
            by_distance[d] = ci

    def curve(point: np.ndarray) -> np.ndarray:
        return _evolved_curve(assemble(family, point), rho0, t_checks, 1e-9,
                              lambda rho: rho.expectation(O_full))

    base_curve = curve(xv)
    v = certify_lr_constants(family)
    distances = sorted(by_distance)
    values, envelope = [], []
    t_max = max(t_checks)
    for d in distances:
        ci = by_distance[d]
        kicked = xv.copy()
        kicked[ci] += delta
        if abs(kicked[ci]) > 1.0:
            raise ValueError(
                f"perturbation pushes coordinate {ci} to {kicked[ci]:.3f}, outside [-1, 1]"
            )
        values.append(float(np.max(np.abs(curve(kicked) - base_curve))))
        # perturbation strength surrogate: triangle bound from the two term builds
        ti = family.coord_info[ci].term_index
        e_bound = 2.0 * family.term_strengths[ti]
        t0 = (MU / 2.0) * (math.log(max(v**2 / 2.0, 1.0 + 1e-9)) / v) * d
        h = math.exp(-MU * d / 2.0)
        if t_max > t0:
            h += (1.0 / gamma_mix) * math.exp(-gamma_mix * t0)
        envelope.append(e_bound * obs.operator_norm * C_POLY
                        * max(1, len(obs.support)) ** KAPPA * h)
    return fit_decay(list(map(float, distances)), values, label="distance",
                     boot_seed=boot_seed, envelope=envelope)


def calibrate_constants(family: ParamLindbladian, x, x_prime,
                        obs: LocalObservable, rho0: DensityMatrix) -> dict:
    """Measure gamma', c' and xi, the constants the plan reads, from the
    mixing and localisation scans.

    The steady state at x is solved once, for the mixing scan.  Both scans
    integrate to rtol 1e-8; the mixing scan runs on ``DEFAULT_T_GRID`` and
    the localisation scan at t = 1.
    1/xi = min(fitted mixing rate, fitted spatial rate / 2); c' is the
    smallest constant putting the measured mixing curve under
    c' |A|^KAPPA e^{-gamma' t}.  An identically-zero localisation curve (an
    on-site family) leaves the spatial rate unconstrained.
    """
    mix = mixing_scan(family, x, rho0, obs, steady_state(assemble(family, x)), rtol=1e-8)
    gamma_p = mix.rate if not mix.all_below_floor and mix.rate > 0 else 1.0
    A = max(1, len(obs.support))
    c_prime = 1.0
    for t, v in zip(mix.abscissa, mix.values):
        if v > FLOOR:
            c_prime = max(c_prime, v / (A**KAPPA * math.exp(-gamma_p * t)))
    lr = lieb_robinson_scan(family, x, x_prime, obs, t=1.0, rtol=1e-8)
    mu_fit = math.inf if lr.all_below_floor else max(lr.rate, FLOOR)
    inv_xi = min(gamma_p, mu_fit / 2.0)
    return {"gamma_prime": float(gamma_p), "c_prime": float(c_prime),
            "xi": float(1.0 / inv_xi)}
