"""Config-driven experiment runners and report emitters.

Every run is a pure function of (config, seed): outputs are written with
sorted keys, repr-formatted floats, and fixed orderings so reruns are
byte-identical.  Wall-clock timings go to ``timing.log`` (plain text), never
into the CSV/JSON data files.

The learning stages hold one chunk of the training set at a time
(``shadows._CHUNK_ROWS`` records).  The train stage draws a chunk's tags,
states and measurements and writes its records before it draws the next.  The
predict stage checks the bundle's header against the config before it reads
a record, then checks each chunk as it is read and folds it into the test
points' cells and the patches' cell counts; the predictions, the sweep and the
exact values come after the one pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import ExperimentConfig
from .diagnostics import (
    KAPPA,
    SCAN_SITE_CAP,
    DecayFit,
    calibrate_constants,
    compatibility_scan,
    lieb_robinson_scan,
    ltqo_scan,
    mixing_scan,
    stability_scan,
)
from .errors import ConfigError
from .lattice import Lattice, Region, ball, embed, observable_from_string
from .learner import (
    CellFold,
    LearnerPlan,
    PlanConstants,
    coverage_report,
    plan,
    predict,
)
from .lindblad import STEADY_CHUNK, DensityMatrix, assemble, steady_state, steady_states
from .models import Model, generate_state, instantiate, sample_parameters
from .plotting import decay_plot_svg, sweep_plot_svg
from .seeding import stream_seed
from . import shadows
from .shadows import (
    TrainingSet,
    measure_snapshot,
    measure_snapshot_product,
    read_shadows,
    write_shadows,
)

__all__ = [
    "build_plan_constants",
    "run_plan_stage",
    "run_train_stage",
    "run_predict_stage",
    "run_learning_experiment",
    "run_diagnostic_battery",
    "emit_plots",
]


def _digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(x, dtype="<f8").tobytes()).hexdigest()[:16]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n")


def _probe_model(cfg: ExperimentConfig) -> Model:
    """A smaller instance of the configured model for constant calibration."""
    lat = cfg.lattice
    if lat.dim == 1:
        probe_lat = Lattice(1, (min(lat.n_sites, 5),), lat.boundary)
    else:
        probe_lat = Lattice(2, (2, 3), lat.boundary)
    return instantiate(cfg.model_name, probe_lat, omega=0, **cfg.hyper)


def _probe_points(seed: int, stream: str, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The scans' points (x, x'), drawn in turn from the named stream and
    clipped to [-0.8, 0.8]^m."""
    rng = np.random.default_rng(stream_seed(seed, stream))
    return tuple(np.clip(rng.uniform(-1, 1, m), -0.8, 0.8) for _ in range(2))


def build_plan_constants(cfg: ExperimentConfig, model: Model) -> PlanConstants:
    """Merge structural constants with measured or explicitly configured ones.

    Measurement runs the mixing and localisation scans on a reduced instance;
    1/xi = min(fitted mixing rate, fitted spatial rate / 2).
    """
    sc = model.structural_constants()
    observables = cfg.parse_observables()
    k0_eff = max(cfg.k0, max(len(o.support) for o in observables))
    if cfg.constants_source == "explicit":
        vals = dict(cfg.constants)
    else:
        probe = _probe_model(cfg)
        x, xp = _probe_points(cfg.seed, "calibration", probe.family.m)
        center = probe.lattice.n_sites // 2
        obs = observable_from_string(f"Z@{center}", probe.lattice)
        vals = calibrate_constants(probe.family, x, xp, obs, probe.reference_state())
    return PlanConstants(
        J=sc["J"], ell=sc["ell"], r0=sc["r0"], D=sc["D"], n=sc["n"], m=sc["m"],
        k0=k0_eff, M=len(observables), W=sc["W"],
        xi=float(vals["xi"]), gamma_prime=float(vals["gamma_prime"]),
        c_prime=float(vals["c_prime"]), kappa=KAPPA, f_n=cfg.f_n,
    )


def _states(model: Model, X: np.ndarray, taus: np.ndarray) -> Iterator[DensityMatrix]:
    """The state at each point (X[i], taus[i]): steady states through
    ``steady_states``, a chunk at a time, and other times one by one."""
    if np.isinf(taus).all():
        return steady_states(model.family, X)
    return (generate_state(model, x, tau) for x, tau in zip(X, taus.tolist()))


def _training_states(model: Model, X: np.ndarray, taus: np.ndarray, key: int, row: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(N, n) bases and outcomes, one snapshot per point (X[i], taus[i]),
    measured with row ``row`` + i of the measurement stream ``key``.

    Oracle (product) states go through the batched sampler in one call: the
    closed-form Bloch vectors of every site at every point, then all their
    stream rows at once.  Other models generate the states (``_states``) and
    measure them ``STEADY_CHUNK`` at a time, one stack per call of the
    general sampler, so a chunk whose states fail to generate measures none.
    """
    if model.oracle is not None:
        return measure_snapshot_product(model.oracle.bloch_vectors(X, taus), key, row)
    n_sys = model.family.n_system
    bases = np.empty((len(X), n_sys), dtype=np.int8)
    outcomes = np.empty_like(bases)
    states = _states(model, X, taus)
    for lo in range(0, len(X), STEADY_CHUNK):
        stack = np.array([rho.data for rho in islice(states, STEADY_CHUNK)])
        bases[lo:lo + len(stack)], outcomes[lo:lo + len(stack)] = measure_snapshot(
            stack, key, row + lo, n_sys)
    return bases, outcomes


def _exact_values(model: Model, X: np.ndarray, taus: np.ndarray, observables) -> list:
    """Ground truth sum_i tr[O_i rho(x, tau)] at each point (X[i], taus[i]) via
    oracle or dense simulation; None for every point above 6 sites."""
    if model.oracle is not None:
        return [sum(model.oracle.expectation(x, tau, o) for o in observables)
                for x, tau in zip(X, taus.tolist())]
    if model.family.n_total > 6:
        return [None] * len(X)
    full = [embed(o, model.lattice, n_total=model.family.n_total) for o in observables]
    return [sum((rho.expectation(o) for o in full), 0.0) for rho in _states(model, X, taus)]


def _setup(cfg: ExperimentConfig):
    try:
        model = instantiate(cfg.model_name, cfg.lattice, omega=cfg.omega, **cfg.hyper)
    except ValueError as exc:
        raise ConfigError(f"[model] {cfg.model_name!r}: {exc}") from None
    return model, cfg.parse_observables()


def _write_timing(out: Path, t_start: float,
                  scan_seconds: dict[str, float] | None = None) -> None:
    lines = [f"wall_clock_seconds {time.perf_counter() - t_start:.3f}"]
    lines += [f"scan_seconds {name} {s:.3f}" for name, s in (scan_seconds or {}).items()]
    (out / "timing.log").write_text("\n".join(lines) + "\n")


def _write_plan(cfg: ExperimentConfig, model: Model) -> LearnerPlan:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    constants = build_plan_constants(cfg, model)
    p = plan(cfg.epsilon, cfg.delta, cfg.delta_prime, constants, cfg.mode,
             n_cap=cfg.n_cap, r=cfg.r_override, gamma=cfg.gamma_override,
             n=cfg.n_override)
    (out / "plan.json").write_text(p.to_json() + "\n")
    return p


def run_plan_stage(cfg: ExperimentConfig) -> LearnerPlan:
    """Derive the plan (measuring constants if configured) and write plan.json."""
    model, _ = _setup(cfg)
    return _write_plan(cfg, model)


def _training_chunks(cfg: ExperimentConfig, model: Model, p: LearnerPlan
                     ) -> Iterator[TrainingSet]:
    """The plan's N training snapshots, ``shadows._CHUNK_ROWS`` at a time:
    each chunk's points from the "sampling" stream and its snapshots from
    the matching rows of the "measurement" stream, drawn only when asked for."""
    seed, key = stream_seed(cfg.seed, "sampling"), stream_seed(cfg.seed, "measurement")
    for lo in range(0, p.N, shadows._CHUNK_ROWS):
        X, taus = sample_parameters(model, p.N, p.t_eps, seed, lo,
                                    min(lo + shadows._CHUNK_ROWS, p.N))
        yield TrainingSet(*_training_states(model, X, taus, key, lo), X, taus)


def _run_facts(cfg: ExperimentConfig, model: Model) -> dict:
    """What holds for every record of the run: its model, lattice, mode,
    seed, ancilla choice, tag count and site count.  The train stage writes
    them as the training.shadows header, and the predict stage checks that
    header against them."""
    return {"model": model.name, "lattice": cfg.lattice.to_json(), "mode": cfg.mode,
            "seed": cfg.seed, "omega": model.omega, "m": model.family.m,
            "n": model.family.n_system}


def run_train_stage(cfg: ExperimentConfig) -> dict:
    """Plan, then sample and measure the training set a chunk at a time,
    writing each chunk before the next is drawn; writes plan.json and
    training.shadows, whose header holds the run's facts (:func:`_run_facts`)."""
    model, _ = _setup(cfg)
    p = _write_plan(cfg, model)
    with open(Path(cfg.out_dir) / "training.shadows", "wb") as fh:
        write_shadows(fh, _run_facts(cfg, model), _training_chunks(cfg, model, p))
    return {"plan": "plan.json", "training": "training.shadows"}


def _read_plan(out: Path) -> LearnerPlan | None:
    """The out dir's plan.json, or None when there is none; a malformed file
    is a ConfigError naming plan.json and, where it can, the field."""
    if not (out / "plan.json").exists():
        return None
    try:
        return LearnerPlan.from_json((out / "plan.json").read_text())
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ConfigError(f"plan.json is malformed: {exc!r}") from None


def _read_document(path: Path, *keys: str) -> dict:
    """The fields ``keys`` of the JSON object in ``path``; a file that is not
    JSON, or lacks one of them, is a ConfigError naming the file."""
    try:
        doc = json.loads(path.read_text())
        return {key: doc[key] for key in keys}
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path.name} is malformed: {exc!r}") from None


def _bundle_chunks(facts: dict, p: LearnerPlan, fileobj) -> Iterator[TrainingSet]:
    """training.shadows' chunks, each checked as it is read, once its header
    has been checked: a header fact other than the run's (:func:`_run_facts`;
    the seed may differ), or a plan.json mode other than the config's, is a
    ConfigError naming the file and field, raised before any record is read."""
    header, chunks = read_shadows(fileobj)
    checks = [(f"training.shadows {key}", header[key], asked)
              for key, asked in facts.items() if key != "seed"]
    for field, found, asked in checks + [("plan.json mode", p.mode, facts["mode"])]:
        if found != asked:
            raise ConfigError(f"{field} is {found!r}, config asks for {asked!r}")
    return chunks


def run_predict_stage(cfg: ExperimentConfig) -> dict:
    """Predictions from the out dir's bundle: predictions.csv, coverage.json,
    summary.json (with the sweep's medians), error_vs_n.svg when there is a
    sweep, plus timing.log.

    One pass over training.shadows folds every chunk into the test points'
    cells (for the run and each sweep size) and the patches' cell counts.  A
    missing plan.json or training.shadows, a mismatched header
    (:func:`_bundle_chunks`, checked before the first record is read), a
    malformed record or a bundle without records is a ConfigError raised
    before any exact value is computed."""
    t_start = time.perf_counter()
    out = Path(cfg.out_dir)
    model, observables = _setup(cfg)
    train_path = out / "training.shadows"
    p = _read_plan(out) if train_path.exists() else None
    if p is None:
        raise ConfigError(f"predict stage needs plan.json and training.shadows in {out}")
    test_x, test_t = sample_parameters(model, cfg.n_test, p.t_eps,
                                       stream_seed(cfg.seed, "test_points"))
    fold = CellFold(observables, test_x, test_t, p, model.family)
    with open(train_path, "rb") as fh:
        for chunk in _bundle_chunks(_run_facts(cfg, model), p, fh):
            fold.add(chunk)
            del chunk  # not held while the next chunk is read
    N = fold.n_samples
    if N == 0:
        raise ConfigError("training.shadows holds no records")

    # exact values do not depend on the training set: one per test point
    exacts = _exact_values(model, test_x, test_t, observables)

    def eval_points(size: int | None = None):
        return [(predict(fold, i, size), exacts[i]) for i in range(cfg.n_test)]

    results = eval_points()
    lines = ["index,x_digest,tau,f_exact,f_pred,abs_error,min_cell_count,fallback"]
    errors = []
    for i, (pred, exact) in enumerate(results):
        err = "" if exact is None else repr(abs(pred.value - exact))
        if exact is not None:
            errors.append(abs(pred.value - exact))
        tau_s = "inf" if math.isinf(test_t[i]) else repr(float(test_t[i]))
        lines.append(
            f"{i},{_digest(test_x[i])},{tau_s},"
            f"{'' if exact is None else repr(exact)},{pred.value!r},{err},"
            f"{min(pred.counts)},{int(bool(pred.warnings))}"
        )
    (out / "predictions.csv").write_text("\n".join(lines) + "\n")

    cov = coverage_report(fold, q=p.q)
    _write_json(out / "coverage.json", cov)

    # sizes past the training set's are capped at it, and each size runs once
    sweep = []
    for n_k in sorted({min(n_k, N) for n_k in cfg.sweep}):
        errs = [abs(pr.value - ex) for pr, ex in eval_points(n_k) if ex is not None]
        sweep.append([n_k, float(np.median(errs)) if errs else None])

    success = (
        float(np.mean([e <= cfg.epsilon for e in errors])) if errors else None
    )
    summary = {
        "model": model.name,
        "mode": cfg.mode,
        "epsilon": cfg.epsilon,
        "delta": cfg.delta,
        "delta_prime": cfg.delta_prime,
        "planned_N_log2": p.N_log2,
        "planned_N_capped": p.capped,
        "used_N": p.N,
        "n_test": cfg.n_test,
        # test points with an exact value; success_fraction and the sweep's
        # medians are null when 0
        "n_exact": len(errors),
        "success_fraction": success,
        "success_target": 1.0 - cfg.delta,
        "coverage_min_fraction": cov["min_fraction"],
        "coverage_failure_bound": max(e["failure_bound"] for e in cov["entries"]),
        "empty_cell_fallbacks": sum(int(bool(pr.warnings)) for pr, _ in results),
        "sweep": sweep,
    }
    _write_json(out / "summary.json", summary)
    manifest = emit_plots(out, model.name)
    _write_timing(out, t_start)
    manifest.update(
        predictions="predictions.csv", coverage="coverage.json",
        summary="summary.json", timing="timing.log",
    )
    return manifest


def run_learning_experiment(cfg: ExperimentConfig) -> dict:
    """The train stage, then the predict stage; returns both file manifests."""
    return {**run_train_stage(cfg), **run_predict_stage(cfg)}


def _fit_csv(path: Path, fit: DecayFit) -> None:
    lines = [f"{fit.abscissa_label},value,error,envelope"]
    for a, v, e, u in zip(fit.abscissa, fit.values, fit.errors,
                          fit.envelope or [None] * len(fit.values)):
        env = "" if u is None else repr(float(u))
        val = "nan" if not math.isfinite(v) else repr(float(v))
        lines.append(f"{a!r},{val},{e!r},{env}")
    path.write_text("\n".join(lines) + "\n")


def run_diagnostic_battery(cfg: ExperimentConfig) -> dict:
    """All five structural scans on the configured model; per-scan CSV, JSON
    and SVG (drawn by :func:`emit_plots` from the JSON), battery.json with
    each scan's verdict fields from its JSON, and each scan's wall seconds
    in timing.log.

    The steady state at x is solved once and handed to the mixing, ltqo and
    compatibility scans as their ``rho_inf``; within each scan, radii that
    give the same hybrid point share one solve.  The battery records a pass
    flag per scan: positive decay certified (lower bootstrap CI bound above
    zero) or an identically-zero curve.  The compatibility scan cuts sub-chains out
    of the chain, so a 2D lattice or an ancilla register fails before any scan.
    """
    t_start = time.perf_counter()
    if cfg.lattice.dim != 1:
        raise ConfigError("[lattice] dim: the diagnostic battery needs a 1D chain")
    if cfg.omega != 0:
        raise ConfigError("[mode] omega: the diagnostic battery takes no ancilla registers")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, observables = _setup(cfg)
    fam = model.family
    if fam.n_total > SCAN_SITE_CAP:
        raise ConfigError(f"diagnostic battery caps the system at {SCAN_SITE_CAP} sites")
    obs = observables[0]
    x, xp = _probe_points(cfg.seed, "diagnostics", fam.m)
    ref = model.reference_state()
    if cfg.diagnostics_regions:
        a, r, w = (Region(tuple(cfg.diagnostics_regions[k])) for k in "arw")
    else:
        a, r, w = (ball(cfg.lattice, cfg.lattice.n_sites // 2, s) for s in range(3))
    diam = max(1, cfg.lattice.n_sites - 1)
    boot = stream_seed(cfg.seed, "bootstrap")
    fits: dict[str, DecayFit] = {}
    seconds: dict[str, float] = {}

    def scan(name: str, fn, *args, **kwargs) -> None:
        t0 = time.perf_counter()
        fits[name] = fn(*args, **kwargs)
        seconds[name] = time.perf_counter() - t0

    scan("lieb_robinson", lieb_robinson_scan, fam, x, xp, obs, t=1.0,
         r_max=min(diam, 6), rtol=1e-8, boot_seed=boot)
    rho_inf = steady_state(assemble(fam, x))
    scan("mixing", mixing_scan, fam, x, ref, obs, rho_inf, boot_seed=boot)
    gamma_mix = max(fits["mixing"].rate, 0.1)
    scan("ltqo", ltqo_scan, fam, x, xp, obs, s_grid=list(range(min(diam, 4) + 1)),
         gamma_mix=gamma_mix, rho_inf=rho_inf, boot_seed=boot)
    scan("compatibility", compatibility_scan, fam, x, a, r, w, rho_inf,
         t_grid=(0.5, 1.0, 2.0, 4.0), boot_seed=boot)
    scan("stability", stability_scan, fam, np.zeros(fam.m), 0.5, obs, ref,
         gamma_mix=gamma_mix, boot_seed=boot)
    battery = {}
    for name, fit in fits.items():
        _fit_csv(out / f"diag_{name}.csv", fit)
        doc = fit.to_json_dict()
        _write_json(out / f"diag_{name}.json", doc)
        battery[name] = {key: doc[key] for key in
                         ("passes", "rate", "rate_ci", "all_below_floor", "envelope_ok")}
    battery["all_pass"] = all(v["passes"] for v in battery.values())
    _write_json(out / "battery.json", battery)
    emit_plots(out, model.name)
    _write_timing(out, t_start, seconds)
    files = {f"diag_{n}": f"diag_{n}.csv" for n in fits}
    files["battery"] = "battery.json"
    return files


def emit_plots(out_dir: str | Path, model_name: str) -> dict:
    """(Re)build the bundle's SVG plots from its JSON documents alone.

    Each ``diag_<scan>.svg`` is drawn from ``diag_<scan>.json`` and titled
    ``"<model_name>: <scan>"``; ``error_vs_n.svg`` is drawn from the
    ``sweep`` list of summary.json when that list is not empty.  The
    battery and the predict stage draw their plots here too, so rebuilding
    them reproduces their bytes.  The planned-N marker on the sweep plot
    shows the prescription in the bundle's own plan.json; off-scale
    prescriptions fall outside the frame, and one too large for a float is
    not drawn.
    """
    out = Path(out_dir)
    manifest = {}
    p = _read_plan(out)
    planned_n = 2.0**p.N_log2 if p is not None and p.N_log2 < 1024.0 else None
    summary = out / "summary.json"
    sweep = _read_document(summary, "sweep")["sweep"] if summary.exists() else []
    if sweep:
        ns, errs = zip(*sweep)
        with open(out / "error_vs_n.svg", "w") as fh:
            sweep_plot_svg(fh, "median error vs training size", ns, errs, planned_n)
        manifest["error_vs_n"] = "error_vs_n.svg"
    for path in sorted(out.glob("diag_*.json")):
        fit = _read_document(path, "abscissa_label", "abscissa", "values", "envelope",
                             "rate", "prefactor", "all_below_floor")
        drawn = not fit["all_below_floor"]
        with open(path.with_suffix(".svg"), "w") as fh:
            decay_plot_svg(fh, f"{model_name}: {path.stem.removeprefix('diag_')}",
                           fit["abscissa_label"], fit["abscissa"], fit["values"],
                           fit["envelope"], fit["rate"] if drawn else None,
                           fit["prefactor"] if drawn else None)
        manifest[path.stem] = f"{path.stem}.svg"
    return manifest
