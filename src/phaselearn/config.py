"""Experiment configuration: a TOML-like sectioned key-value file.

Syntax: ``[section]`` headers with one ``key = value`` per line; values are
JSON literals (numbers, quoted strings, booleans, lists).  Comments start
with ``#``.  Example::

    [model]
    name = "pinning"
    kappa0 = 1.0

    [lattice]
    dim = 1
    extent = [8]
    boundary = "open"

Schema validation happens before any simulation runs.  An unknown section
or key is an error; ``[model]`` takes ``name`` and the model's own
hyperparameters.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .errors import ConfigError
from .lattice import Lattice, LocalObservable, Region, observable_from_string

__all__ = ["MODE_ALIASES", "ExperimentConfig", "load_config", "parse_config_text"]

# config and command-line spellings of the learning modes
MODE_ALIASES = {
    "steady": "steady_state",
    "steady_state": "steady_state",
    "general": "general_phase",
    "general_phase": "general_phase",
    "slow": "slow_mixing",
    "slow_mixing": "slow_mixing",
}

# the keys of each section other than [model]
_SECTION_KEYS = {
    "lattice": {"dim", "extent", "boundary"},
    "targets": {"epsilon", "delta", "delta_prime", "k0"},
    "mode": {"mode", "omega", "f_n"},
    "observables": {"specs"},
    "training": {"n_cap", "n_override", "gamma_override", "r_override", "n_test", "sweep"},
    "constants": {"source", "kappa_exponent", "xi", "gamma_prime", "c_prime"},
    # no stage reads workers; it is accepted for configs that still set it
    "run": {"seed", "out", "workers"},
    "diagnostics": {"a", "r", "w"},
}


@dataclass
class ExperimentConfig:
    """Validated, fully deterministic description of one experiment run."""

    model_name: str
    hyper: dict
    lattice: Lattice
    mode: str = "steady_state"
    epsilon: float = 0.3
    delta: float = 0.1
    delta_prime: float = 0.1
    observables: list[str] = field(default_factory=lambda: ["Z@0"])
    k0: int = 1
    omega: int = 0
    n_cap: int | None = 100_000
    n_override: int | None = None
    gamma_override: float | None = None
    r_override: int | None = None
    n_test: int = 50
    sweep: list[int] = field(default_factory=list)
    constants_source: str = "measure"
    constants: dict = field(default_factory=dict)
    f_n: float | None = None
    kappa_exponent: float = 1.0
    seed: int = 0
    out_dir: str = "out"
    diagnostics_regions: dict = field(default_factory=dict)

    def validate(self) -> None:
        from .models import CATALOG

        if self.model_name not in CATALOG:
            raise ConfigError(f"unknown model {self.model_name!r}; have {sorted(CATALOG)}")
        unknown = sorted(set(self.hyper) - set(CATALOG[self.model_name].default_hyper))
        if unknown:
            raise ConfigError(f"model {self.model_name!r} has no hyperparameters {unknown}")
        if self.mode not in MODE_ALIASES.values():
            raise ConfigError(f"bad mode {self.mode!r}")
        for name in ("epsilon", "delta", "delta_prime"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ConfigError(f"{name} must lie in (0, 1), got {v}")
        if self.mode == "slow_mixing" and (self.f_n is None or self.f_n <= 0):
            raise ConfigError("slow mode requires a positive f_n")
        if not self.observables:
            raise ConfigError("at least one observable is required")
        if self.k0 < 0 or self.n_test < 1:
            raise ConfigError("k0 >= 0 and n_test >= 1 required")
        if self.n_cap is not None and self.n_cap < 1:
            raise ConfigError("n_cap must be positive (or null for uncapped)")
        if self.n_override is not None and self.n_override < 1:
            raise ConfigError("n_override must be positive")
        if self.gamma_override is not None and not self.gamma_override > 0:
            raise ConfigError("gamma_override must be positive")
        r = self.r_override
        if r is not None and (isinstance(r, bool) or not isinstance(r, int) or r < 0):
            raise ConfigError("r_override must be a non-negative integer")
        if any(s < 1 for s in self.sweep):
            raise ConfigError("sweep sample counts must be positive")
        if self.constants_source not in ("measure", "explicit"):
            raise ConfigError("constants source must be 'measure' or 'explicit'")
        if self.constants_source == "explicit":
            missing = {"xi", "gamma_prime", "c_prime"} - set(self.constants)
            if missing:
                raise ConfigError(f"explicit constants missing {sorted(missing)}")
        if self.omega not in (0, 1):
            raise ConfigError("omega must be 0 or 1")
        if self.omega == 1 and not (self.lattice.dim == 1 and self.lattice.boundary == "open"):
            raise ConfigError("ancilla choice 1 needs an open 1D chain")
        self.parse_observables()
        if self.diagnostics_regions:
            self._validate_regions()

    def parse_observables(self) -> list[LocalObservable]:
        """The observable specs parsed against the lattice; a support wider than
        max(k0, 1) or one leaving the lattice is a ConfigError."""
        out = []
        for spec in self.observables:
            try:
                obs = observable_from_string(spec, self.lattice, k0=max(self.k0, 1))
            except Exception as exc:
                raise ConfigError(f"bad observable {spec!r}: {exc}") from exc
            if any(s >= self.lattice.n_sites for s in obs.support.sites):
                raise ConfigError(f"observable {spec!r} leaves the lattice")
            out.append(obs)
        return out

    def _validate_regions(self) -> None:
        need = {"a", "r", "w"}
        if not need <= set(self.diagnostics_regions):
            raise ConfigError("diagnostics regions need keys 'a', 'r', 'w'")
        n = self.lattice.n_sites
        prev_key, prev = "", set()
        for key in ("a", "r", "w"):
            sites = set(self.diagnostics_regions[key])
            if not sites or any(not 0 <= s < n for s in sites):
                raise ConfigError(f"region {key!r} has sites outside the lattice")
            if prev and not prev <= sites:
                raise ConfigError("diagnostics regions must nest a within r within w")
            if prev & Region(tuple(sites)).boundary_sites(self.lattice):
                raise ConfigError(f"region {prev_key!r} meets the boundary of region {key!r}")
            prev_key, prev = key, sites


def _coerce(value: str, where: str) -> Any:
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"value {value!r} at {where} is not a JSON literal") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    unknown = [f"[{s}]" for s in cp.sections() if s != "model" and s not in _SECTION_KEYS]
    unknown += [f"[{s}] {k}" for s in cp.sections() if s in _SECTION_KEYS
                for k in cp[s] if k not in _SECTION_KEYS[s]]
    if unknown:
        raise ConfigError(f"unknown config entries: {', '.join(unknown)}")

    def section(name: str) -> dict:
        if not cp.has_section(name):
            return {}
        return {k: _coerce(v, f"[{name}] {k}") for k, v in cp.items(name)}

    model = section("model")
    lattice_s = section("lattice")
    targets = section("targets")
    mode_s = section("mode")
    training = section("training")
    constants_s = section("constants")
    run = section("run")
    obs_s = section("observables")
    diag = section("diagnostics")

    if "name" not in model:
        raise ConfigError("[model] section must define name")
    name = model.pop("name")
    try:
        lattice = Lattice(
            dim=lattice_s.get("dim", 1),
            extent=tuple(lattice_s.get("extent", [4])),
            boundary=lattice_s.get("boundary", "open"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad lattice: {exc}") from exc

    raw_mode = mode_s.get("mode", "steady")
    if raw_mode not in MODE_ALIASES:
        raise ConfigError(f"unknown mode {raw_mode!r}")

    def opt(d: dict, key: str):
        v = d.get(key)
        return None if v == "plan" else v

    constants_source = constants_s.pop("source", "measure")
    kappa_exponent = constants_s.pop("kappa_exponent", 1.0)
    cfg = ExperimentConfig(
        model_name=name,
        hyper=model,
        lattice=lattice,
        mode=MODE_ALIASES[raw_mode],
        epsilon=targets.get("epsilon", 0.3),
        delta=targets.get("delta", 0.1),
        delta_prime=targets.get("delta_prime", 0.1),
        observables=obs_s.get("specs", ["Z@0"]),
        k0=targets.get("k0", 1),
        omega=mode_s.get("omega", 0),
        n_cap=training.get("n_cap", 100_000),
        n_override=opt(training, "n_override"),
        gamma_override=opt(training, "gamma_override"),
        r_override=opt(training, "r_override"),
        n_test=training.get("n_test", 50),
        sweep=training.get("sweep", []),
        constants_source=constants_source,
        constants=constants_s,
        f_n=mode_s.get("f_n"),
        kappa_exponent=kappa_exponent,
        seed=run.get("seed", 0),
        out_dir=run.get("out", "out"),
        diagnostics_regions=diag,
    )
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    return parse_config_text(p.read_text())
