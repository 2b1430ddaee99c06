"""Experiment configuration: a TOML-like sectioned key-value file.

Syntax: ``[section]`` headers with one ``key = value`` per line; values are
JSON literals, and a comment is a line starting with ``#``.  The README's
"Configuration format" section shows a full file.

``_SCHEMA`` gives each ``[section] key`` its ExperimentConfig field and JSON
type: number (integers count, true and false do not), integer, string, or a
list of integers or strings; ``[mode] f_n`` and ``[training] n_cap`` may be
null, and the ``[training]`` overrides ``n_override``, ``gamma_override`` and
``r_override`` take null or ``"plan"`` (derive the value); a given override
replaces its value in ``learner.plan``, which derives the rest of the
prescription (gamma, N_log2, m_r) at the overridden values.  Other ``[model]``
keys are the model's hyperparameters, each a number.  A key left out keeps its
field's default; ``[lattice]`` defaults to an open chain of 4 sites.  An
unknown entry, a value of the wrong type, a number that is not finite
(``json.loads`` admits NaN, +-Infinity and 1e999), or an integer in a number
entry too large for a float is a ConfigError naming the ``[section] key``;
``validate`` then checks ranges.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .errors import ConfigError
from .lattice import Lattice, LocalObservable, Region, check_nesting, observable_from_string

__all__ = ["MODES", "MODE_ALIASES", "ExperimentConfig", "load_config", "parse_config_text"]

MODES = ("steady_state", "general_phase", "slow_mixing")
# config and command-line spellings of the learning modes: the name or its first word
MODE_ALIASES = {alias: mode for mode in MODES for alias in (mode.split("_")[0], mode)}

# the JSON types a config or plan.json value may have; type() keeps booleans
# out of the numbers
JSON_TYPES = {
    "number": lambda v: type(v) in (int, float),
    "integer": lambda v: type(v) is int,
    "string": lambda v: type(v) is str,
    "boolean": lambda v: type(v) is bool,
    "list of integers": lambda v: type(v) is list and all(type(e) is int for e in v),
    "list of strings": lambda v: type(v) is list and all(type(e) is str for e in v),
    "number or null": lambda v: v is None or type(v) in (int, float),
    "integer or null": lambda v: v is None or type(v) is int,
    'number, null or "plan"': lambda v: v in (None, "plan") or type(v) in (int, float),
    'integer, null or "plan"': lambda v: v in (None, "plan") or type(v) is int,
}

# [section] key -> (ExperimentConfig field, type); a field "name.key" sets one
# key of the dict ``name``, and field None accepts the entry and ignores it
_SCHEMA = {
    "model": {"name": ("model_name", "string")},
    "lattice": {
        "dim": ("lattice.dim", "integer"),
        "extent": ("lattice.extent", "list of integers"),
        "boundary": ("lattice.boundary", "string"),
    },
    "targets": {
        "epsilon": ("epsilon", "number"),
        "delta": ("delta", "number"),
        "delta_prime": ("delta_prime", "number"),
        "k0": ("k0", "integer"),
    },
    "mode": {
        "mode": ("mode", "string"),
        "omega": ("omega", "integer"),
        "f_n": ("f_n", "number or null"),
    },
    "observables": {"specs": ("observables", "list of strings")},
    "training": {
        "n_cap": ("n_cap", "integer or null"),
        "n_override": ("n_override", 'integer, null or "plan"'),
        "gamma_override": ("gamma_override", 'number, null or "plan"'),
        "r_override": ("r_override", 'integer, null or "plan"'),
        "n_test": ("n_test", "integer"),
        "sweep": ("sweep", "list of integers"),
    },
    "constants": {
        "source": ("constants_source", "string"),
        "xi": ("constants.xi", "number"),
        "gamma_prime": ("constants.gamma_prime", "number"),
        "c_prime": ("constants.c_prime", "number"),
    },
    "run": {
        "seed": ("seed", "integer"),
        "out": ("out_dir", "string"),
        "workers": (None, "integer"),  # no stage reads it; old configs still set it
    },
    "diagnostics": {k: (f"diagnostics_regions.{k}", "list of integers") for k in "arw"},
}


@dataclass
class ExperimentConfig:
    """Validated, fully deterministic description of one experiment run."""

    model_name: str
    lattice: Lattice
    hyper: dict = field(default_factory=dict)
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
            raise ConfigError(f"[mode] mode {self.mode!r} is not one of {sorted(MODE_ALIASES)}")
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
        if self.r_override is not None and self.r_override < 0:
            raise ConfigError("r_override must be non-negative")
        if any(s < 1 for s in self.sweep):
            raise ConfigError("sweep sample counts must be positive")
        if self.constants_source not in ("measure", "explicit"):
            raise ConfigError("constants source must be 'measure' or 'explicit'")
        if self.constants_source == "explicit":
            missing = {"xi", "gamma_prime", "c_prime"} - set(self.constants)
            if missing:
                raise ConfigError(f"explicit constants missing {sorted(missing)}")
            for name, v in self.constants.items():
                if not v > 0:
                    raise ConfigError(f"[constants] {name} must be positive, got {v}")
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
            out.append(obs)
        return out

    def _validate_regions(self) -> None:
        need = {"a", "r", "w"}
        if not need <= set(self.diagnostics_regions):
            raise ConfigError("diagnostics regions need keys 'a', 'r', 'w'")
        n = self.lattice.n_sites
        regions = []
        for key in ("a", "r", "w"):
            sites = self.diagnostics_regions[key]
            if not sites or any(not 0 <= s < n for s in sites):
                raise ConfigError(f"region {key!r} has sites outside the lattice")
            regions.append(Region(tuple(sites)))
        try:
            check_nesting(self.lattice, *regions)
        except ValueError as exc:
            raise ConfigError(f"diagnostics {exc}") from exc


def _finite(number: str) -> float:
    """A JSON number as a float, rejecting the NaN, Infinity and -Infinity
    that ``json.loads`` admits and a number that overflows to +-Infinity."""
    if not math.isfinite(value := float(number)):
        raise ValueError(f"{number} is not a JSON literal")
    return value


def parse_config_text(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    fields: dict[str, Any] = {}
    unknown = [f"[{s}]" for s in cp.sections() if s not in _SCHEMA]
    for section in [s for s in cp.sections() if s in _SCHEMA]:
        for key, raw in cp.items(section):
            where = f"[{section}] {key}"
            # any other [model] key is one of the model's hyperparameters
            hyper = (f"hyper.{key}", "number") if section == "model" else None
            entry = _SCHEMA[section].get(key, hyper)
            if entry is None:
                unknown.append(where)
                continue
            target, kind = entry
            try:
                value = json.loads(raw, parse_constant=_finite, parse_float=_finite)
            except ValueError as exc:  # a JSONDecodeError, or a number not finite
                raise ConfigError(f"value {raw!r} at {where} is not a JSON literal") from exc
            if not JSON_TYPES[kind](value):
                raise ConfigError(f"{where}: expected {kind}, got {raw}")
            if kind.startswith("number") and type(value) is int and not math.isfinite(float(raw)):
                raise ConfigError(f"{where}: integer too large for a float")
            if value == "plan" and kind.endswith('"plan"'):
                value = None  # derived from the prescription
            name, _, sub = (target or "").partition(".")
            if sub:
                fields.setdefault(name, {})[sub] = value
            elif name:
                fields[name] = value
    if unknown:
        raise ConfigError(f"unknown config entries: {', '.join(unknown)}")
    if "model_name" not in fields:
        raise ConfigError("[model] section must define name")
    try:
        fields["lattice"] = Lattice(**{"dim": 1, "extent": [4], **fields.get("lattice", {})})
    except ValueError as exc:
        raise ConfigError(f"bad lattice: {exc}") from exc
    if "mode" in fields:
        fields["mode"] = MODE_ALIASES.get(fields["mode"], fields["mode"])
    cfg = ExperimentConfig(**fields)
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    return parse_config_text(p.read_text())
