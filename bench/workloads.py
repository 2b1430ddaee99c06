"""The benchmark's workloads: their configs, stage calls and output checks.

Each workload runs in one process with ``workers = 1``.  A learning pass
(``train`` then ``predict``) or a battery writes into its own fresh output
directory, so no pass reads a bundle it did not write.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "scripts" / "configs"

if not (SRC / "phaselearn" / "__init__.py").is_file():
    raise ImportError(f"phaselearn sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from phaselearn import experiment  # noqa: E402
from phaselearn.config import ExperimentConfig, parse_config_text  # noqa: E402
from phaselearn.models import Model, instantiate  # noqa: E402

DIGESTED = (".csv", ".json", ".shadows", ".svg")

# Non-oracle learning run: every snapshot needs its own assembly and steady
# state.  The constants are explicit because measured ones make the planned
# N_log2 exceed 1023 on some seeds, and the predict stage then raises
# OverflowError at ``2.0 ** p.N_log2`` (see README.md).
TFIM_LEARN_CFG = """
[model]
name = "dissipative_tfim"
g = 0.5
kappa = 1.0

[lattice]
dim = 1
extent = [4]
boundary = "open"

[targets]
epsilon = 0.3
delta = 0.1
delta_prime = 0.1
k0 = 1

[mode]
mode = "steady"

[observables]
specs = ["Z@1"]

[training]
n_cap = 100000
n_override = 1000
r_override = 1
gamma_override = 0.5
n_test = 40
sweep = [100, 1000]

[constants]
source = "explicit"
xi = 1.0
gamma_prime = 1.0
c_prime = 2.0

[run]
seed = 7
workers = 1
"""


class CheckFailed(Exception):
    """A stage's outputs failed the workload's correctness check."""


def edit_config(text: str, edits: dict[str, dict]) -> str:
    """Config text with the given [section] key = JSON value entries replaced."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(text)
    for section, values in edits.items():
        for key, value in values.items():
            cp.set(section, key, json.dumps(value))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    learning: bool  # train + predict passes; otherwise one battery per seed

    def config_text(self) -> str:
        if self.name == "pinning_learn":
            return (CONFIGS / "pinning_steady.cfg").read_text()
        if self.name == "tfim_battery":
            # The shipped n=6 battery takes minutes; n=5 keeps its call sequence.
            return edit_config((CONFIGS / "tfim_diagnostics.cfg").read_text(), {
                "lattice": {"extent": [5]},
                "observables": {"specs": ["Z@2"]},
                "diagnostics": {"a": [2], "r": [1, 2, 3], "w": [0, 1, 2, 3, 4]},
            })
        return TFIM_LEARN_CFG

    def config(self, seed: int, out_dir: Path) -> ExperimentConfig:
        cfg = parse_config_text(self.config_text())
        cfg.seed = seed
        cfg.out_dir = str(out_dir)
        cfg.workers = 1
        cfg.validate()
        return cfg


WORKLOADS = {w.name: w for w in (
    Workload("pinning_learn", 7, True),
    Workload("tfim_battery", 11, False),
    Workload("tfim_learn", 7, True),
)}


def set_up(workload: Workload, seed: int, out_dir: Path) -> tuple[ExperimentConfig, Model]:
    """What a user waits for before the first stage: parse the config, build the model."""
    cfg = workload.config(seed, out_dir)
    return cfg, instantiate(cfg.model_name, cfg.lattice, omega=cfg.omega, **cfg.hyper)


def digest(out_dir: Path) -> str:
    """sha256 over every data file of a bundle (timing.log is wall clock, so left out)."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.suffix in DIGESTED:
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def code_digest() -> str:
    """sha256 over what decides a workload's output bytes: the program's sources,
    this file and the shipped configs."""
    h = hashlib.sha256()
    files = sorted((SRC / "phaselearn").rglob("*.py")) + sorted(CONFIGS.glob("*.cfg"))
    for path in files + [Path(__file__).resolve()]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _predictions(out_dir: Path) -> list[dict]:
    lines = (out_dir / "predictions.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def median_abs_error(out_dir: Path) -> float:
    return statistics.median(float(r["abs_error"]) for r in _predictions(out_dir))


def check_learning(workload: Workload, cfg: ExperimentConfig, out_dir: Path) -> None:
    """Criterion 7's rule on pinning; finite exact and predicted values on TFIM."""
    summary = json.loads((out_dir / "summary.json").read_text())
    rows = _predictions(out_dir)
    if len(rows) != cfg.n_test:
        raise CheckFailed(f"{len(rows)} predictions for {cfg.n_test} test points")
    if workload.name == "pinning_learn":
        frac = summary["success_fraction"]
        if frac is None or frac < 1.0 - cfg.delta:
            raise CheckFailed(f"success_fraction {frac} below 1 - delta = {1 - cfg.delta}")
        return
    if summary["used_N"] != cfg.n_override:
        raise CheckFailed(f"used_N {summary['used_N']} != {cfg.n_override}")
    for row in rows:
        for col in ("f_exact", "f_pred"):
            if not row[col] or not math.isfinite(float(row[col])):
                raise CheckFailed(f"test point {row['index']}: {col} = {row[col]!r}")


def check_battery(out_dir: Path) -> None:
    """Five scans, each value finite or excluded from its fit."""
    battery = json.loads((out_dir / "battery.json").read_text())
    scans = sorted(k for k, v in battery.items() if isinstance(v, dict))
    if len(scans) != 5:
        raise CheckFailed(f"battery has {len(scans)} scans: {scans}")
    for name in scans:
        fit = json.loads((out_dir / f"diag_{name}.json").read_text())
        bad = [i for i, v in enumerate(fit["values"])
               if not (v is not None and math.isfinite(v)) and i not in fit["excluded"]]
        if bad or not math.isfinite(fit["rate"]):
            raise CheckFailed(f"{name}: non-finite values at {bad} or rate {fit['rate']}")
        for suffix in (".csv", ".svg"):
            if not (out_dir / f"diag_{name}{suffix}").is_file():
                raise CheckFailed(f"missing diag_{name}{suffix}")


def train(cfg: ExperimentConfig, stage) -> None:
    stage("experiment.train", experiment.run_train_stage, cfg)


def predict(cfg: ExperimentConfig, stage) -> None:
    stage("experiment.predict", experiment.run_predict_stage, cfg)


def diagnose(cfg: ExperimentConfig, stage) -> None:
    stage("experiment.diagnose", experiment.run_diagnostic_battery, cfg)


def plain_stage(_name: str, fn, *args):
    """The untraced stage call."""
    return fn(*args)
