import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselearn.cli import _build_parser
from phaselearn.cli import main as cli_main
from phaselearn.config import _SCHEMA, MODE_ALIASES, MODES, load_config, parse_config_text
from phaselearn.errors import ConfigError
from phaselearn.experiment import (
    emit_plots,
    run_diagnostic_battery,
    run_learning_experiment,
    run_predict_stage,
    run_train_stage,
)
from phaselearn.learner import LearnerPlan, PlanConstants, plan
from phaselearn.models import instantiate

REPO = Path(__file__).resolve().parents[1]
SCANS = ("lieb_robinson", "mixing", "ltqo", "compatibility", "stability")

SMALL_LEARNING = """
[model]
name = "pinning"
kappa0 = 1.0

[lattice]
dim = 1
extent = [6]
boundary = "open"

[targets]
epsilon = 0.3
delta = 0.1
delta_prime = 0.1
k0 = 1

[mode]
mode = "steady"

[observables]
specs = ["Z@3"]

[training]
n_cap = 100000
n_override = 6000
r_override = 1
gamma_override = 0.4
n_test = 12
sweep = [200, 1000]

[constants]
source = "explicit"
xi = 1.0
gamma_prime = 1.0
c_prime = 2.0

[run]
seed = 5
out = "PLACEHOLDER"
"""

SMALL_BATTERY = """
[model]
name = "pinning"
kappa0 = 1.0

[lattice]
dim = 1
extent = [5]
boundary = "open"

[targets]
epsilon = 0.3
delta = 0.1
delta_prime = 0.1

[mode]
mode = "steady"

[observables]
specs = ["Z@2"]

[run]
seed = 3
out = "PLACEHOLDER"
"""


# the training overrides of SMALL_LEARNING, each left to the prescription
DERIVED = {"n_override = 6000": 'n_override = "plan"', "r_override = 1\n": 'r_override = "plan"\n',
           "gamma_override = 0.4": 'gamma_override = "plan"'}


def _cfg(text: str, out: Path):
    cfg = parse_config_text(text)
    cfg.out_dir = str(out)
    return cfg


def _strict_json(path: Path):
    """The JSON document at ``path``, rejecting the non-JSON NaN and Infinity."""
    def reject(name: str):
        raise ValueError(f"{path.name} holds {name}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def _edit_plan(out: Path, **fields) -> None:
    """Rewrite plan.json with the given fields set, or dropped when None."""
    plan = json.loads((out / "plan.json").read_text())
    for key, value in fields.items():
        if value is None:
            del plan[key]
        else:
            plan[key] = value
    (out / "plan.json").write_text(json.dumps(plan))


def _edit_lines(path: Path, edit) -> None:
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


def _edit_first_record(index: int, change):
    """An edit of the shadows lines: field ``index`` of the first record
    (0 the values, 1 the basis, 2 the bits) replaced by ``change(field)``,
    the other records left alone."""
    def edit(lines: list[str]) -> list[str]:
        first = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        fields = lines[first].split(" ")
        fields[index] = change(fields[index])
        return lines[:first] + [" ".join(fields)] + lines[first + 1:]
    return edit


def _cut_tags(m: int):
    """An edit of the shadows lines: the ``# m`` header set to m and every
    record's values field cut to its first m tags and its tau."""
    def edit(lines: list[str]) -> list[str]:
        out = []
        for line in lines:
            fields = line.split(" ")
            if line.startswith("# m "):
                fields[2] = str(m)
            elif not line.startswith("#"):
                fields[0] = fields[0][:16 * m] + fields[0][-16:]
            out.append(" ".join(fields))
        return out
    return edit


def _as_v3(lines: list[str]) -> list[str]:
    """The v4 shadows lines as the v3 format wrote them: no ``# n`` line,
    and each record's tau as repr text after its x hex."""
    out = []
    for line in lines:
        if line.startswith("# n "):
            continue
        if line.startswith("# phaselearn-shadows"):
            line = "# phaselearn-shadows v3"
        elif not line.startswith("#"):
            values, basis, bits = line.split(" ")
            tau = repr(float(np.frombuffer(bytes.fromhex(values[-16:]), "<f8")[0]))
            line = " ".join([values[:-16] or "-", tau, basis, bits])
        out.append(line)
    return out


def _as_v2(lines: list[str]) -> list[str]:
    """The v4 shadows lines as the v2 format wrote them: the v3 lines
    without the ``# omega`` line, and each record's ancilla choice as its
    third field."""
    out = []
    for line in _as_v3(lines):
        if line.startswith("# omega"):
            continue
        if line.startswith("# phaselearn-shadows"):
            line = "# phaselearn-shadows v2"
        elif not line.startswith("#"):
            fields = line.split(" ")
            line = " ".join(fields[:2] + ["0"] + fields[2:])
        out.append(line)
    return out


def _cut_records(width: int):
    """An edit of the shadows lines: the ``# n`` header set to ``width`` and
    every record's basis and outcome strings cut to their first ``width``
    sites."""
    def edit(lines: list[str]) -> list[str]:
        out = []
        for line in lines:
            fields = line.split(" ")
            if line.startswith("# n "):
                fields[2] = str(width)
            elif not line.startswith("#"):
                fields[1], fields[2] = fields[1][:width], fields[2][:width]
            out.append(" ".join(fields))
        return out
    return edit


class TestConfig:
    def test_full_roundtrip(self, tmp_path):
        cfg = _cfg(SMALL_LEARNING, tmp_path)
        assert cfg.model_name == "pinning"
        assert cfg.lattice.n_sites == 6
        assert cfg.n_override == 6000
        assert cfg.sweep == [200, 1000]
        assert cfg.constants["xi"] == 1.0

    def test_from_plan_sentinel(self, tmp_path):
        text = SMALL_LEARNING.replace('n_override = 6000', 'n_override = "plan"')
        cfg = _cfg(text, tmp_path)
        assert cfg.n_override is None

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(SMALL_LEARNING.replace('"pinning"', '"nonsense"'))

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(SMALL_LEARNING.replace("epsilon = 0.3", "epsilon = 1.3"))

    def test_bad_observable_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(SMALL_LEARNING.replace('"Z@3"', '"Z@9"'))

    def test_malformed_region_nesting_rejected_before_run(self):
        text = SMALL_BATTERY + "\n[diagnostics]\na = [0, 4]\nr = [1, 2]\nw = [0, 1, 2, 3, 4]\n"
        with pytest.raises(ConfigError):
            parse_config_text(text)

    @pytest.mark.parametrize("regions", [
        "a = [1]\nr = [1, 2, 3]\nw = [0, 1, 2, 3, 4]",  # A on the boundary of R
        "a = [2]\nr = [1, 2, 3]\nw = [1, 2, 3, 4]",     # R on the boundary of W
    ])
    def test_region_on_enclosing_boundary_rejected(self, regions):
        with pytest.raises(ConfigError, match="boundary"):
            parse_config_text(SMALL_BATTERY + "\n[diagnostics]\n" + regions + "\n")

    def test_non_json_value_rejected(self):
        # json.loads admits NaN and +-Infinity, which JSON does not
        for old, new in (("seed = 5", "seed = five"), ("xi = 1.0", "xi = NaN"),
                         ("kappa0 = 1.0", "kappa0 = NaN"), ("epsilon = 0.3", "epsilon = Infinity"),
                         ("c_prime = 2.0", "c_prime = -Infinity"),
                         # numbers that overflow a float, which json.loads reads as +-inf
                         ("xi = 1.0", "xi = 1e999"), ("kappa0 = 1.0", "kappa0 = 1e999"),
                         ("gamma_override = 0.4", "gamma_override = -1e999")):
            with pytest.raises(ConfigError, match="not a JSON literal"):
                parse_config_text(SMALL_LEARNING.replace(old, new))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("old,new", [
        ("gamma_override = 0.4", "gamma_override = 0"),
        ("r_override = 1\n", "r_override = -1\n"),
        ("r_override = 1\n", "r_override = 1.5\n"),
        ("r_override = 1\n", "r_override = true\n"),
        ("n_override = 6000", "n_override = 0"),
        ("xi = 1.0", "xi = -1.0"),
        ("gamma_prime = 1.0", "gamma_prime = 0"),
        ("c_prime = 2.0", "c_prime = -2.0"),
    ], ids=["gamma_zero", "r_negative", "r_fraction", "r_boolean", "n_zero", "xi_negative",
            "gamma_prime_zero", "c_prime_negative"])
    def test_override_out_of_range_rejected(self, old, new):
        with pytest.raises(ConfigError, match=new.split(" ")[0]):
            parse_config_text(SMALL_LEARNING.replace(old, new))

    def test_unknown_run_key_ignored(self, tmp_path):
        # configs written for older versions may still carry [run] workers
        text = SMALL_LEARNING.replace("seed = 5", "seed = 5\nworkers = 4")
        assert _cfg(text, tmp_path) == _cfg(SMALL_LEARNING, tmp_path)

    @pytest.mark.parametrize("old,new,field,value", [
        ("n_cap = 100000", "n_cap = null", "n_cap", None),
        ("r_override = 1\n", 'r_override = "plan"\n', "r_override", None),
        ("kappa0 = 1.0", "kappa0 = 2", "hyper", {"kappa0": 2}),
    ], ids=["n_cap_null", "r_override_plan", "integer_as_number"])
    def test_typed_values_still_load(self, old, new, field, value):
        assert getattr(parse_config_text(SMALL_LEARNING.replace(old, new)), field) == value

    @pytest.mark.parametrize("source", [
        "README.md", "scripts/configs/pinning_steady.cfg", "scripts/configs/tfim_diagnostics.cfg",
    ])
    def test_documented_configs_parse(self, source):
        text = (REPO / source).read_text()
        if source == "README.md":
            section = text.split("## Configuration format")[1]
            text = section.split("```ini\n")[1].split("```")[0]
        parse_config_text(text)

    def test_readme_names_existing_scripts_and_verbs(self):
        text = (REPO / "README.md").read_text()
        paths = {p.rstrip(".") for p in re.findall(r"scripts/[\w./-]+", text)}
        assert paths and [p for p in sorted(paths) if not (REPO / p).exists()] == []
        verb = next(a for a in _build_parser()._actions if a.dest == "verb")
        named = set(re.findall(r"\bphaselearn (\w+)", text))
        assert named and named <= set(verb.choices)

    def test_mode_aliases_name_every_learning_mode(self):
        assert set(MODE_ALIASES.values()) == set(MODES)

    def test_readme_key_table_matches_schema(self):
        section = (REPO / "README.md").read_text().split("## Configuration format")[1]
        rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| ([^|]+) \|", section, re.M)
        assert {(s, k): t.strip() for s, k, t in rows} == {
            (s, k): kind for s, keys in _SCHEMA.items() for k, (_, kind) in keys.items()}


class TestLearningRun:
    def test_bundle_files_and_summary(self, tmp_path):
        cfg = _cfg(SMALL_LEARNING, tmp_path)
        manifest = run_learning_experiment(cfg)
        for name in ("plan.json", "training.shadows", "predictions.csv",
                     "coverage.json", "summary.json", "error_vs_n.svg", "timing.log"):
            assert (tmp_path / name).exists(), name
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["used_N"] == 6000
        assert summary["n_exact"] == 12
        assert summary["success_fraction"] >= 0.8
        assert len(summary["sweep"]) == 2
        header = (tmp_path / "predictions.csv").read_text().split("\n")[0]
        assert header == "index,x_digest,tau,f_exact,f_pred,abs_error,min_cell_count,fallback"
        assert "timing" in manifest

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg1 = _cfg(SMALL_LEARNING, tmp_path / "a")
        cfg2 = _cfg(SMALL_LEARNING, tmp_path / "b")
        run_learning_experiment(cfg1)
        run_learning_experiment(cfg2)
        for name in ("plan.json", "training.shadows", "predictions.csv",
                     "coverage.json", "summary.json", "error_vs_n.svg"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between reruns"

    def test_staged_run_matches_monolith(self, tmp_path):
        cfg_m = _cfg(SMALL_LEARNING, tmp_path / "mono")
        run_learning_experiment(cfg_m)
        cfg_s = _cfg(SMALL_LEARNING, tmp_path / "staged")
        run_train_stage(cfg_s)
        run_predict_stage(cfg_s)
        for name in ("plan.json", "training.shadows", "predictions.csv", "summary.json"):
            assert (tmp_path / "mono" / name).read_bytes() == \
                (tmp_path / "staged" / name).read_bytes()

    def test_predict_stage_needs_bundle(self, tmp_path):
        cfg = _cfg(SMALL_LEARNING, tmp_path)
        with pytest.raises(ConfigError):
            run_predict_stage(cfg)

    def test_no_exact_values_above_dense_cap(self, tmp_path):
        # a non-oracle model on 7 sites has no exact values; the summary says
        # so through n_exact instead of a bare null success_fraction
        text = (SMALL_LEARNING.replace('name = "pinning"\nkappa0 = 1.0',
                                       'name = "dissipative_tfim"')
                .replace("extent = [6]", "extent = [7]")
                .replace("n_test = 12", "n_test = 3"))
        cfg = _cfg(text, tmp_path)
        m = 13  # 7 site fields and 6 bond couplings
        constants = {"J": 10.0, "ell": 1, "r0": 1, "D": 1, "n": 7, "m": m, "k0": 1,
                     "M": 1, "W": 1, "xi": 1.0, "gamma_prime": 1.0, "c_prime": 2.0,
                     "kappa": 1.0, "f_n": None}
        (tmp_path / "plan.json").write_text(json.dumps({
            "epsilon": 0.3, "delta": 0.1, "delta_prime": 0.1, "mode": "steady_state",
            "r": 1, "gamma": 0.4, "q": 5, "t_eps": None, "N": 4, "N_log2": 2.0,
            "capped": True, "n_cap": 4, "mom_batches": 1, "constants": constants,
        }))
        header = ["# phaselearn-shadows v4", "# model dissipative_tfim",
                  f"# lattice {cfg.lattice.to_json()}", "# mode steady_state",
                  "# seed 5", "# omega 0", f"# m {m}", "# n 7"]
        records = [f"{np.append(np.full(m, v), np.inf).astype('<f8').tobytes().hex()} "
                   f"{basis} {bits}"
                   for v, basis, bits in [
                       (-0.5, "ZZZZZZZ", "0000000"), (0.0, "XXXXXXX", "0101010"),
                       (0.25, "YYYYYYY", "1111111"), (0.5, "XYZXYZX", "0011001")]]
        (tmp_path / "training.shadows").write_text("\n".join(header + records) + "\n")
        run_predict_stage(cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_test"] == 3
        assert summary["n_exact"] == 0
        assert summary["success_fraction"] is None
        rows = (tmp_path / "predictions.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 and all(r.split(",")[3] == "" for r in rows)

    def test_sweep_without_exact_values_is_strict_json(self, tmp_path, monkeypatch):
        # no test point has an exact value: the sweep's medians are null in
        # summary.json
        import phaselearn.experiment as experiment

        monkeypatch.setattr(experiment, "_exact_values", lambda model, X, *_: [None] * len(X))
        run_learning_experiment(_cfg(SMALL_LEARNING, tmp_path))
        summary = _strict_json(tmp_path / "summary.json")
        assert summary["sweep"] == [[200, None], [1000, None]]
        for path in tmp_path.glob("*.json"):
            _strict_json(path)

    def test_astronomical_cell_count_is_strict_json(self, tmp_path):
        # m_r = 128 coordinates of 2000 cells each: a cell count past exp(700)
        # is null in coverage.json, and its fraction 0
        text = (REPO / "scripts/configs/pinning_steady.cfg").read_text()
        for old, new in (("extent = [8]", "extent = [128]"),
                         ('specs = ["Z@4"]', 'specs = ["Z@64"]'),
                         ("r_override = 1", "r_override = 127"),
                         ("gamma_override = 0.25", "gamma_override = 0.001\nn_override = 200")):
            assert old in text
            text = text.replace(old, new)
        run_learning_experiment(_cfg(text, tmp_path))
        (entry,) = _strict_json(tmp_path / "coverage.json")["entries"]
        assert (entry["m_r"], entry["total_cells"], entry["fraction"]) == (128, None, 0.0)
        assert entry["occupied"] == 200
        for path in tmp_path.glob("*.json"):
            _strict_json(path)

    def test_ancilla_choice_run(self, tmp_path):
        text = SMALL_LEARNING.replace('mode = "steady"', 'mode = "steady"\nomega = 1')
        text = text.replace("n_override = 6000", "n_override = 800")
        text = text.replace("sweep = [200, 1000]", "sweep = []")
        cfg = _cfg(text, tmp_path)
        assert cfg.omega == 1
        run_learning_experiment(cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["used_N"] == 800
        # the header names the ancilla choice once, and snapshots still cover
        # exactly the six system sites
        lines = (tmp_path / "training.shadows").read_text().split("\n")
        assert [l for l in lines if l.startswith("# omega")] == ["# omega 1"]
        assert [l for l in lines if l.startswith("# n ")] == ["# n 6"]
        first_record = [l for l in lines if l and not l.startswith("#")][0]
        assert len(first_record.split(" ")[1]) == 6

    def test_ancilla_on_periodic_lattice_rejected(self):
        text = SMALL_LEARNING.replace('mode = "steady"', 'mode = "steady"\nomega = 1')
        text = text.replace('boundary = "open"', 'boundary = "periodic"')
        with pytest.raises(ConfigError):
            parse_config_text(text)


class TestOutputBundle:
    def test_readme_table_names_every_output(self, tmp_path):
        # the files of README's "Output bundle" table, diag_* expanded per
        # scan, are those a small sweep and the n=3 battery write
        section = (REPO / "README.md").read_text().split("## Output bundle")[1].split("\n## ")[0]
        named = set()
        for cell in re.findall(r"^\| (`[^|]+`) \|", section, re.M):
            for name in re.findall(r"`([^`]+)`", cell):
                if name.startswith("diag_*"):
                    named |= {f"diag_{scan}{suffix}" for scan in SCANS
                              for suffix in name.removeprefix("diag_*").replace("/", " ").split()}
                else:
                    named.add(name)
        sweep = SMALL_LEARNING.replace("n_override = 6000", "n_override = 50")
        battery = SMALL_BATTERY.replace("extent = [5]", "extent = [3]").replace("Z@2", "Z@1")
        run_learning_experiment(_cfg(sweep, tmp_path / "sweep"))
        run_diagnostic_battery(_cfg(battery, tmp_path / "battery"))
        written = {f.name for d in ("sweep", "battery") for f in (tmp_path / d).iterdir()}
        assert named == written


class TestTrainingStates:
    @staticmethod
    def _model():
        from phaselearn.lattice import Lattice
        from phaselearn.models import instantiate

        return instantiate("dissipative_tfim", Lattice(1, (3,), "open"))

    def _reference(self, X, taus, key):
        # one generate_state and one reference measurement per point
        import shadows_reference
        from phaselearn.models import generate_state

        ref = self._model()
        rows = [shadows_reference.measure_snapshot(generate_state(ref, X[i], float(taus[i])),
                                                   key, row=i, n_system=3)
                for i in range(len(X))]
        return np.array([b for b, _ in rows]), np.array([o for _, o in rows])

    def _check(self, monkeypatch, t_eps) -> int:
        """Compare the chunked training states over three chunks with the
        reference; the number of SuperLU factorizations they took."""
        from phaselearn import experiment, lindblad
        from phaselearn.models import sample_parameters

        N = 2 * lindblad.STEADY_CHUNK + 5
        X, taus = sample_parameters(self._model(), N, t_eps, 21)
        assert np.isinf(taus).all() == (t_eps is None)
        key = 1234
        want_bases, want_outcomes = self._reference(X, taus, key)
        calls = []

        def counted(*args, _splu=lindblad.spla.splu, **kwargs):
            calls.append(args)
            return _splu(*args, **kwargs)
        monkeypatch.setattr(lindblad.spla, "splu", counted)
        bases, outcomes = experiment._training_states(self._model(), X, taus, key, 0)
        assert bases.tobytes() == want_bases.astype(np.int8).tobytes()
        assert outcomes.tobytes() == want_outcomes.astype(np.int8).tobytes()
        return len(calls)

    def test_chunks_match_one_state_at_a_time(self, monkeypatch):
        # a steady-mode training set over three chunks writes the bases and
        # outcomes of one generate_state + reference measurement per point, and
        # factors each snapshot's generator once
        from phaselearn import lindblad

        assert self._check(monkeypatch, None) == 2 * lindblad.STEADY_CHUNK + 5

    def test_general_chunks_match_one_state_at_a_time(self, monkeypatch):
        # the same at finite tau: evolved states, measured a stack at a time
        assert self._check(monkeypatch, 2.0) == 0


class TestPlanOverrides:
    """The training overrides enter learner.plan, which derives the rest of the
    prescription at them; shipped pinning config, measured constants."""

    def _plan(self, tmp_path, edits=()) -> tuple[int, dict]:
        text = (REPO / "scripts/configs/pinning_steady.cfg").read_text()
        for old, new in edits:
            text = text.replace(old, new)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "out"
        rc = cli_main(["plan", "--config", str(cfg_file), "--out", str(out)])
        return rc, json.loads((out / "plan.json").read_text()) if rc == 0 else {}

    @pytest.mark.parametrize("edits", [
        (),
        (("r_override = 1", "r_override = 2"),),
        (("gamma_override = 0.25", 'gamma_override = "plan"'),),
    ], ids=["shipped", "r_2", "gamma_derived"])
    def test_plan_json_is_the_prescription_at_its_r_and_gamma(self, tmp_path, edits):
        rc, written = self._plan(tmp_path, edits)
        assert rc == 0
        p = LearnerPlan.from_json(json.dumps(written))
        at_own = plan(p.epsilon, p.delta, p.delta_prime, p.constants, p.mode,
                      n_cap=p.n_cap, r=p.r, gamma=p.gamma)
        c = p.constants
        assert written["m_r"] == at_own.m_r == (2 * (p.r + c.r0 + c.k0)) ** c.D * c.ell
        assert written["N_log2"] == at_own.N_log2
        assert written["capped"] == at_own.capped and p.N == 100_000
        if not edits:
            assert (p.r, p.gamma, written["m_r"]) == (1, 0.25, 4)
            assert round(p.N_log2, 2) == 27.19

    def test_r_override_alone_derives_gamma_at_that_r(self, tmp_path):
        rc, written = self._plan(tmp_path, [("gamma_override = 0.25", 'gamma_override = "plan"')])
        assert rc == 0
        c = LearnerPlan.from_json(json.dumps(written)).constants
        assert written["r"] == 1
        assert written["gamma"] == 0.3 / (2.0 * (2.0 * (1 + c.k0)) ** c.D * c.J * c.ell)
        assert written["gamma"] == pytest.approx(0.009375, rel=1e-12)

    def test_n_override_bounds_an_overflowing_prescription(self, tmp_path):
        edits = [("n_cap = 100000", "n_cap = null\nn_override = 1000"),
                 ("r_override = 1", 'r_override = "plan"'),
                 ("gamma_override = 0.25", 'gamma_override = "plan"')]
        rc, written = self._plan(tmp_path, edits)
        assert rc == 0
        assert written["N"] == 1000 and written["capped"] and written["N_log2"] > 63
        # without the override the same prescription is infeasible
        rc, _ = self._plan(tmp_path, edits[:1] + [("n_override = 1000", "")] + edits[1:])
        assert rc == 3


class TestBattery:
    def test_pinning_battery_all_pass(self, tmp_path):
        cfg = _cfg(SMALL_BATTERY, tmp_path)
        run_diagnostic_battery(cfg)
        battery = json.loads((tmp_path / "battery.json").read_text())
        assert battery["all_pass"] is True
        for scan in ("lieb_robinson", "mixing", "ltqo", "compatibility", "stability"):
            assert (tmp_path / f"diag_{scan}.csv").exists()
            assert (tmp_path / f"diag_{scan}.svg").exists()

    def test_timing_log_has_one_line_per_scan(self, tmp_path):
        run_diagnostic_battery(_cfg(SMALL_BATTERY, tmp_path))
        lines = (tmp_path / "timing.log").read_text().splitlines()
        assert lines[0].startswith("wall_clock_seconds ")
        scans = [line.split(" ") for line in lines[1:]]
        assert [(tag, name) for tag, name, _ in scans] == [
            ("scan_seconds", name) for name in
            ("lieb_robinson", "mixing", "ltqo", "compatibility", "stability")]
        assert all(float(s) >= 0.0 for _, _, s in scans)

    def test_battery_rerun_identical(self, tmp_path):
        cfg1 = _cfg(SMALL_BATTERY, tmp_path / "a")
        cfg2 = _cfg(SMALL_BATTERY, tmp_path / "b")
        run_diagnostic_battery(cfg1)
        run_diagnostic_battery(cfg2)
        for f in sorted((tmp_path / "a").glob("*.csv")):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
        assert (tmp_path / "a" / "battery.json").read_bytes() == \
            (tmp_path / "b" / "battery.json").read_bytes()


class TestPlots:
    def test_empty_series_annotated(self, tmp_path):
        import io

        from phaselearn.plotting import decay_plot_svg

        buf = io.StringIO()
        decay_plot_svg(buf, "t", "radius", [0, 1, 2], [0.0, 0.0, 0.0])
        assert "no data above floor" in buf.getvalue()

    @pytest.mark.parametrize("n_log2,drawn", [(math.log2(300.0), True), (2000.0, False)])
    def test_planned_n_marker(self, tmp_path, n_log2, drawn):
        # a prescription too large for a float leaves the marker out
        consts = PlanConstants(J=4.0, ell=1, r0=0, D=1, n=6, m=6)
        p = replace(plan(0.3, 0.1, 0.1, consts, n_cap=100), N_log2=n_log2)
        (tmp_path / "plan.json").write_text(p.to_json() + "\n")
        (tmp_path / "summary.json").write_text(json.dumps({"sweep": [[100, 0.2], [1000, 0.1]]}))
        manifest = emit_plots(tmp_path, "pinning")
        assert manifest["error_vs_n"] == "error_vs_n.svg"
        assert ("planned N" in (tmp_path / "error_vs_n.svg").read_text()) == drawn

    def test_exponential_fit_in_legend(self, tmp_path):
        from phaselearn.diagnostics import fit_decay

        ts = np.array([0.5, 1.0, 1.5, 2.0])
        fit = fit_decay(ts, 2.0 * np.exp(-0.7 * ts))
        (tmp_path / "diag_demo.json").write_text(json.dumps(fit.to_json_dict()))
        manifest = emit_plots(tmp_path, "pinning")
        svg = (tmp_path / "diag_demo.svg").read_text()
        assert "fit rate 0.7" in svg
        assert manifest["diag_demo"] == "diag_demo.svg"

    def test_envelope_overlay_present(self, tmp_path):
        import io

        from phaselearn.plotting import decay_plot_svg

        buf = io.StringIO()
        decay_plot_svg(buf, "t", "radius", [0, 1, 2], [1.0, 0.5, 0.2],
                       envelope=[2.0, 1.0, 0.5])
        assert "envelope" in buf.getvalue()


class TestCli:
    def _write_cfg(self, tmp_path, text):
        p = tmp_path / "exp.cfg"
        p.write_text(text.replace("PLACEHOLDER", str(tmp_path / "out")))
        return p

    def test_plan_verb(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path, SMALL_LEARNING)
        rc = cli_main(["plan", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "plan.json").exists()

    def test_mode_flag_overrides_config(self, tmp_path):
        p = self._write_cfg(tmp_path, SMALL_LEARNING)  # mode = "steady"
        out = tmp_path / "out"
        assert cli_main(["plan", "--config", str(p), "--out", str(out),
                         "--mode", "general"]) == 0
        written = json.loads((out / "plan.json").read_text())
        assert written["mode"] == "general_phase"
        assert written["t_eps"] is not None
        # slow mode needs f_n, which the config does not set
        assert cli_main(["plan", "--config", str(p), "--out", str(out),
                         "--mode", "slow"]) == 2

    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[model]\nname = \"nonsense\"\n")
        assert cli_main(["plan", "--config", str(p)]) == 2

    def test_region_geometry_exit_code(self, tmp_path):
        text = SMALL_BATTERY.replace("extent = [5]", "extent = [4]")
        text += "\n[diagnostics]\na = [2]\nr = [1, 2]\nw = [1, 2, 3]\n"
        p = self._write_cfg(tmp_path, text)
        assert cli_main(["diagnose", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("old,new,key", [
        ("dim = 1\nextent = [5]", "dim = 2\nextent = [2, 3]", "[lattice] dim"),
        ('mode = "steady"', 'mode = "steady"\nomega = 1', "[mode] omega"),
    ], ids=["lattice_2d", "ancillas"])
    def test_battery_geometry_rejected_before_scans(self, tmp_path, capsys, old, new, key):
        # the compatibility scan cuts the chain into sub-chains; no scan may run first
        p = self._write_cfg(tmp_path, SMALL_BATTERY.replace(old, new))
        out = tmp_path / "o"
        assert cli_main(["diagnose", "--config", str(p), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not list(out.glob("diag_*"))

    def test_corrupt_shadows_exit_code(self, tmp_path):
        p = self._write_cfg(tmp_path, SMALL_LEARNING.replace("n_override = 6000",
                                                             "n_override = 50"))
        out = tmp_path / "out"
        assert cli_main(["train", "--config", str(p), "--out", str(out)]) == 0
        lines = (out / "training.shadows").read_text().split("\n")
        fields = lines[-2].split(" ")
        fields[2] = "2" + fields[2][1:]
        lines[-2] = " ".join(fields)
        (out / "training.shadows").write_text("\n".join(lines))
        assert cli_main(["predict", "--config", str(p), "--out", str(out)]) == 2

    def test_infeasible_plan_exit_code(self, tmp_path):
        text = SMALL_LEARNING.replace("n_cap = 100000", "n_cap = null")
        text = text.replace("epsilon = 0.3", "epsilon = 0.05")
        for old, new in DERIVED.items():
            text = text.replace(old, new)
        p = self._write_cfg(tmp_path, text)
        assert cli_main(["plan", "--config", str(p), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("edits,message", [
        ({"n_cap = 100000": "n_cap = null", "epsilon = 0.3": "epsilon = 0.05", **DERIVED},
         "exceeds 2**63"),
        ({'mode = "steady"': 'mode = "general"', "gamma_prime = 1.0": "gamma_prime = 1e4"},
         "regime"),
        ({"epsilon = 0.3": "epsilon = 1e-160"}, "snapshot count q overflows"),
        ({"epsilon = 0.3": "epsilon = 1e-320"}, "snapshot count q overflows"),
    ], ids=["overflow", "horizon_below_cell_width", "q_overflows", "eps2_underflows"])
    def test_infeasible_plan_message(self, tmp_path, capsys, edits, message):
        text = SMALL_LEARNING
        for old, new in edits.items():
            text = text.replace(old, new)
        p = self._write_cfg(tmp_path, text)
        assert cli_main(["plan", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert message in err and err.count("plan infeasible") == 1

    def test_diagnose_and_plot_verbs(self, tmp_path):
        p = self._write_cfg(tmp_path, SMALL_BATTERY)
        out = tmp_path / "out"
        assert cli_main(["diagnose", "--config", str(p), "--out", str(out)]) == 0
        drawn = {f.name: f.read_bytes() for f in out.glob("diag_*.svg")}
        assert len(drawn) == 5
        assert cli_main(["plot", "--config", str(p), "--out", str(out)]) == 0
        assert {f.name: f.read_bytes() for f in out.glob("diag_*.svg")} == drawn

    @pytest.mark.parametrize("verb,text", [
        ("diagnose", SMALL_BATTERY),
        ("sweep", SMALL_LEARNING.replace("n_override = 6000", "n_override = 50").replace(
            "sweep = [200, 1000]", "sweep = [20, 50]")),
    ])
    def test_plot_rebuilds_svgs_from_json_alone(self, tmp_path, verb, text):
        # plot reads the JSON documents only: without the bundle's CSVs (and
        # its SVGs) it draws every SVG the stage drew, byte for byte
        p = self._write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli_main([verb, "--config", str(p), "--out", str(out)]) == 0
        drawn = {f.name: f.read_bytes() for f in out.glob("*.svg")}
        assert len(drawn) == (5 if verb == "diagnose" else 1)
        for f in [*out.glob("*.csv"), *out.glob("*.svg")]:
            f.unlink()
        assert cli_main(["plot", "--config", str(p), "--out", str(out)]) == 0
        assert {f.name: f.read_bytes() for f in out.glob("*.svg")} == drawn

    @pytest.mark.parametrize("verb,text", [
        ("plan", SMALL_LEARNING.replace(
            'source = "explicit"\nxi = 1.0\ngamma_prime = 1.0\nc_prime = 2.0',
            'source = "measure"')),
        ("diagnose", SMALL_BATTERY),
    ])
    def test_certified_velocity_overflow_exit_code(self, tmp_path, capsys, verb, text):
        # kappa0 = 400 certifies v = 3.2e3, so the envelope's e^(vt) at t = 1
        # overflows in the Lieb-Robinson scan that both verbs run
        p = self._write_cfg(tmp_path, text.replace("kappa0 = 1.0", "kappa0 = 400"))
        assert cli_main([verb, "--config", str(p), "--out", str(tmp_path / "o")]) == 4
        assert "numerical failure: e^(vt) overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,named", [
        ("n_test = 12", "n_tests = 12", "[training] n_tests"),
        ("[run]", "[extras]\nx = 1\n\n[run]", "[extras]"),
        ("kappa0 = 1.0", "kapa0 = 1.0", "kapa0"),
        ("c_prime = 2.0", "c_prime = 2.0\nkappa_exponent = 1.0", "[constants] kappa_exponent"),
    ], ids=["training_key", "section", "hyperparameter", "retired_kappa_exponent"])
    def test_unknown_config_entry_exit_code(self, tmp_path, capsys, old, new, named):
        p = self._write_cfg(tmp_path, SMALL_LEARNING.replace(old, new))
        assert cli_main(["plan", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,named", [
        ("epsilon = 0.3", 'epsilon = "0.3"', "[targets] epsilon"),
        ("extent = [6]", "extent = 6", "[lattice] extent"),
        ("seed = 5", "seed = 7.5", "[run] seed"),
        ("n_test = 12", 'n_test = "50"', "[training] n_test"),
        ("kappa0 = 1.0", 'kappa0 = "1"', "[model] kappa0"),
        ("sweep = [200, 1000]", "sweep = 100", "[training] sweep"),
        ('specs = ["Z@3"]', 'specs = "Z@3"', "[observables] specs"),
        ('mode = "steady"', 'mode = "steady"\nomega = true', "[mode] omega"),
        ("k0 = 1", "k0 = 1.5", "[targets] k0"),
        ("xi = 1.0", "xi = NaN", "[constants] xi"),
        ("xi = 1.0", "xi = -1.0", "[constants] xi"),
        ("xi = 1.0", "xi = 1e999", "[constants] xi"),
        ("gamma_override = 0.4", "gamma_override = 1e999", "[training] gamma_override"),
        ("kappa0 = 1.0", "kappa0 = 1e999", "[model] kappa0"),
        # integers too large for a float, which json.loads reads as int
        ("xi = 1.0", "xi = 1" + "0" * 400, "[constants] xi"),
        ("kappa0 = 1.0", "kappa0 = 1" + "0" * 400, "[model] kappa0"),
    ], ids=["epsilon_string", "extent_scalar", "seed_fraction", "n_test_string",
            "hyperparameter_string", "sweep_scalar", "specs_scalar", "omega_boolean",
            "k0_fraction", "xi_nan", "xi_negative", "xi_overflow", "gamma_overflow",
            "kappa0_overflow", "xi_huge_integer", "kappa0_huge_integer"])
    def test_malformed_value_exit_code(self, tmp_path, capsys, old, new, named):
        p = self._write_cfg(tmp_path, SMALL_LEARNING.replace(old, new))
        assert cli_main(["plan", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("verb,edits", [
        ("plan", {"kappa0 = 1.0": "kappa0 = 0"}),
        ("diagnose", {'name = "pinning"\nkappa0 = 1.0': 'name = "dissipative_tfim"\nkappa = -1.0'}),
        ("plan", {'name = "pinning"\nkappa0 = 1.0': 'name = "dissipative_tfim"',
                  "dim = 1\nextent = [6]": "dim = 2\nextent = [2, 3]"}),
    ], ids=["pinning_kappa0_zero", "tfim_kappa_negative", "tfim_2d"])
    def test_model_build_error_exit_code(self, tmp_path, capsys, verb, edits):
        # the family builder rejects the hyperparameters or the lattice
        text = SMALL_LEARNING
        for old, new in edits.items():
            text = text.replace(old, new)
        p = self._write_cfg(tmp_path, text)
        assert cli_main([verb, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "config error: [model]" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["plan", "train", "predict", "diagnose", "sweep", "plot"])
    @pytest.mark.parametrize("spec", ["", "@"], ids=["empty", "at_only"])
    def test_siteless_observable_exit_code(self, tmp_path, capsys, verb, spec):
        # a spec naming no site would be an empty-support observable
        text = SMALL_LEARNING.replace('specs = ["Z@3"]', f'specs = ["{spec}"]')
        p = self._write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert cli_main([verb, "--config", str(p), "--out", str(out)]) == 2
        assert f"bad observable {spec!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trained,asked", [(1, 0), (0, 1)])
    def test_ancilla_mismatch_exit_code(self, tmp_path, capsys, trained, asked):
        text = SMALL_LEARNING.replace("n_override = 6000", "n_override = 50")
        out = str(tmp_path / "out")
        for omega, verb, code in ((trained, "train", 0), (asked, "predict", 2)):
            p = self._write_cfg(tmp_path, text.replace('mode = "steady"',
                                                       f'mode = "steady"\nomega = {omega}'))
            assert cli_main([verb, "--config", str(p), "--out", out]) == code
        err = capsys.readouterr().err
        assert f"training.shadows omega is {trained}, config asks for {asked}" in err

    @pytest.mark.parametrize("verb,spoil,flags,named", [
        ("predict", lambda out, p: (out / "plan.json").write_text("not json"), [], "plan.json"),
        ("predict", lambda out, p: _edit_plan(out, r=None), [], "'r'"),
        ("plot", lambda out, p: (out / "plan.json").write_text("not json"), [], "plan.json"),
        ("predict", lambda out, p: _edit_lines(out / "training.shadows", lambda lines: [
            l for l in lines if l.startswith("#")]), [], "training.shadows holds no records"),
        ("predict", lambda out, p: _edit_lines(p, lambda lines: [
            l.replace("extent = [6]", "extent = [8]") for l in lines]), [],
         "training.shadows lattice"),
        ("predict", lambda out, p: _edit_lines(out / "training.shadows", _cut_records(3)), [],
         "training.shadows n is 3, config asks for 6"),
        ("predict", lambda out, p: _edit_lines(out / "training.shadows", _cut_tags(3)), [],
         "training.shadows m is 3, config asks for 6"),
        ("predict", lambda out, p: None, ["--mode", "general"], "training.shadows mode"),
        ("predict", lambda out, p: _edit_plan(out, mode="general_phase"), [], "plan.json mode"),
        ("predict", lambda out, p: _edit_lines(out / "training.shadows", lambda lines: [
            l.replace("# omega 0", "# omega 1") for l in lines]), [],
         "training.shadows omega is 1, config asks for 0"),
        ("predict", lambda out, p: _edit_lines(out / "training.shadows", lambda lines: [
            l.replace("shadows v4", "shadows v1") for l in lines]), [],
         "line 1: shadows format v1"),
        ("predict", lambda out, p: _edit_lines(out / "training.shadows", _as_v2), [],
         "line 1: shadows format v2 is not readable; this reader reads v4, so rerun the "
         "train stage"),
        ("predict", lambda out, p: _edit_lines(out / "training.shadows", _as_v3), [],
         "line 1: shadows format v3 is not readable; this reader reads v4, so rerun the "
         "train stage"),
        ("predict", lambda out, p: _edit_lines(out / "training.shadows", _edit_first_record(
            0, lambda f: "000000000000f87f" + f[16:])), [], "line 9: x tags must be finite"),
        ("predict", lambda out, p: _edit_lines(out / "training.shadows", _edit_first_record(
            0, lambda f: f[:-16] + "00000000000008c0")), [], "line 9: tau must be inf"),
        ("predict", lambda out, p: _edit_plan(out, r="1"), [], "plan.json r: expected integer"),
        ("predict", lambda out, p: _edit_plan(out, gamma="0.2"), [],
         "plan.json gamma: expected number"),
        ("predict", lambda out, p: _edit_plan(out, capped=0), [],
         "plan.json capped: expected boolean"),
        ("predict", lambda out, p: _edit_plan(out, constants={
            **json.loads((out / "plan.json").read_text())["constants"], "xi": "1"}), [],
         "plan.json constants.xi: expected number"),
        ("plot", lambda out, p: _edit_plan(out, N_log2="8"), [],
         "plan.json N_log2: expected number"),
        ("predict", lambda out, p: _edit_plan(out, gamma=0.0), [], "plan.json gamma"),
        ("predict", lambda out, p: _edit_plan(out, r=-1), [], "plan.json r"),
        ("predict", lambda out, p: _edit_plan(out, delta_prime=2.0), [],
         "plan.json delta_prime"),
        ("predict", lambda out, p: _edit_plan(out, N=0), [], "plan.json N"),
        ("predict", lambda out, p: _edit_plan(out, q=0), [], "plan.json q"),
        ("predict", lambda out, p: _edit_plan(out, t_eps=1.0), [], "plan.json t_eps"),
        ("predict", lambda out, p: _edit_plan(out, mode="general_phase", t_eps=-1.0), [],
         "plan.json t_eps"),
        ("plot", lambda out, p: _edit_plan(out, gamma=-0.5), [], "plan.json gamma"),
        ("plot", lambda out, p: (out / "summary.json").write_text("not json"), [],
         "summary.json is malformed"),
        ("plot", lambda out, p: (out / "summary.json").write_text('{"used_N": 50}'), [],
         "summary.json is malformed: KeyError('sweep')"),
        ("plot", lambda out, p: (out / "diag_mixing.json").write_text("not json"), [],
         "diag_mixing.json is malformed"),
        ("plot", lambda out, p: (out / "diag_ltqo.json").write_text('{"rate": 1.0}'), [],
         "diag_ltqo.json is malformed: KeyError('abscissa_label')"),
    ], ids=["plan_not_json", "plan_missing_field", "plot_plan_not_json",
            "shadows_without_records", "lattice_mismatch", "records_too_narrow",
            "tags_too_few",
            "mode_mismatch",
            "plan_mode_mismatch", "omega_mismatch", "shadows_v1", "shadows_v2", "shadows_v3",
            "x_nan",
            "tau_negative",
            "plan_r_string", "plan_gamma_string",
            "plan_capped_integer", "plan_constant_string", "plot_n_log2_string",
            "plan_gamma_zero", "plan_r_negative", "plan_delta_prime_two", "plan_n_zero",
            "plan_q_zero", "plan_t_eps_in_steady_mode", "plan_t_eps_negative",
            "plot_gamma_negative", "plot_summary_not_json", "plot_summary_missing_sweep",
            "plot_diag_not_json", "plot_diag_missing_field"])
    def test_bad_bundle_exit_code(self, tmp_path, capsys, verb, spoil, flags, named):
        # spoil(out dir, config path) damages the bundle or edits the config
        text = SMALL_LEARNING.replace("n_override = 6000", "n_override = 50")
        out = tmp_path / "out"
        p = self._write_cfg(tmp_path, text)
        assert cli_main(["train", "--config", str(p), "--out", str(out)]) == 0
        spoil(out, p)
        assert cli_main([verb, "--config", str(p), "--out", str(out), *flags]) == 2
        assert named in capsys.readouterr().err

    def test_sweep_sizes_capped_at_n_run_once(self, tmp_path, monkeypatch):
        # both sweep sizes cap at N = 50: one row, and one prediction per test
        # point for each distinct size (the run's, then the sweep's), all from
        # one pass over the bundle
        import phaselearn.experiment as experiment

        calls, reads = [], []
        real_predict, real_read = experiment.predict, experiment.read_shadows
        monkeypatch.setattr(experiment, "predict", lambda fold, i, size=None: (
            calls.append(size) or real_predict(fold, i, size)))
        monkeypatch.setattr(experiment, "read_shadows",
                            lambda fh: reads.append(fh.name) or real_read(fh))
        text = SMALL_LEARNING.replace("n_override = 6000", "n_override = 50")
        p = self._write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert cli_main(["sweep", "--config", str(p), "--out", str(out)]) == 0
        assert [n for n, _ in json.loads((out / "summary.json").read_text())["sweep"]] == [50]
        assert calls == [None] * 12 + [50] * 12  # 12 test points, then 12 for the one sweep size
        assert reads == [str(out / "training.shadows")]

    def test_missing_sweep_list_rejected(self, tmp_path):
        text = SMALL_LEARNING.replace("sweep = [200, 1000]", "")
        p = self._write_cfg(tmp_path, text)
        assert cli_main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_seed_override_changes_training(self, tmp_path):
        p = self._write_cfg(tmp_path, SMALL_LEARNING)
        rc1 = cli_main(["train", "--config", str(p), "--out", str(tmp_path / "s1"),
                        "--seed", "1"])
        rc2 = cli_main(["train", "--config", str(p), "--out", str(tmp_path / "s2"),
                        "--seed", "2"])
        assert rc1 == rc2 == 0
        assert (tmp_path / "s1" / "training.shadows").read_bytes() != \
            (tmp_path / "s2" / "training.shadows").read_bytes()


def _chunk_config(text: str, model: str, mode: str, N: int) -> str:
    """SMALL_LEARNING-style text for ``model`` on 3 sites (TFIM) or 6 (pinning),
    in ``mode``, with N training records."""
    text = text.replace("n_override = 6000", f"n_override = {N}")
    text = text.replace('mode = "steady"', f'mode = "{mode}"')
    if model == "dissipative_tfim":
        text = text.replace('name = "pinning"\nkappa0 = 1.0',
                            'name = "dissipative_tfim"\ng = 0.5\nkappa = 1.0')
        text = text.replace("extent = [6]", "extent = [3]").replace("Z@3", "Z@1")
    return text


class TestChunkedStages:
    """The train and predict stages hold one chunk of ``_CHUNK_ROWS`` records
    at a time; the bytes they write do not depend on the chunk size."""

    @given(model=st.sampled_from(["pinning", "dissipative_tfim"]),
           mode=st.sampled_from(["steady", "general"]), N=st.integers(1, 12),
           chunk=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=24, deadline=None)
    def test_train_bytes_match_whole_array_reference(self, model, mode, N, chunk, seed):
        from unittest import mock

        import learning_reference
        from phaselearn import shadows
        from phaselearn.seeding import stream_seed

        text = _chunk_config(SMALL_LEARNING, model, mode, N).replace("seed = 5",
                                                                      f"seed = {seed}")
        with tempfile.TemporaryDirectory() as out:
            cfg = _cfg(text, Path(out))
            with mock.patch.object(shadows, "_CHUNK_ROWS", chunk):
                run_train_stage(cfg)
            written = (Path(out) / "training.shadows").read_bytes()
            p = LearnerPlan.from_json((Path(out) / "plan.json").read_text())
        m = instantiate(cfg.model_name, cfg.lattice, omega=cfg.omega, **cfg.hyper)
        assert written == learning_reference.training_bytes(
            cfg, m, p, stream_seed(seed, "sampling"), stream_seed(seed, "measurement"))

    @pytest.mark.parametrize("mode", ["steady", "general"])
    def test_predict_outputs_do_not_depend_on_chunk_size(self, tmp_path, mode):
        # sweep sizes that end mid-chunk, on a chunk border and past N; the
        # cells of gamma = 0.4 cross the borders of 3-record chunks
        from unittest import mock

        from phaselearn import shadows

        text = _chunk_config(SMALL_LEARNING, "pinning", mode, 50).replace(
            "sweep = [200, 1000]", "sweep = [7, 20, 21, 60]")
        outputs = []
        for chunk in (shadows._CHUNK_ROWS, 3):
            cfg = _cfg(text, tmp_path / str(chunk))
            with mock.patch.object(shadows, "_CHUNK_ROWS", chunk):
                run_learning_experiment(cfg)
            outputs.append({name: (tmp_path / str(chunk) / name).read_bytes() for name in (
                "training.shadows", "predictions.csv", "coverage.json", "summary.json")})
        assert outputs[0] == outputs[1]
        sweep = json.loads(outputs[0]["summary.json"])["sweep"]
        assert [n for n, _ in sweep] == [7, 20, 21, 50]

    @pytest.mark.parametrize("bad_line", [10, 21], ids=["first_chunk", "past_first_chunk"])
    @pytest.mark.parametrize("field,value,named", [
        ("model", "dissipative_tfim", "training.shadows model is 'dissipative_tfim'"),
        ("omega", "1", "training.shadows omega is 1, config asks for 0"),
        ("n", "5", "training.shadows n is 5, config asks for 6"),
    ], ids=["model", "omega", "n"])
    def test_header_mismatch_reported_before_bad_records(self, tmp_path, monkeypatch,
                                                         field, value, named, bad_line):
        # header facts are checked before any record is read, so a header
        # mismatch is what a bundle that also holds a malformed record reports,
        # whichever chunk that record lies in
        from phaselearn import shadows

        text = SMALL_LEARNING.replace("n_override = 6000", "n_override = 20")
        cfg = _cfg(text, tmp_path)
        run_train_stage(cfg)
        path = tmp_path / "training.shadows"
        lines = path.read_text().splitlines()
        lines[bad_line - 1] = lines[bad_line - 1][:-1] + "2"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(shadows, "_CHUNK_ROWS", 4)
        sizes = []
        with open(path, "rb") as fh, pytest.raises(ConfigError, match=f"line {bad_line}: basis"):
            for chunk in shadows.read_shadows(fh)[1]:
                sizes.append(len(chunk))
        # 4-line chunks from the first record, line 9: line 10 lies in the
        # first, line 21 opens the fourth
        assert sizes == {10: [], 21: [4, 4, 4]}[bad_line]
        _edit_lines(path, lambda lines: [f"# {field} {value}" if l.startswith(f"# {field} ")
                                         else l for l in lines])
        with pytest.raises(ConfigError, match=named):
            run_predict_stage(cfg)

    def test_bad_last_line_of_multichunk_bundle_exits_before_exact_values(
            self, tmp_path, monkeypatch, capsys):
        from phaselearn import experiment, shadows

        text = SMALL_LEARNING.replace("n_override = 6000", "n_override = 50")
        p = tmp_path / "c.cfg"
        p.write_text(text.replace("PLACEHOLDER", str(tmp_path / "o")))
        assert cli_main(["train", "--config", str(p)]) == 0
        path = tmp_path / "o" / "training.shadows"
        lines = path.read_text().splitlines()
        assert len(lines) == 58
        lines[-1] = lines[-1][:-1] + "2"
        path.write_text("\n".join(lines) + "\n")

        def no_exact_values(*args):
            raise AssertionError("exact values computed for a malformed bundle")

        monkeypatch.setattr(shadows, "_CHUNK_ROWS", 8)
        monkeypatch.setattr(experiment, "_exact_values", no_exact_values)
        assert cli_main(["predict", "--config", str(p)]) == 2
        assert "shadows line 58: basis letters must be X, Y or Z and outcome bits 0 or 1" in \
            capsys.readouterr().err

    def test_memory_bounded_in_n(self, tmp_path, monkeypatch):
        # the traced peaks of train and of predict at 32 chunks of 1,024 records
        # exceed those at 8 chunks by well under what holding the extra
        # records' columns would add (2n + 8m + 16 bytes per record)
        import tracemalloc

        from phaselearn import shadows

        monkeypatch.setattr(shadows, "_CHUNK_ROWS", 1024)
        text = (SMALL_LEARNING.replace("extent = [6]", "extent = [4]")
                .replace("Z@3", "Z@2").replace("n_test = 12", "n_test = 4"))
        peaks = {}
        for chunks in (8, 32):
            cfg = _cfg(text.replace("n_override = 6000", f"n_override = {chunks * 1024}"),
                       tmp_path / str(chunks))
            for stage in (run_train_stage, run_predict_stage):
                tracemalloc.start()
                try:
                    stage(cfg)
                    peaks[stage.__name__, chunks] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        n = m = 4
        columns = 24 * 1024 * (2 * n + 8 * m + 16)
        for stage in (run_train_stage, run_predict_stage):
            growth = peaks[stage.__name__, 32] - peaks[stage.__name__, 8]
            assert growth < columns / 4, (stage.__name__, growth, columns)
