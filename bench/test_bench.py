"""Checks of the benchmark itself on reduced cases.

Run with ``python3 -m pytest bench/test_bench.py``.  Tracing must not change
what the program writes or raises: the traced bundles are byte-identical to
the untraced ones, and exceptions cross the wrappers unchanged.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refclock  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402

from phaselearn import experiment, lindblad  # noqa: E402
from phaselearn.config import parse_config_text  # noqa: E402
from phaselearn.diagnostics import ltqo_scan  # noqa: E402
from phaselearn.errors import DegenerateSteadyStateError  # noqa: E402
from phaselearn.lattice import Lattice, Region, observable_from_string  # noqa: E402
from phaselearn.lindblad import LindbladTerm, ParamLindbladian  # noqa: E402

SM = np.array([[0, 1], [0, 0]], dtype=complex)


def _config(name: str, edits: dict, out: Path):
    text = (workloads.CONFIGS / name).read_text()
    cfg = parse_config_text(workloads.edit_config(text, edits))
    cfg.out_dir = str(out)
    return cfg


def _pinning_n4(out: Path):
    return _config("pinning_steady.cfg", {
        "lattice": {"extent": [4]},
        "observables": {"specs": ["Z@2"]},
        "training": {"n_cap": 2000, "n_test": 10, "sweep": [100, 1000]},
    }, out)


def _battery_n3(out: Path):
    return _config("tfim_diagnostics.cfg", {
        "lattice": {"extent": [3]},
        "observables": {"specs": ["Z@1"]},
        "diagnostics": {"a": [1], "r": [0, 1, 2], "w": [0, 1, 2]},
    }, out)


def _learn(cfg, stage):
    workloads.train(cfg, stage)
    workloads.predict(cfg, stage)


def test_traced_pinning_bundle_is_byte_identical(tmp_path):
    plain_cfg, traced_cfg = _pinning_n4(tmp_path / "plain"), _pinning_n4(tmp_path / "traced")
    _learn(plain_cfg, workloads.plain_stage)
    original = experiment.measure_snapshot_product
    tracer = Tracer()
    with tracer.installed():
        assert experiment.measure_snapshot_product is not original
        _learn(traced_cfg, tracer.stage)
    assert experiment.measure_snapshot_product is original
    assert workloads.digest(tmp_path / "plain") == workloads.digest(tmp_path / "traced")
    assert tracer.total("shadows.measure_snapshot_product")[0] == 2000
    assert tracer.total("models.site_state")[0] >= 2000 * 4
    assert tracer.total("learner.predict")[0] == 10 * 3  # test points x (run + sweep)
    assert tracer.total("shadows.read_shadows")[0] == 1
    metrics = layer_metrics(tracer, 1.0, 1.0)
    assert [name for name, _ in PER_LAYER] == list(metrics)
    assert metrics["experiment.self_s"][0] > 0


def test_traced_battery_bundle_is_byte_identical(tmp_path):
    workloads.diagnose(_battery_n3(tmp_path / "plain"), workloads.plain_stage)
    tracer = Tracer()
    with tracer.installed():
        workloads.diagnose(_battery_n3(tmp_path / "traced"), tracer.stage)
    workloads.check_battery(tmp_path / "traced")
    assert workloads.digest(tmp_path / "plain") == workloads.digest(tmp_path / "traced")
    metrics = layer_metrics(tracer, 1.0, 1.0)
    assert metrics["lindblad.splu_per_steady_state"][0] == 2.0
    assert metrics["lindblad.solve_ivp.nfev"][0] > 0
    for scan in ("lieb_robinson", "mixing", "ltqo", "compatibility", "stability"):
        assert metrics[f"diagnostics.{scan}_scan.s"][0] > 0


def _two_site_damping() -> ParamLindbladian:
    """Per-site damping at rate (1 + x_j) / 2: x_j = -1 leaves site j undamped."""
    lat = Lattice(1, (2,), "open")
    terms = [
        LindbladTerm(Region((j,)), (j,),
                     lambda xs: (None, [np.sqrt((1.0 + xs[0]) / 2.0) * SM]), f"ad{j}")
        for j in range(2)
    ]
    return ParamLindbladian(lat, terms, name="two_site_damping")


def test_wrappers_pass_results_and_exceptions():
    fam = _two_site_damping()
    obs = observable_from_string("Z@0", fam.lattice)
    x, x_prime = np.array([0.5, 0.5]), np.array([-1.0, -1.0])
    plain = ltqo_scan(fam, x, x_prime, obs, s_grid=[0, 1])
    # At s = 0 site 1 keeps x' = -1, so the localized kernel is degenerate.
    assert plain.excluded == (0,)
    tracer = Tracer()
    with tracer.installed():
        traced = ltqo_scan(fam, x, x_prime, obs, s_grid=[0, 1])
        with pytest.raises(DegenerateSteadyStateError):
            lindblad.steady_state(lindblad.assemble(fam, x_prime))
    assert repr(traced) == repr(plain)  # values hold a NaN for the excluded point
    assert tracer.layer_errors("lindblad") == 2
    assert tracer.total("lindblad.steady_state")[0] == 4


def test_refclock_scales_wall_time_and_leaves_out_the_kernel():
    clock = refclock.RefClock()
    # Two samples by hand: the kernel ran in [1.0, 1.1] and [2.0, 2.1] at twice
    # its nominal time, so wall time outside it counts half.
    clock.origin, clock.stop_time = 0.0, 3.0
    clock.starts, clock.ends = [1.0, 2.0], [1.1, 2.1]
    clock.kernel_s = [2 * refclock.NOMINAL_S] * 2
    assert clock.scaled(0.0, 3.0) == pytest.approx((3.0 - 0.2) / 2)
    assert clock.scaled(0.5, 1.05) == pytest.approx(0.25)
    assert clock.scaled(0.0, 1.5) + clock.scaled(1.5, 3.0) == pytest.approx(
        clock.scaled(0.0, 3.0))
    assert clock.slowdown() == pytest.approx(2.0)
    with pytest.raises(ValueError):
        clock.scaled(2.0, 3.5)


def test_refclock_samples_while_running():
    clock = refclock.RefClock()
    with clock.running():
        a = time.monotonic()
        end = a + 0.3
        while time.monotonic() < end:
            pass
        b = time.monotonic()
    assert len(clock.kernel_s) >= 5
    assert 0 < clock.scaled(a, b) < 10 * (b - a)
