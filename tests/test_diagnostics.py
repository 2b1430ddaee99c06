import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fit_reference
from conftest import SM, amplitude_damping_family, random_two_site_family
from phaselearn import diagnostics, experiment, models
from phaselearn.config import parse_config_text
from phaselearn.lattice import Lattice, Region, embed, enlarge, observable_from_string
from phaselearn.lindblad import (
    DensityMatrix,
    LindbladTerm,
    ParamLindbladian,
    assemble,
    heisenberg_evolve,
    localize,
    steady_state,
    subfamily,
)
from phaselearn.diagnostics import (
    DEFAULT_T_GRID,
    calibrate_constants,
    certify_lr_constants,
    compatibility_scan,
    fit_decay,
    lieb_robinson_scan,
    ltqo_scan,
    mixing_scan,
    stability_scan,
)
from phaselearn.models import instantiate


class TestFitDecay:
    def test_recovers_exact_exponential(self):
        ts = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        vals = 2.7 * np.exp(-1.3 * ts)
        fit = fit_decay(ts, vals)
        assert fit.rate == pytest.approx(1.3, abs=1e-9)
        assert fit.prefactor == pytest.approx(2.7, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.rate_ci[0] > 0 and fit.passes

    def test_zero_curve_flags_floor(self):
        fit = fit_decay([0, 1, 2], [1e-15, 0.0, 1e-14])
        assert fit.all_below_floor and fit.passes
        assert math.isfinite(fit.rate)

    def test_excluded_points_skipped(self):
        ts = [0.0, 1.0, 2.0, 3.0]
        vals = [1.0, math.nan, math.exp(-2.0), math.exp(-3.0)]
        fit = fit_decay(ts, vals, excluded=[1])
        assert fit.rate == pytest.approx(1.0, abs=1e-9)

    def test_envelope_one_sided(self):
        ts = [0.0, 1.0, 2.0]
        vals = [1.0, 0.3, 0.1]
        good = fit_decay(ts, vals, envelope=[2.0, 1.0, 0.5])
        bad = fit_decay(ts, vals, envelope=[0.5, 0.05, 0.05])
        assert good.envelope_ok is True
        assert bad.envelope_ok is False

    def test_noisy_positive_rate_has_positive_ci(self):
        rng = np.random.default_rng(0)
        ts = np.linspace(0.5, 4.0, 8)
        vals = np.exp(-0.8 * ts) * np.exp(rng.normal(0, 0.05, 8))
        fit = fit_decay(ts, vals)
        assert fit.rate_ci[0] > 0

    @staticmethod
    def _outcome(fit, *args, **kwargs):
        """The bytes of the (rate, prefactor, r_squared, rate_ci) of
        ``fit(*args, **kwargs)``, or the LinAlgError it raises."""
        try:
            out = fit(*args, **kwargs)
        except np.linalg.LinAlgError as exc:
            return "LinAlgError", str(exc)
        if isinstance(out, diagnostics.DecayFit):
            out = out.rate, out.prefactor, out.r_squared, out.rate_ci
        rate, pref, r2, (lo, hi) = out
        return tuple(float.hex(float(a)) for a in (rate, pref, r2, lo, hi))

    @given(abscissa=st.one_of(
               st.lists(st.integers(0, 8), min_size=1, max_size=9),  # scan radii
               st.lists(st.sampled_from(DEFAULT_T_GRID), min_size=1, max_size=5,
                        unique=True).map(sorted)),
           data=st.data(), boot_seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_stacked_fit_matches_loop_reference(self, abscissa, data, boot_seed):
        # bit for bit; both drop a resample whose normal matrix is exactly
        # singular.  Where the full fit's is, the reference raises LinAlgError
        # and the stacked fit gives the no-fit document: all zeros, failing
        n = len(abscissa)
        values = data.draw(st.lists(st.floats(-13.0, 1.0).map(lambda e: 10.0**e),
                                    min_size=n, max_size=n))
        excluded = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        args = abscissa, values
        kwargs = {"boot_seed": boot_seed, "excluded": excluded}
        expected = self._outcome(fit_reference.fit_decay, *args, **kwargs)
        if expected[0] == "LinAlgError":
            expected = (float.hex(0.0),) * 5
            assert not fit_decay(*args, **kwargs).passes
        assert self._outcome(fit_decay, *args, **kwargs) == expected

    @pytest.mark.parametrize("abscissa,values", [
        ([1, 2], [1, 2e-12]),
        ([1, 2, 3], [1, 1.1e-12, 1.2e-12]),
    ])
    def test_singular_full_fit_fails(self, abscissa, values):
        # the full fit's normal matrix is exactly singular (a point's weight
        # is below an ulp of another's): no fit, and a failing verdict
        with pytest.raises(np.linalg.LinAlgError):
            fit_reference.fit_decay(abscissa, values)
        fit = fit_decay(abscissa, values)
        assert (fit.rate, fit.prefactor, fit.r_squared, fit.rate_ci) == (0.0, 0.0, 0.0,
                                                                        (0.0, 0.0))
        assert not fit.passes and not fit.all_below_floor
        assert json.loads(json.dumps(fit.to_json_dict()))["passes"] is False

    def test_excluded_nan_is_json_null(self):
        fit = fit_decay([0, 1, 2, 3], [0.5, math.nan, 0.05, 0.005], excluded=[1])
        d = json.loads(json.dumps(fit.to_json_dict()), parse_constant=_no_constant)
        assert d["values"] == [0.5, None, 0.05, 0.005]

    def test_every_non_finite_float_is_json_null(self):
        fit = diagnostics.DecayFit("time", (0.0, math.inf), (math.nan, 1.0), (0.0, 0.0),
                                   math.nan, math.inf, -math.inf, (math.nan, 1.0), 200,
                                   envelope=(math.inf, 2.0))
        d = json.loads(json.dumps(fit.to_json_dict()), parse_constant=_no_constant)
        assert (d["abscissa"], d["values"], d["envelope"]) == ([0.0, None], [None, 1.0],
                                                               [None, 2.0])
        assert (d["rate"], d["prefactor"], d["r_squared"], d["rate_ci"]) == (
            None, None, None, [None, 1.0])

    @pytest.mark.parametrize("abscissa,values,seeds", [
        # clean steep decays: some resamples' normal matrices are exactly
        # singular, which used to raise LinAlgError out of the stacked solve
        (DEFAULT_T_GRID, 2 * np.exp(-6 * np.array(DEFAULT_T_GRID)), range(20)),
        (range(7), np.exp(-5 * np.arange(7.0)), range(50)),
    ])
    def test_steep_decay_drops_singular_resamples(self, abscissa, values, seeds):
        for seed in seeds:
            fit = fit_decay(abscissa, values, boot_seed=seed)
            assert all(map(math.isfinite, fit.rate_ci)), seed
            assert fit.rate_ci[0] <= fit.rate <= fit.rate_ci[1]
            assert (self._outcome(fit_decay, abscissa, values, boot_seed=seed)
                    == self._outcome(fit_reference.fit_decay, abscissa, values,
                                     boot_seed=seed))


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


class TestCertifiedConstants:
    def test_pinning_velocity_hand_computed(self):
        # per site one reset term: strength 2 sum ||L||^2 = 4 kappa, radius 0,
        # ball volume 1, e^(mu 0) = 1; v = 2 max_z 4 = 8
        lat = Lattice(1, (4,), "open")
        model = instantiate("pinning", lat, kappa0=1.0)
        assert certify_lr_constants(model.family) == pytest.approx(8.0)

    def test_tfim_velocity_includes_bonds(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("dissipative_tfim", lat, g=0.5, kappa=1.0)
        v = certify_lr_constants(model.family)
        # site term: 2 sqrt(1+g^2) + 2 kappa; bond terms: strength 2, radius 1,
        # ball volume 3, weight e^1; an interior site is reached by the balls
        # of the three bonds centred at its neighbours and itself
        site = 2 * math.sqrt(1.25) + 2.0
        expect = 2 * (site + 3 * (2.0 * 3 * math.e))
        assert v == pytest.approx(expect)


class TestMixingScan:
    def test_steady_start_is_identically_zero(self):
        fam = amplitude_damping_family()
        gen = assemble(fam, np.zeros(0))
        ss = steady_state(gen)
        obs = observable_from_string("Z@0", Lattice(1, (1,)))
        fit = mixing_scan(fam, np.zeros(0), ss, obs, ss)
        assert max(fit.values) <= 1e-10
        assert fit.all_below_floor

    def test_amplitude_damping_closed_form(self):
        fam = amplitude_damping_family(1.0)
        rho1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), 1)
        obs = observable_from_string("Z@0", Lattice(1, (1,)))
        fit = mixing_scan(fam, np.zeros(0), rho1, obs, steady_state(assemble(fam, np.zeros(0))))
        for t, v in zip(fit.abscissa, fit.values):
            assert v == pytest.approx(2 * math.exp(-t), abs=1e-8)
        assert abs(fit.rate - 1.0) <= 0.02

    def test_pinning_rate_site_independent(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("pinning", lat, kappa0=1.0)
        x = np.clip(np.random.default_rng(1).uniform(-1, 1, 4), -0.8, 0.8)
        rho_inf = steady_state(assemble(model.family, x))
        for site in range(4):
            obs = observable_from_string(f"Z@{site}", lat)
            fit = mixing_scan(model.family, x, model.reference_state(), obs, rho_inf)
            assert fit.rate >= 0.9

    def test_tfim_n6_rate_positive(self):
        lat = Lattice(1, (6,), "open")
        model = instantiate("dissipative_tfim", lat, g=0.5, kappa=1.0)
        x = np.clip(np.random.default_rng(13).uniform(-1, 1, model.family.m), -0.8, 0.8)
        obs = observable_from_string("Z@3", lat)
        fit = mixing_scan(model.family, x, model.reference_state(), obs,
                          steady_state(assemble(model.family, x)))
        assert fit.rate > 0 and fit.rate_ci[0] > 0


class TestLiebRobinsonScan:
    def test_time_zero_all_zero(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("dissipative_tfim", lat)
        rng = np.random.default_rng(2)
        x, xp = rng.uniform(-1, 1, model.family.m), rng.uniform(-1, 1, model.family.m)
        obs = observable_from_string("Z@1", lat)
        fit = lieb_robinson_scan(model.family, x, xp, obs, t=0.0, r_max=3)
        assert max(fit.values) <= 1e-10

    def test_full_radius_is_exact_zero(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("dissipative_tfim", lat)
        rng = np.random.default_rng(3)
        x, xp = rng.uniform(-1, 1, model.family.m), rng.uniform(-1, 1, model.family.m)
        obs = observable_from_string("Z@1", lat)
        fit = lieb_robinson_scan(model.family, x, xp, obs, t=1.0)
        assert fit.values[-1] <= 1e-10
        assert fit.envelope_ok

    def test_onsite_family_localizes_exactly(self):
        lat = Lattice(1, (5,), "open")
        model = instantiate("pinning", lat)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 5)
        xp = x.copy()
        xp[0], xp[4] = -x[0], 0.3  # agree on the observable support
        obs = observable_from_string("Z@2", lat)
        fit = lieb_robinson_scan(model.family, x, xp, obs, t=1.0, rtol=1e-9)
        assert max(fit.values) <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_values_are_spectral_norms(self, seed):
        rng = np.random.default_rng(seed)
        fam = random_two_site_family(rng, n=3)
        x, xp = rng.uniform(-1, 1, fam.m), rng.uniform(-1, 1, fam.m)
        obs = observable_from_string("Z@0", fam.lattice)
        fit = lieb_robinson_scan(fam, x, xp, obs, t=0.5, rtol=1e-8)
        assert min(fit.values[:2]) > 1e-6  # radii 0 and 1 leave a site at x'
        O_full = embed(obs, fam.lattice)
        O_t = heisenberg_evolve(assemble(fam, x), O_full, 0.5, rtol=1e-8)
        for r, value in enumerate(fit.values):
            hyb = localize(fam, x, xp, enlarge(fam.lattice, obs.support, r))
            O_loc = heisenberg_evolve(assemble(fam, hyb), O_full, 0.5, rtol=1e-8)
            assert value == pytest.approx(np.linalg.norm(O_t - O_loc, 2), rel=1e-12)


class TestLtqoScan:
    def test_same_params_zero(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("dissipative_tfim", lat)
        x = np.random.default_rng(5).uniform(-1, 1, model.family.m)
        obs = observable_from_string("Z@1", lat)
        fit = ltqo_scan(model.family, x, x, obs, s_grid=[0, 1, 2])
        assert max(v for v in fit.values if math.isfinite(v)) <= 1e-10

    def test_full_radius_matches_global(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("dissipative_tfim", lat)
        rng = np.random.default_rng(6)
        x, xp = rng.uniform(-1, 1, model.family.m), rng.uniform(-1, 1, model.family.m)
        obs = observable_from_string("Z@1", lat)
        fit = ltqo_scan(model.family, x, xp, obs, s_grid=[0, 1, 2, 3])
        assert fit.values[-1] <= 1e-9

    def test_pinning_cut_beyond_radius_one(self):
        lat = Lattice(1, (5,), "open")
        model = instantiate("pinning", lat)
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 5)
        xp = x.copy()
        xp[0], xp[4] = 0.9 * x[4] - 0.05, -0.3  # differ only outside ball(2, 1)
        obs = observable_from_string("Z@2", lat)
        fit = ltqo_scan(model.family, x, xp, obs, s_grid=[1, 2])
        assert max(fit.values) <= 1e-9


def _site_damping(lat: Lattice, omega: int = 0) -> ParamLindbladian:
    """Per-site damping at rate (1 + x_j) / 2: x_j = -1 leaves site j undamped."""
    terms = [
        LindbladTerm(Region((j,)), (j,),
                     lambda xs: (None, [np.sqrt((1.0 + xs[0]) / 2.0) * SM]), f"ad{j}")
        for j in range(lat.n_sites)
    ]
    return ParamLindbladian(lat, terms, name="site_damping")


class TestScanReuse:
    """Radii that give the same hybrid point share one solve within a scan."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of the scans' steady_state and heisenberg_evolve, by name."""
        seen = {"steady_state": 0, "heisenberg_evolve": 0}
        for name in seen:
            def counted(*args, _fn=getattr(diagnostics, name), _name=name, **kwargs):
                seen[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(diagnostics, name, counted)
        return seen

    @pytest.fixture
    def tfim4(self):
        lat = Lattice(1, (4,), "open")
        fam = instantiate("dissipative_tfim", lat).family
        rng = np.random.default_rng(21)
        x, xp = rng.uniform(-1, 1, fam.m), rng.uniform(-1, 1, fam.m)
        return fam, x, xp, observable_from_string("Z@1", lat)

    @staticmethod
    def _points(fam, x, xp, obs, radii) -> int:
        return len({localize(fam, x, xp, enlarge(fam.lattice, obs.support, r)).tobytes()
                    for r in radii})

    def test_ltqo_one_solve_per_distinct_point(self, counts, tfim4):
        fam, x, xp, obs = tfim4
        s_grid = [0, 1, 2, 3, 4]
        assert self._points(fam, x, xp, obs, s_grid) == 3  # s >= 2 covers the chain
        fit = ltqo_scan(fam, x, xp, obs, s_grid=s_grid)
        # the base solve at x, and one per distinct point other than x
        assert counts["steady_state"] == 1 + 2
        singles = [ltqo_scan(fam, x, xp, obs, s_grid=[s]).values[0] for s in s_grid]
        assert fit.values == tuple(singles)

    def test_ltqo_repeated_degenerate_point_stays_excluded(self, counts):
        fam = _site_damping(Lattice(1, (2,), "open"))
        obs = observable_from_string("Z@0", fam.lattice)
        # at s = 0 site 1 keeps x' = -1, so the localized kernel is degenerate
        fit = ltqo_scan(fam, np.array([0.5, 0.5]), np.array([-1.0, -1.0]), obs,
                        s_grid=[0, 0, 1])
        assert fit.excluded == (0, 1)
        assert math.isnan(fit.values[0]) and math.isnan(fit.values[1])
        assert counts["steady_state"] == 1 + 1  # s = 1 gives x itself

    def test_battery_with_degenerate_point_writes_strict_json(self, tmp_path, monkeypatch):
        # at x' = -1 every site outside the patch is undamped, so the ltqo
        # points short of the whole chain are degenerate and excluded
        monkeypatch.setitem(models.CATALOG, "site_damping", models.CatalogEntry(
            name="site_damping", builder=_site_damping, ell_per_site=1,
            default_hyper={}, oracle_factory=lambda hyper: None))
        monkeypatch.setattr(experiment, "_probe_points",
                            lambda seed, stream, m: (np.full(m, 0.5), np.full(m, -1.0)))
        cfg = parse_config_text('[model]\nname = "site_damping"\n[lattice]\nextent = [5]\n'
                                f'[run]\nout = "{tmp_path}"\n')
        experiment.run_diagnostic_battery(cfg)
        ltqo = json.loads((tmp_path / "diag_ltqo.json").read_text())
        assert ltqo["excluded"] == [0, 1, 2, 3]
        assert ltqo["values"][:4] == [None] * 4
        for path in sorted(tmp_path.glob("*.json")):
            json.loads(path.read_text(), parse_constant=_no_constant)

    def test_ltqo_given_steady_state_matches(self, counts, tfim4):
        fam, x, xp, obs = tfim4
        plain = ltqo_scan(fam, x, xp, obs, s_grid=[0, 1, 2])
        rho_inf = steady_state(assemble(fam, x))
        calls = counts["steady_state"]
        given = ltqo_scan(fam, x, xp, obs, s_grid=[0, 1, 2], rho_inf=rho_inf)
        assert repr(given) == repr(plain)
        assert counts["steady_state"] - calls == 2  # no solve at x

    def test_compatibility_given_steady_state_matches(self, counts):
        # with W the whole chain the scan takes the given state as W's own:
        # the same fit as from the state solved on W's subfamily
        lat = Lattice(1, (5,), "open")
        fam = instantiate("dissipative_tfim", lat).family
        x = np.clip(np.random.default_rng(9).uniform(-1, 1, fam.m), -0.8, 0.8)
        regions = Region((2,)), Region((1, 2, 3)), Region((0, 1, 2, 3, 4))
        fam_w, map_w = subfamily(fam, regions[2])
        solved_w = steady_state(assemble(fam_w, x[map_w]))
        plain = compatibility_scan(fam, x, *regions, solved_w, t_grid=(0.5, 1.0))
        calls = counts["steady_state"]
        assert calls == 1  # the R region only
        given = compatibility_scan(fam, x, *regions, steady_state(assemble(fam, x)),
                                   t_grid=(0.5, 1.0))
        assert repr(given) == repr(plain)
        assert counts["steady_state"] - calls == 1  # the R region only

    def test_lieb_robinson_one_evolution_per_distinct_point(self, counts, tfim4):
        fam, x, xp, obs = tfim4
        radii = range(4)
        assert self._points(fam, x, xp, obs, radii) == 3
        fit = lieb_robinson_scan(fam, x, xp, obs, t=1.0, r_max=3)
        # O_t, and one per distinct point other than x
        assert counts["heisenberg_evolve"] == 1 + 2
        O_full = embed(obs, fam.lattice, n_total=fam.n_total)
        O_t = heisenberg_evolve(assemble(fam, x), O_full, 1.0, rtol=1e-8)
        direct = [float(np.linalg.norm(O_t - heisenberg_evolve(
            assemble(fam, localize(fam, x, xp, enlarge(fam.lattice, obs.support, r))),
            O_full, 1.0, rtol=1e-8), 2)) for r in radii]
        assert fit.values == tuple(direct)
        singles = [lieb_robinson_scan(fam, x, xp, obs, t=1.0, r_max=r).values[r]
                   for r in radii]
        assert fit.values == tuple(singles)

    def test_lieb_robinson_never_evolves_x_again(self, counts, tfim4):
        fam, x, _, obs = tfim4
        # with x' = x every hybrid point is x itself
        fit = lieb_robinson_scan(fam, x, x, obs, t=1.0, r_max=3)
        assert counts["heisenberg_evolve"] == 1  # O_t only
        assert fit.values == (0.0,) * 4 and fit.all_below_floor


@pytest.mark.parametrize("scan", ["lieb_robinson", "mixing", "ltqo", "stability"])
def test_scans_reject_systems_above_the_cap(scan):
    lat = Lattice(1, (9,), "open")
    model = instantiate("pinning", lat)
    fam, ref = model.family, model.reference_state()
    x = np.zeros(fam.m)
    obs = observable_from_string("Z@4", lat)
    run = {"lieb_robinson": lambda: lieb_robinson_scan(fam, x, x, obs),
           "mixing": lambda: mixing_scan(fam, x, ref, obs, ref),
           "ltqo": lambda: ltqo_scan(fam, x, x, obs, s_grid=[0]),
           "stability": lambda: stability_scan(fam, x, 0.5, obs, ref)}[scan]
    with pytest.raises(ValueError, match="scans cap the system"):
        run()


class TestCompatibilityScan:
    def test_pinning_identically_zero(self):
        lat = Lattice(1, (5,), "open")
        model = instantiate("pinning", lat)
        x = np.random.default_rng(8).uniform(-1, 1, 5)
        fit = compatibility_scan(model.family, x, Region((2,)), Region((1, 2, 3)),
                                 Region((0, 1, 2, 3, 4)),
                                 steady_state(assemble(model.family, x)), t_grid=(0.5, 1.0, 2.0))
        assert max(fit.values) <= 1e-10

    def test_tfim_long_time_limit(self):
        lat = Lattice(1, (5,), "open")
        model = instantiate("dissipative_tfim", lat, g=0.5, kappa=1.0)
        x = np.clip(np.random.default_rng(9).uniform(-1, 1, model.family.m), -0.8, 0.8)
        fit = compatibility_scan(model.family, x, Region((2,)), Region((1, 2, 3)),
                                 Region((0, 1, 2, 3, 4)), steady_state(assemble(model.family, x)),
                                 t_grid=(1.0, 2.0, 4.0, 8.0, 20.0))
        assert fit.values[-1] <= 1e-6

    def test_bad_nesting_rejected(self):
        lat = Lattice(1, (5,), "open")
        model = instantiate("pinning", lat)
        with pytest.raises(ValueError):
            compatibility_scan(model.family, np.zeros(5), Region((1,)),
                               Region((1, 2)), Region((0, 1, 2, 3, 4)),
                               steady_state(assemble(model.family, np.zeros(5))))


class TestStabilityScan:
    def test_zero_kick_gives_zero(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("pinning", lat)
        obs = observable_from_string("Z@1", lat)
        fit = stability_scan(model.family, np.zeros(4), 0.0, obs,
                             model.reference_state(), t_checks=(0.5, 1.0))
        assert max(fit.values) <= 1e-9

    def test_out_of_bounds_kick_rejected(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("pinning", lat)
        obs = observable_from_string("Z@1", lat)
        with pytest.raises(ValueError):
            stability_scan(model.family, np.full(4, 0.9), 0.5, obs,
                           model.reference_state())

    def test_pinning_onsite_kick_matches_oracle_difference(self):
        lat = Lattice(1, (4,), "open")
        model = instantiate("pinning", lat)
        obs = observable_from_string("Z@1", lat)
        x = np.zeros(4)
        delta = 0.5
        fit = stability_scan(model.family, x, delta, obs, model.reference_state(),
                             t_checks=(4.0, 8.0, 16.0))
        kicked = x.copy()
        kicked[1] += delta
        oracle_diff = abs(
            model.oracle.expectation(kicked, np.inf, obs)
            - model.oracle.expectation(x, np.inf, obs)
        )
        d0 = fit.values[list(fit.abscissa).index(0.0)]
        assert d0 == pytest.approx(oracle_diff, abs=1e-5)
        # distance >= 1 kicks never reach the observable in a product family
        far = [v for a, v in zip(fit.abscissa, fit.values) if a >= 1]
        assert max(far) <= 1e-9
        assert fit.envelope_ok


class TestCalibration:
    def test_amplitude_damping_constants(self):
        lat = Lattice(1, (3,), "open")
        model = instantiate("pinning", lat, kappa0=1.0)
        rng = np.random.default_rng(10)
        x = np.clip(rng.uniform(-1, 1, 3), -0.8, 0.8)
        xp = np.clip(rng.uniform(-1, 1, 3), -0.8, 0.8)
        obs = observable_from_string("Z@1", lat)
        cal = calibrate_constants(model.family, x, xp, obs, model.reference_state())
        assert set(cal) == {"gamma_prime", "c_prime", "xi"}
        assert cal["gamma_prime"] == pytest.approx(1.0, abs=0.02)
        # on-site family localizes exactly, so xi comes from mixing alone
        assert lieb_robinson_scan(model.family, x, xp, obs, t=1.0, rtol=1e-8).all_below_floor
        assert cal["xi"] == pytest.approx(1.0 / cal["gamma_prime"])
        assert cal["c_prime"] >= 1.0
