import math
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import learning_reference

from phaselearn import learner
from phaselearn.errors import EmptyCellError, PlanInfeasibleError
from phaselearn.lattice import Lattice, LocalObservable, Region, enlarge, observable_from_string
from phaselearn.learner import (
    CellFold,
    LearnerPlan,
    PlanConstants,
    coverage_report,
    plan,
    predict,
    restricted_distance,
)
from phaselearn.models import instantiate
from phaselearn.shadows import TrainingSet, median_of_means, snapshot_local_matrix

SMALL = PlanConstants(J=0.5, ell=1, r0=0, D=1, n=4, m=4, k0=0, M=1, W=1,
                      xi=0.3, gamma_prime=1.0, c_prime=0.5)


def _tag_training(xs, taus=None, m=None):
    """Training set with real tags and placeholder single-site snapshots."""
    n = len(xs)
    return TrainingSet(
        np.full((n, 1), 2), np.ones((n, 1)),
        np.reshape(np.asarray(xs, dtype=float), (n, m if m is not None else len(xs[0]))),
        taus=[math.inf] * n if taus is None else taus,
    )


def _distance(x, t, tr, indices):
    """restricted_distance of the training set's rows on ``indices``."""
    return restricted_distance(x[indices], t, tr.X[:, indices], tr.taus)


def _fold(x, t, tr, gamma):
    """A one-point fold of ``tr`` whose patch is every tag coordinate: a
    pinning chain with one coordinate per site, its radius the chain's length,
    and the term Z@0 read from the placeholder snapshots' first column."""
    m = tr.X.shape[1]
    model = instantiate("pinning", Lattice(1, (m,), "open"))
    p = replace(plan(0.6, 0.1, 0.1, SMALL, "steady_state", n_cap=10**6), r=m, gamma=gamma)
    fold = CellFold([observable_from_string("Z@0", model.lattice)], [x], [t], p, model.family)
    fold.add(tr)
    return fold


def _cell_rows(fold):
    """The rows of the fold's one cell, read off predict at every prefix: a row
    is in the cell when the prefix ending at it counts one more cell sample."""
    rows, before = [], 0
    for s in range(1, fold.n_samples + 1):
        pred = predict(fold, 0, s)
        k = 0 if pred.warnings else pred.counts[0]
        if k > before:
            rows.append(s - 1)
        before = k
    return rows


def _fallback(pred):
    """The (row, distance) that an empty cell's warning names."""
    (warning,) = pred.warnings
    words = warning.split("; ")[1].split()  # nearest sample <row> at distance <dist>
    return int(words[2]), float(words[5])


def _predict(observables, x, t, tr, p, family):
    """The prediction at (x, t) from ``tr``, folded as one chunk."""
    fold = CellFold(observables, [x], [t], p, family)
    fold.add(tr)
    return predict(fold, 0)


# the identity on no sites: its patch meets no term, so its cells are the time axis's
UNIT = LocalObservable(Region(()), np.eye(1), label="1")


def _coverage_fold(specs, r, gamma, family, t_eps=None):
    """A fold without test points of the observables ``specs`` (UNIT or a
    spec string) at patch radius r, its time axis t_eps long."""
    p = replace(plan(0.6, 0.1, 0.1, SMALL, "steady_state", n_cap=10**6), r=r, gamma=gamma,
                t_eps=t_eps, mode="steady_state" if t_eps is None else "general_phase")
    observables = [s if s is UNIT else observable_from_string(s, family.lattice) for s in specs]
    return CellFold(observables, np.empty((0, family.m)), [], p, family)


def _coverage(tr, specs, r, gamma, family, q=1, t_eps=None):
    """The coverage report of ``tr``, folded as one chunk."""
    fold = _coverage_fold(specs, r, gamma, family, t_eps)
    fold.add(tr)
    return coverage_report(fold, q=q)


def _nearest(x, t, tr, indices):
    """The nearest sample by restricted_distance, the lowest row on ties."""
    return int(np.argmin(_distance(x, t, tr, indices)))


def _cell(x, t, tr, indices, gamma):
    """The rows within gamma of (x, t) on ``indices`` or, when none is, the
    nearest row alone."""
    dist = _distance(x, t, tr, indices)
    cell = np.flatnonzero(dist <= gamma)
    return cell if cell.size else np.array([np.argmin(dist)])


class TestPlan:
    def test_recompute_idempotent(self):
        p = plan(0.6, 0.1, 0.1, SMALL, "steady_state")
        assert plan(p.epsilon, p.delta, p.delta_prime, p.constants, p.mode,
                    n_cap=p.n_cap) == p
        text = p.to_json()
        assert LearnerPlan.from_json(text) == p

    def test_positive_integers(self):
        for mode, fn in (("steady_state", None), ("general_phase", None),
                         ("slow_mixing", 3.0)):
            c = replace(SMALL, f_n=fn)
            p = plan(0.6, 0.1, 0.1, c, mode, n_cap=10**6)
            assert p.r >= 1 and p.q >= 1 and p.N >= 1
            assert 0.0 < p.gamma < 1.0

    def test_epsilon_halving_steps_radius(self):
        # halving epsilon adds exactly 2 xi log 2 to the pre-ceiling argument
        c = replace(SMALL, xi=1.4, c_prime=40.0)
        p1 = plan(0.4, 0.1, 0.1, c, "steady_state", n_cap=10**9)
        p2 = plan(0.2, 0.1, 0.1, c, "steady_state", n_cap=10**9)
        step = 2 * c.xi * math.log(2.0)
        assert p2.r - p1.r in (math.floor(step), math.ceil(step))

    def test_infeasible_without_cap(self):
        consts = PlanConstants(J=4.0, ell=1, r0=0, D=1, n=8, m=8, k0=1,
                               xi=1.0, gamma_prime=1.0, c_prime=2.0)
        with pytest.raises(PlanInfeasibleError, match=r"N ~ 2\*\*") as err:
            plan(0.3, 0.1, 0.1, consts, "steady_state")
        assert float(str(err.value).split("2**")[1].split()[0]) > 63
        p = plan(0.3, 0.1, 0.1, consts, "steady_state", n_cap=10**5)
        assert p.capped and p.N == 10**5

    @pytest.mark.parametrize("epsilon", [1e-160, 1e-320], ids=["q_overflows", "eps2_underflows"])
    def test_tiny_epsilon_infeasible(self, epsilon):
        # 1 / epsilon**2 overflows a float, or epsilon**2 is 0
        with pytest.raises(PlanInfeasibleError, match="snapshot count q overflows"):
            plan(epsilon, 0.1, 0.1, SMALL, "steady_state", n_cap=10**5)

    def test_overrides_enter_the_formula(self):
        consts = PlanConstants(J=4.0, ell=1, r0=0, D=1, n=8, m=8, k0=1,
                               xi=1.0, gamma_prime=1.0, c_prime=2.0)
        native = plan(0.3, 0.1, 0.1, consts, "steady_state", n_cap=10**5)
        p = plan(0.3, 0.1, 0.1, consts, "steady_state", n_cap=10**5, r=1)
        # gamma and m_r follow the given r; the prescription shrinks with them
        assert (p.r, p.m_r, p.gamma) == (1, 4, 0.3 / (2 * 4 * 4.0))
        assert native.r > 1 and p.N_log2 < native.N_log2
        assert plan(0.3, 0.1, 0.1, consts, "steady_state", n_cap=10**5, r=1,
                    gamma=p.gamma) == p
        # a given N is used as is; capped says whether it reaches the prescription
        pinned = dict(r=1, gamma=0.25)
        low = plan(0.3, 0.1, 0.1, consts, "steady_state", n=1000, **pinned)
        high = plan(0.3, 0.1, 0.1, consts, "steady_state", n=2**28, **pinned)
        assert (low.N, low.capped, high.N, high.capped) == (1000, True, 2**28, False)
        assert 27 < low.N_log2 == high.N_log2 < 28
        # a given N bounds an overflowing prescription without n_cap
        over = plan(0.3, 0.1, 0.1, consts, "steady_state", n=1000)
        assert over.N == 1000 and over.capped and over.N_log2 == native.N_log2

    def test_slow_mixing_sample_shape(self):
        # log N grows polylogarithmically in f(n)/eps
        logs = []
        for f_n in (10.0, 10.0**2, 10.0**4):
            c = replace(SMALL, f_n=f_n)
            p = plan(0.5, 0.1, 0.1, c, "slow_mixing", n_cap=10**18)
            logs.append(p.N_log2)
        assert logs[0] < logs[1] < logs[2]
        # polylog shape: log N bounded by const * log^2(f/eps) in 1D
        for f_n, l2 in zip((10.0, 10.0**2, 10.0**4), logs):
            assert l2 <= 5.0 * math.log2(f_n / 0.5) ** 2 + 64

    def test_general_mode_has_time_horizon(self):
        p = plan(0.5, 0.1, 0.1, SMALL, "general_phase", n_cap=10**9)
        expect = (1.0 / SMALL.gamma_prime) * math.log(
            6.0 * SMALL.c_prime * 1**SMALL.kappa / 0.5
        )
        assert p.t_eps == pytest.approx(expect)
        assert plan(0.5, 0.1, 0.1, SMALL, "steady_state").t_eps is None

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError):
            plan(1.2, 0.1, 0.1, SMALL)
        with pytest.raises(ValueError):
            plan(0.5, 0.1, 0.1, SMALL, "slow_mixing")  # missing f_n

    def test_degenerate_regime_is_loud(self):
        # a huge measured mixing rate shrinks the horizon below the cell width
        c = replace(SMALL, gamma_prime=500.0, J=0.01)
        with pytest.raises(PlanInfeasibleError, match="regime") as err:
            plan(0.9, 0.5, 0.5, c, "general_phase", n_cap=10**6)
        assert "2**" not in str(err.value)  # no N is prescribed


class TestNearestPatch:
    """An empty cell falls back to the nearest sample and its distance."""

    def test_exact_hit(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1, 1, size=(20, 6))
        tr = _tag_training(xs)
        fold = _fold(xs[7], math.inf, tr, 1e-12)
        assert _cell_rows(fold) == [7] and not predict(fold, 0).warnings
        assert _nearest(xs[7], math.inf, tr, np.arange(6)) == 7

    def test_tie_breaks_to_lowest_index(self):
        xs = [np.zeros(3), np.full(3, 0.5), np.full(3, 0.5)]
        tr = _tag_training(xs)
        assert _distance(np.full(3, 0.6), math.inf, tr, np.arange(3)) == pytest.approx(
            [0.6, 0.1, 0.1])
        pred = predict(_fold(np.full(3, 0.6), math.inf, tr, 0.05), 0)
        row, dist = _fallback(pred)
        assert row == 1 and dist == pytest.approx(0.1) and pred.counts == (1,)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-1, 1, size=(100, 12))
        tr = _tag_training(xs)
        indices = np.array([0, 3, 4, 7, 8, 11])
        target = rng.uniform(-1, 1, 12)
        dist = _distance(target, math.inf, tr, indices)
        scan = [np.max(np.abs(xs[k][indices] - target[indices])) for k in range(100)]
        brute = min(range(100), key=lambda k: scan[k])
        assert dist.tolist() == scan
        assert _nearest(target, math.inf, tr, indices) == brute
        assert dist[brute] == pytest.approx(np.max(np.abs(xs[brute][indices] - target[indices])))

    def test_argmin_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(-1, 1, size=(50, 5))
        tr = _tag_training(xs)
        indices = np.arange(5)
        target = rng.uniform(-1, 1, 5)
        idx = _nearest(target, math.inf, tr, indices)
        dists = np.max(np.abs(xs[:, indices] - target[indices]), axis=1)
        for transform in (np.exp, np.sqrt, lambda d: 3 * d + 1):
            assert int(np.argmin(transform(dists))) == idx

    def test_general_mode_uses_time_axis(self):
        # a finite target time counts |tau - t|
        xs = [np.zeros(2), np.zeros(2)]
        tr = _tag_training(xs, taus=[0.1, 2.0])
        assert _distance(np.zeros(2), 1.9, tr, np.arange(2)) == pytest.approx([1.8, 0.1])
        assert _distance(np.zeros(2), math.inf, tr, np.arange(2)).tolist() == [0.0, 0.0]
        row, dist = _fallback(predict(_fold(np.zeros(2), 1.9, tr, 0.05), 0))
        assert row == 1 and dist == pytest.approx(0.1)

    def test_empty_training(self):
        tr = _tag_training(np.zeros((0, 2)), m=2)
        assert _distance(np.zeros(2), math.inf, tr, np.arange(2)).shape == (0,)
        fold = _fold(np.zeros(2), math.inf, tr, 0.5)
        with pytest.raises(EmptyCellError):
            predict(fold, 0)


class TestSelectCell:
    """The cell is every row within restricted distance gamma, in row order."""

    def test_gamma_two_selects_all(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1, 1, size=(40, 4))
        tr = _tag_training(xs)
        target = rng.uniform(-1, 1, 4)
        assert (_distance(target, math.inf, tr, np.arange(4)) <= 2.0).all()
        pred = predict(_fold(target, math.inf, tr, 2.0), 0)
        assert pred.counts == (40,) and not pred.warnings

    def test_tiny_gamma_picks_duplicates(self):
        x = np.array([0.3, -0.4])
        xs = [x, x + 0.5, x.copy(), x - 0.7]
        tr = _tag_training(xs)
        assert _cell_rows(_fold(x, math.inf, tr, 1e-12)) == [0, 2]

    def test_selected_fraction_binomial(self):
        rng = np.random.default_rng(4)
        n, m_r, gamma = 10_000, 4, 0.5
        xs = rng.uniform(-1, 1, size=(n, m_r))
        tr = _tag_training(xs)
        pred = predict(_fold(np.zeros(m_r), math.inf, tr, gamma), 0)
        (got,) = pred.counts
        p = gamma**m_r
        sigma = math.sqrt(n * p * (1 - p))
        assert not pred.warnings and abs(got - n * p) <= 3 * sigma

    def test_time_window_in_general_mode(self):
        xs = [np.zeros(1)] * 3
        tr = _tag_training(xs, taus=[0.1, 0.5, 3.0])
        assert _distance(np.zeros(1), 0.4, tr, np.arange(1)) == pytest.approx([0.3, 0.1, 2.6])
        assert _cell_rows(_fold(np.zeros(1), 0.4, tr, 0.2)) == [1]

    @given(data=st.data(), timed=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_scan(self, data, timed):
        """The cell is {i : max_j |X_ij - x_j| <= gamma, and |tau_i - t| <= gamma
        when t is finite}; an empty cell gives the lowest-index minimiser and
        its distance.  Grid values make ties and cell borders common."""
        grid = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.3, 0.5, 1.0])
        times = st.sampled_from([0.0, 0.2, 0.5, 1.0, 2.5])
        N = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(1, 4))
        X = np.array(data.draw(st.lists(st.lists(grid, min_size=m, max_size=m),
                                        min_size=N, max_size=N)))
        x = np.array(data.draw(st.lists(grid, min_size=m, max_size=m)))
        indices = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1)))), dtype=int)
        gamma = data.draw(st.sampled_from([0.1, 0.25, 0.5, 2.0]))
        # steady tags (tau = inf, t = inf) or timed ones at a finite t
        taus = data.draw(st.lists(times, min_size=N, max_size=N)) if timed else [math.inf] * N
        t = data.draw(times) if timed else math.inf
        tr = _tag_training(X, taus=taus, m=m)

        def distance(i):
            d = max((abs(X[i, j] - x[j]) for j in indices), default=0.0)
            return max(d, abs(taus[i] - t)) if timed else d

        dists = [distance(i) for i in range(N)]
        assert _distance(x, t, tr, indices).tolist() == dists
        # the fold's patch is every coordinate: the tags on ``indices``, and
        # a column on which every row sits at the target
        patch = _tag_training(np.column_stack([X[:, indices], np.zeros(N)]), taus=taus,
                              m=len(indices) + 1)
        fold = _fold(np.r_[x[indices], 0.0], t, patch, gamma)
        expect = [i for i in range(N) if dists[i] <= gamma]
        if expect:
            assert _cell_rows(fold) == expect and not predict(fold, 0).warnings
        else:
            best = min(range(N), key=lambda i: (dists[i], i))
            pred = predict(fold, 0)
            assert _fallback(pred)[0] == best and pred.counts == (1,)
            assert pred.warnings[0].endswith(f"at distance {dists[best]:.3g}")


def _pinning_training(n, N, seed, gamma_spread=None):
    lat = Lattice(1, (n,), "open")
    model = instantiate("pinning", lat)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1, 1, size=(N, n))
    from phaselearn.shadows import measure_snapshot_product
    from phaselearn.seeding import stream_seed

    bases, outcomes = measure_snapshot_product(
        model.oracle.bloch_vectors(xs, np.full(N, math.inf)), stream_seed(seed, "m"))
    return model, TrainingSet(bases, outcomes, xs, taus=np.full(N, math.inf))


class TestPredict:
    def _plan(self, model, r=1, gamma=0.3):
        sc = model.structural_constants()
        consts = PlanConstants(J=sc["J"], ell=sc["ell"], r0=sc["r0"], D=sc["D"],
                               n=sc["n"], m=sc["m"], k0=1)
        p = plan(0.3, 0.1, 0.1, consts, "steady_state", n_cap=10**6)
        return replace(p, r=r, gamma=gamma)

    def test_identity_term_contributes_exactly_one(self):
        model, tr = _pinning_training(4, 60, seed=5)
        p = self._plan(model)
        from phaselearn.lattice import LocalObservable

        ident = LocalObservable(Region((1,)), np.eye(2, dtype=complex), "I@1")
        pred = _predict([ident], np.zeros(4), math.inf, tr, p, model.family)
        assert pred.value == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_training_equals_plain_estimate(self):
        lat = Lattice(1, (3,), "open")
        model = instantiate("pinning", lat)
        x = np.array([0.2, -0.5, 0.8])
        from phaselearn.shadows import measure_snapshot_product

        bloch = model.oracle.bloch_vectors(np.tile(x, (200, 1)), np.full(200, math.inf))
        bases, outcomes = measure_snapshot_product(bloch, 0)
        tr = TrainingSet(bases, outcomes, np.tile(x, (200, 1)), taus=np.full(200, math.inf))
        p = self._plan(model)
        obs = observable_from_string("Z@1", lat)
        pred = _predict([obs], x, math.inf, tr, p, model.family)
        vals = [float(np.real(np.trace(obs.matrix @ snapshot_local_matrix(b, o, [1]))))
                for b, o in zip(bases, outcomes)]
        from phaselearn.shadows import mom_batch_count

        k = mom_batch_count(p.delta_prime, len(vals))
        assert pred.value == median_of_means(vals, k)
        assert pred.counts == (200,)

    def test_empty_cell_falls_back_with_warning(self):
        model, tr = _pinning_training(4, 5, seed=6)
        p = self._plan(model, gamma=1e-9)
        obs = observable_from_string("Z@2", model.lattice)
        pred = _predict([obs], np.zeros(4), math.inf, tr, p, model.family)
        assert pred.warnings and pred.counts == (1,)

    def test_locality_scramble_invariance(self):
        # scrambling tags outside the patch coordinates changes nothing
        model, tr = _pinning_training(6, 400, seed=7)
        p = self._plan(model, r=1, gamma=0.4)
        obs = observable_from_string("Z@3", model.lattice)
        x = np.random.default_rng(8).uniform(-1, 1, 6)
        before = _predict([obs], x, math.inf, tr, p, model.family)
        patch = enlarge(model.lattice, obs.support, p.r)
        inside = set(model.family.coords_for_region(patch).tolist())
        rng = np.random.default_rng(9)
        new_X = tr.X.copy()
        for row in new_X:
            for c in range(6):
                if c not in inside:
                    row[c] = rng.uniform(-1, 1)
        tr2 = replace(tr, X=new_X)
        after = _predict([obs], x, math.inf, tr2, p, model.family)
        assert before.value == after.value
        assert before.per_term == after.per_term

    def test_bias_bound_oracle_mode(self):
        # nearest-sample estimator with exact states obeys the certified
        # 2 C1 e^{-r/2xi} + C2(r) gamma envelope
        lat = Lattice(1, (6,), "open")
        model = instantiate("pinning", lat)
        sc = model.structural_constants()
        c = PlanConstants(J=sc["J"], ell=sc["ell"], r0=sc["r0"], D=sc["D"],
                          n=sc["n"], m=sc["m"], k0=1, xi=1.0, gamma_prime=1.0,
                          c_prime=1.5)
        p = replace(plan(0.3, 0.1, 0.1, c, "steady_state", n_cap=10**6),
                    r=1, gamma=0.4)
        rng = np.random.default_rng(10)
        xs = [rng.uniform(-1, 1, 6) for _ in range(500)]
        tr = _tag_training(xs)
        obs = observable_from_string("Z@3", lat)
        indices = model.family.coords_for_region(enlarge(lat, obs.support, p.r))
        two_xi = 2 * c.xi
        c1 = (4.0 * c.c_prime * c.ball_volume_k0 * c.J
              / (math.exp(1 / two_xi) * (1 - math.exp(-1 / two_xi))) / 4.0)
        c2 = (2.0 * (p.r + c.k0)) ** c.D * c.J * c.ell
        bound = 2 * c1 * math.exp(-p.r / two_xi) + c2 * p.gamma
        worst = 0.0
        for _ in range(25):
            xt = rng.uniform(-1, 1, 6)
            j = _nearest(xt, math.inf, tr, indices)
            est = model.oracle.expectation(xs[j], math.inf, obs)
            worst = max(worst, abs(est - model.oracle.expectation(xt, math.inf, obs)))
        assert worst <= bound

    def test_bias_shape_in_r_and_gamma(self):
        # median nearest-patch bias is non-increasing in r (within noise) on a
        # correlated family, and the cell-average bias shrinks with gamma on
        # the product family
        lat = Lattice(1, (5,), "open")
        tfim = instantiate("dissipative_tfim", lat, g=0.6, kappa=1.0)
        from phaselearn.lattice import embed
        from phaselearn.lindblad import assemble, steady_state

        obs = observable_from_string("Z@2", lat)
        O_full = embed(obs, lat)
        cache = {}

        def f_exact(x):
            key = x.tobytes()
            if key not in cache:
                cache[key] = steady_state(assemble(tfim.family, x)).expectation(O_full)
            return cache[key]

        rng = np.random.default_rng(11)
        xs_tfim = [rng.uniform(-1, 1, tfim.family.m) for _ in range(400)]
        tr_tfim = _tag_training(xs_tfim)
        tests = [rng.uniform(-1, 1, tfim.family.m) for _ in range(25)]
        exact_vals = [f_exact(x) for x in tests]
        medians = {}
        for r in (1, 2):
            indices = tfim.family.coords_for_region(enlarge(lat, obs.support, r))
            errs = [
                abs(f_exact(xs_tfim[_nearest(xt, math.inf, tr_tfim, indices)]) - ev)
                for xt, ev in zip(tests, exact_vals)
            ]
            medians[r] = float(np.median(errs))
        assert medians[2] <= medians[1] + 0.02

        pin = instantiate("pinning", Lattice(1, (6,), "open"))
        xs = rng.uniform(-1, 1, size=(50_000, 6))
        tr = _tag_training(list(xs))
        obs6 = observable_from_string("Z@3", pin.lattice)
        patch = enlarge(pin.lattice, obs6.support, 1)
        idx = pin.family.coords_for_region(patch)
        gamma_err = {}
        for gamma in (0.8, 0.4, 0.15):
            errs = []
            for xt in (rng.uniform(-1, 1, 6) for _ in range(40)):
                cell = _cell(xt, math.inf, tr, idx, gamma)
                est = float(np.mean([
                    pin.oracle.expectation(xs[j], math.inf, obs6) for j in cell
                ]))
                errs.append(abs(est - pin.oracle.expectation(xt, math.inf, obs6)))
            gamma_err[gamma] = float(np.median(errs))
        assert gamma_err[0.15] <= gamma_err[0.4] <= gamma_err[0.8]


class TestCoverage:
    def test_large_sample_full_coverage(self):
        rng = np.random.default_rng(12)
        xs = rng.uniform(-1, 1, size=(20_000, 2))
        tr = _tag_training(list(xs))
        lat = Lattice(1, (2,), "open")
        model = instantiate("pinning", lat)
        rep = _coverage(tr, ["Z@0"], 1, 0.5, model.family, q=1)
        assert rep["entries"][0]["sites"] == [0, 1]
        assert rep["entries"][0]["fraction"] == 1.0
        assert rep["entries"][0]["total_cells"] == 16

    def test_single_sample_covers_one_cell(self):
        lat = Lattice(1, (2,), "open")
        model = instantiate("pinning", lat)
        tr = _tag_training([np.array([0.1, 0.2])])
        rep = _coverage(tr, ["Z@0"], 1, 0.5, model.family, q=1)
        assert rep["entries"][0]["covered"] == 1
        assert rep["entries"][0]["fraction"] == 1 / 16

    def test_failure_bound_formula(self):
        lat = Lattice(1, (2,), "open")
        model = instantiate("pinning", lat)
        xs = [np.array([0.1, 0.2])] * 10
        tr = _tag_training(xs)
        gamma = 0.5
        rep = _coverage(tr, ["Z@0"], 0, gamma, model.family, q=1)
        m_r = 1
        expect = min(1.0, 1 * math.exp(-10 * (gamma / 2) ** m_r + m_r * math.log(2 / gamma)))
        assert rep["entries"][0]["failure_bound"] == pytest.approx(expect)

    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(0, 300),
           gamma=st.sampled_from([0.15, 0.5, 0.7, 2.0]), q=st.integers(1, 4),
           mode=st.sampled_from(["steady_state", "general_phase"]))
    @settings(max_examples=40, deadline=None)
    def test_matches_counter_reference(self, seed, N, gamma, q, mode):
        """Vectorised binning equals a per-sample Counter over cell keys."""
        lat = Lattice(1, (3,), "open")
        model = instantiate("pinning", lat)
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-1, 1, size=(N, 3))
        # a few samples on the box edge and on cell borders
        xs[: N // 10] = rng.choice([-1.0, -1.0 + gamma, 0.0, 1.0], size=(N // 10, 3))
        t_eps = 1.3
        taus = rng.uniform(0, t_eps, N) if mode != "steady_state" else None
        tr = _tag_training(xs, taus=taus, m=3)
        # each region is the patch of one observable at r = 0
        regions = [Region((0,)), Region((1, 2)), Region(())]
        rep = _coverage(tr, ["Z@0", "ZZ@1,2", UNIT], 0, gamma, model.family, q=q,
                        t_eps=None if mode == "steady_state" else t_eps)
        axis_cells = math.ceil(2.0 / gamma)
        time_cells = math.ceil(t_eps / gamma)
        for region, entry in zip(regions, rep["entries"], strict=True):
            idx = model.family.coords_for_region(region)
            ref: Counter = Counter()
            for i in range(N):
                key = tuple(int(min(axis_cells - 1, math.floor((v + 1.0) / gamma)))
                            for v in xs[i, idx])
                if mode != "steady_state":
                    key += (int(min(time_cells - 1, math.floor(taus[i] / gamma))),)
                ref[key] += 1
            assert entry["sites"] == list(region.sites)
            assert entry["occupied"] == len(ref)
            assert entry["covered"] == sum(1 for v in ref.values() if v >= q)


def _grid_training(data, N, n, timed):
    """A pinning-sized training set on grid tags, so that ties, cell borders
    and repeated cells are common, with random snapshots."""
    grid = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.3, 0.5, 1.0])
    X = np.array(data.draw(st.lists(st.lists(grid, min_size=n, max_size=n),
                                    min_size=N, max_size=N)), dtype=float).reshape(N, n)
    times = st.sampled_from([0.0, 0.2, 0.5, 1.0, 2.5])
    taus = data.draw(st.lists(times, min_size=N, max_size=N)) if timed else [math.inf] * N
    bases = data.draw(hnp.arrays(np.int8, (N, n), elements=st.integers(0, 2)))
    outcomes = data.draw(hnp.arrays(np.int8, (N, n), elements=st.sampled_from([-1, 1])))
    return TrainingSet(bases, outcomes, X, taus=taus)


def _chunks(tr, size):
    return [learning_reference.row_slice(tr, lo, lo + size) for lo in range(0, len(tr), size)]


def _check_every_prefix(fold, tr, obs, xs, ts, p, family):
    """Every prefix size, past N too, and None give the whole-array
    reference's prediction from that prefix, at every test point."""
    N = len(tr)
    for i in range(len(xs)):
        for size in [None, *range(1, N + 3)]:
            want = learning_reference.predict(
                obs, xs[i], ts[i], learning_reference.row_slice(tr, 0, size or N), p, family)
            assert predict(fold, i, size) == want, (i, size)


class TestCellFold:
    """Folding a training set a chunk at a time gives the whole-array
    predictor's predictions at every prefix, and its coverage counts."""

    def _plan(self, model, r, gamma):
        sc = model.structural_constants()
        consts = PlanConstants(J=sc["J"], ell=sc["ell"], r0=sc["r0"], D=sc["D"],
                               n=sc["n"], m=sc["m"], k0=1)
        return replace(plan(0.3, 0.1, 0.1, consts, "steady_state", n_cap=10**6),
                       r=r, gamma=gamma)

    @given(data=st.data(), timed=st.booleans(), chunk=st.integers(1, 7))
    @settings(max_examples=80, deadline=None)
    def test_chunked_fold_matches_whole_array_reference(self, data, timed, chunk):
        model = instantiate("pinning", Lattice(1, (4,), "open"))
        N = data.draw(st.integers(1, 30))
        tr = _grid_training(data, N, 4, timed)
        p = self._plan(model, r=data.draw(st.integers(0, 1)),
                       gamma=data.draw(st.sampled_from([0.1, 0.25, 0.5, 2.0])))
        obs = [observable_from_string(s, model.lattice)
               for s in data.draw(st.sampled_from([["Z@1"], ["Z@0", "YX@3,2"], ["Z@3", "Z@3"]]))]
        points = data.draw(st.integers(1, 4))
        xs = np.array(data.draw(st.lists(st.lists(st.sampled_from([-0.5, 0.0, 0.3, 0.9]),
                                                  min_size=4, max_size=4),
                                         min_size=points, max_size=points)))
        ts = data.draw(st.lists(st.sampled_from([0.0, 0.5, 2.5]) if timed else st.just(math.inf),
                                min_size=points, max_size=points))
        fold = CellFold(obs, xs, ts, p, model.family)
        for piece in _chunks(tr, chunk):
            fold.add(piece)
        assert fold.n_samples == N
        # no size is declared: prefixes end mid-chunk, on a chunk border and past N
        _check_every_prefix(fold, tr, obs, xs, ts, p, model.family)

    @pytest.mark.parametrize("tags,chunk,nearest", [
        # distances fall strictly: every row before the cell is a running minimum
        ([0.9, -0.8, 0.7, -0.6, 0.5, 0.4, -0.3, 0.2, 0.1, 0.01], 3, list(range(9))),
        # the cell's first row, 2, comes mid-chunk; row 3 is nearer than row 0
        # but comes after the cell's first row
        ([0.5, 0.6, 0.02, 0.3, 0.01, 0.7, -0.04], 4, [0, 0]),
        # rows 1 and 2 tie across a chunk border: the lower one stays nearest
        ([0.5, 0.3, -0.3, 0.3, 0.8, 0.0], 2, [0, 1, 1, 1, 1]),
    ])
    def test_prefixes_of_constructed_orders(self, tags, chunk, nearest):
        model = instantiate("pinning", Lattice(1, (1,), "open"))
        p = self._plan(model, r=0, gamma=0.05)
        N = len(tags)
        tr = TrainingSet(np.full((N, 1), 2), np.array([[1 - 2 * (k % 2)] for k in range(N)]),
                         np.array(tags)[:, None], taus=[math.inf] * N)
        obs = [observable_from_string("Z@0", model.lattice)]
        fold = CellFold(obs, np.zeros((1, 1)), [math.inf], p, model.family)
        for piece in _chunks(tr, chunk):
            fold.add(piece)
        # the nearest row named at each prefix before the cell's first row
        assert [_fallback(predict(fold, 0, s))[0] for s in range(1, len(nearest) + 1)] == nearest
        assert not predict(fold, 0, len(nearest) + 1).warnings
        _check_every_prefix(fold, tr, obs, np.zeros((1, 1)), [math.inf], p, model.family)

    @given(data=st.data(), timed=st.booleans(), chunk=st.integers(1, 7),
           gamma=st.sampled_from([0.15, 0.5, 0.7, 2.0]), q=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_chunked_coverage_matches_whole_array_reference(self, data, timed, chunk, gamma, q):
        # a cell's samples split across chunks are counted once, together
        model = instantiate("pinning", Lattice(1, (3,), "open"))
        tr = _grid_training(data, data.draw(st.integers(1, 40)), 3, timed)
        # each region is the patch of one observable at r = 0
        regions = [Region((0,)), Region((1, 2)), Region(())]
        specs = ["Z@0", "ZZ@1,2", UNIT]
        t_eps = 2.5 if timed else None
        fold = _coverage_fold(specs, 0, gamma, model.family, t_eps)
        for piece in _chunks(tr, chunk):
            fold.add(piece)
        whole = _coverage(tr, specs, 0, gamma, model.family, q=q, t_eps=t_eps)
        assert coverage_report(fold, q=q) == whole
        reference = learning_reference.coverage_cells(tr, gamma, regions, model.family, t_eps)
        for (cells, totals), (occupied, ref_counts) in zip(fold.coverage, reference,
                                                           strict=True):
            assert len(cells) == occupied
            assert np.sort(totals).tolist() == ref_counts.tolist()

    def test_ties_and_cells_across_chunk_borders(self):
        # chunks of 2 rows: rows 1 and 3 tie as the nearest samples of x = 0 in
        # two chunks, and rows 4 and 5, the cell of x = 0.9, straddle a border
        model = instantiate("pinning", Lattice(1, (1,), "open"))
        p = self._plan(model, r=0, gamma=0.05)
        X = np.array([[0.8], [0.5], [-0.7], [-0.5], [0.9], [0.92]])
        tr = TrainingSet(np.full((6, 1), 2), np.array([[1], [-1], [1], [1], [-1], [1]]), X,
                         taus=[math.inf] * 6)
        obs = [observable_from_string("Z@0", model.lattice)]
        fold = CellFold(obs, np.array([[0.0], [0.9]]), [math.inf] * 2, p, model.family)
        for piece in _chunks(tr, 2):
            fold.add(piece)
        nearest = [predict(fold, 0, size).warnings for size in (1, 3, 5, None)]
        assert [w[0].split("; ")[1] for w in nearest] == [
            "nearest sample 0 at distance 0.8", "nearest sample 1 at distance 0.5",
            "nearest sample 1 at distance 0.5", "nearest sample 1 at distance 0.5"]
        assert [predict(fold, 1, size).counts for size in (1, 3, 5, None)] == [
            (1,), (1,), (1,), (2,)]
        assert predict(fold, 1, 3).warnings and not predict(fold, 1, 5).warnings
        assert predict(fold, 1).per_term == (0.0,)  # Z estimates -3 and +3, one batch
        for size in (1, 3, 5, None):
            for i in range(2):
                assert predict(fold, i, size) == learning_reference.predict(
                    obs, fold_x := np.array([[0.0], [0.9]])[i], math.inf,
                    learning_reference.row_slice(tr, 0, size or 6), p, model.family), fold_x

    @given(data=st.data(), chunk=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_predict_between_adds_matches_reference(self, data, chunk):
        # a predict after each chunk answers every prefix folded so far, and
        # a later chunk's new codes still reach the table; test point 1 lies
        # 0.25 from every grid tag, so its cells are always empty at gamma 0.1
        model = instantiate("pinning", Lattice(1, (4,), "open"))
        tr = _grid_training(data, data.draw(st.integers(2, 20)), 4, False)
        p = self._plan(model, r=0, gamma=0.1)
        obs = [observable_from_string(s, model.lattice) for s in ("Z@0", "YX@3,2")]
        xs, ts = np.array([[0.0] * 4, [0.75] * 4]), [math.inf] * 2
        fold = CellFold(obs, xs, ts, p, model.family)
        seen = 0
        for piece in _chunks(tr, chunk):
            fold.add(piece)
            seen += len(piece)
            _check_every_prefix(fold, learning_reference.row_slice(tr, 0, seen), obs, xs, ts,
                                p, model.family)
        assert len(predict(fold, 1).warnings) == 2

    def test_one_estimate_per_term_and_code(self):
        # terms of 1, 2 and 3 sites, so a call's arguments name its term
        model = instantiate("pinning", Lattice(1, (4,), "open"))
        rng = np.random.default_rng(5)
        N = 300
        tr = TrainingSet(rng.integers(0, 3, (N, 4)), rng.choice([-1, 1], (N, 4)),
                         rng.uniform(-1, 1, (N, 4)), [math.inf] * N)
        obs = [observable_from_string(s, model.lattice)
               for s in ("Z@1", "XZ@0,1", "ZZZ@1,2,3")]
        xs = rng.uniform(-1, 1, (6, 4))
        p = self._plan(model, r=0, gamma=0.3)
        fold = CellFold(obs, xs, [math.inf] * 6, p, model.family)
        with mock.patch.object(learner, "snapshot_local_matrix",
                               wraps=learner.snapshot_local_matrix) as spy:
            for piece in _chunks(tr, 64):
                fold.add(piece)
            calls = Counter((tuple(c.args[0]), tuple(c.args[1])) for c in spy.call_args_list)
            assert calls and max(calls.values()) == 1
            tabulated = sum(int(np.count_nonzero(~np.isnan(t))) for t in fold.tables)
            assert spy.call_count == tabulated
            # predict reads the tables: no estimate and no sort
            sizes = [(i, size) for size in (None, 1, 50, 299) for i in range(len(xs))]
            with mock.patch.object(np, "unique", side_effect=AssertionError):
                got = [predict(fold, i, size) for i, size in sizes]
            assert spy.call_count == tabulated
        assert got == [learning_reference.predict(
            obs, xs[i], math.inf, learning_reference.row_slice(tr, 0, size or N), p, model.family)
            for i, size in sizes]

    def test_coverage_fold_computes_no_codes(self):
        # a fold without test points reads no snapshot column, so a chunk
        # with none folds, and no estimate is evaluated
        model = instantiate("pinning", Lattice(1, (3,), "open"))
        fold = _coverage_fold(["Z@0", "ZZ@1,2"], 0, 0.5, model.family)
        none = np.empty((4, 0), dtype=np.int8)
        with mock.patch.object(learner, "snapshot_local_matrix") as spy:
            fold.add(TrainingSet(none, none, np.zeros((4, model.family.m)), [math.inf] * 4))
        assert spy.call_count == 0 and fold.n_samples == 4
        assert all(np.isnan(t).all() for t in fold.tables)

    def test_wide_observable_raises_before_folding(self):
        model = instantiate("pinning", Lattice(1, (8,), "open"))
        wide = LocalObservable(Region(tuple(range(7))), np.eye(2**7))
        with pytest.raises(ValueError, match="region of 7 sites exceeds local cap 6"):
            CellFold([wide], np.zeros((1, model.family.m)), [math.inf],
                     self._plan(model, r=0, gamma=0.5), model.family)

    def test_empty_fold_raises(self):
        model = instantiate("pinning", Lattice(1, (2,), "open"))
        fold = CellFold([observable_from_string("Z@0", model.lattice)], np.zeros((1, 2)),
                        [math.inf], self._plan(model, r=0, gamma=0.5), model.family)
        with pytest.raises(EmptyCellError):
            predict(fold, 0)

    def test_size_below_one_and_gamma_zero_raise(self):
        model = instantiate("pinning", Lattice(1, (2,), "open"))
        obs = [observable_from_string("Z@0", model.lattice)]
        fold = CellFold(obs, np.zeros((1, 2)), [math.inf], self._plan(model, r=0, gamma=0.5),
                        model.family)
        fold.add(_tag_training(np.zeros((3, 2))))
        assert predict(fold, 0, 1).counts == (1,)
        for size in (0, -1):
            with pytest.raises(ValueError, match="at least 1 sample"):
                predict(fold, 0, size)
        with pytest.raises(ValueError, match="gamma must be positive"):
            CellFold(obs, np.zeros((1, 2)), [math.inf], self._plan(model, r=0, gamma=0.0),
                     model.family)
