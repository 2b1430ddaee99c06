import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselearn.lattice import (
    Lattice,
    Region,
    LocalObservable,
    ball,
    embed,
    enlarge,
    l1_ball_volume,
    observable_from_string,
    pauli_matrix,
)


class TestDistance:
    def test_open_chain_endpoints(self, chain5):
        assert chain5.distances(0)[4] == 4

    def test_periodic_wrap(self, ring5):
        assert ring5.distances(0)[4] == 1

    def test_manhattan_2d(self, grid33):
        assert grid33.distances(0)[8] == 4  # (0, 0) to (2, 2)

    def test_invalid_site(self, chain5):
        with pytest.raises(ValueError):
            chain5.distances(7)

    @given(st.integers(2, 9), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_metric_axioms(self, n, periodic, data):
        lat = Lattice(1, (n,), "periodic" if periodic else "open")
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        w = data.draw(st.integers(0, n - 1))
        d = [lat.distances(s) for s in range(n)]
        assert d[u][u] == 0
        assert d[u][v] == d[v][u]
        assert d[u][w] <= d[u][v] + d[v][w]


class TestRegions:
    def test_enlarge_point(self, chain5):
        assert enlarge(chain5, Region((2,)), 1).sites == (1, 2, 3)

    def test_enlarge_periodic_wraps_to_whole_chain(self, ring5):
        assert enlarge(ring5, Region((0,)), 2).sites == (0, 1, 2, 3, 4)

    def test_enlarge_pair(self):
        lat = Lattice(1, (8,), "open")
        assert enlarge(lat, Region((3, 4)), 1).sites == (2, 3, 4, 5)

    def test_enlarge_zero_is_identity(self, chain5):
        r = Region((1, 3))
        assert enlarge(chain5, r, 0).sites == r.sites

    @given(st.integers(0, 4), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_monotone_nesting(self, center, r):
        lat = Lattice(1, (5,), "open")
        a = ball(lat, center, r)
        b = ball(lat, center, r + 1)
        assert a.as_set() <= b.as_set()
        assert len(a) <= 2 * r + 1

    def test_ball_volume_bound_2d(self, grid33):
        b = ball(grid33, 4, 1)  # centre (1, 1)
        assert len(b) == 5
        assert len(b) <= (2 * 1 + 1) ** 2
        assert l1_ball_volume(1, 2) == 5

    def test_boundary_sites(self, chain5):
        assert Region((1, 2, 3)).boundary_sites(chain5) == {1, 3}
        assert Region((0, 1, 2, 3, 4)).boundary_sites(chain5) == frozenset()


# Loop definitions of the metric and the region queries, kept here as the
# reference the vectorised rows are checked against.

def ref_coords(lat, s):
    return (s,) if lat.dim == 1 else divmod(s, lat.extent[1])


def ref_distance(lat, u, v):
    total = 0
    for a, b, ext in zip(ref_coords(lat, u), ref_coords(lat, v), lat.extent):
        step = abs(a - b)
        if lat.boundary == "periodic":
            step = min(step, ext - step)
        total += step
    return total


def ref_ball(lat, center, radius):
    return tuple(v for v in lat.all_sites() if ref_distance(lat, center, v) <= radius)


def ref_enlarge(lat, sites, r):
    return tuple(sorted({v for s in sites for v in ref_ball(lat, s, r)}))


def ref_diameter(lat, sites):
    return max((ref_distance(lat, u, v) for u in sites for v in sites), default=0)


def ref_boundary_sites(lat, sites):
    return frozenset(s for s in sites
                     if any(t not in sites and ref_distance(lat, s, t) == 1
                            for t in lat.all_sites()))


def ref_support_geometry(fam):
    """Per term: the first site minimising the covering radius, and that radius."""
    centers, radii = [], []
    for term in fam.terms:
        sites = [s for s in term.support.sites if s < fam.n_system]
        if not sites:
            centers.append(term.support.sites[0])
            radii.append(0)
            continue
        best_c, best_r = sites[0], None
        for u in sites:
            r = max(ref_distance(fam.lattice, u, v) for v in sites)
            if best_r is None or r < best_r:
                best_c, best_r = u, r
        centers.append(best_c)
        radii.append(best_r)
    return tuple(centers), tuple(radii)


@st.composite
def lattices(draw):
    dim = draw(st.sampled_from([1, 2]))
    extent = tuple(draw(st.integers(1, 5)) for _ in range(dim))
    return Lattice(dim, extent, draw(st.sampled_from(["open", "periodic"])))


@st.composite
def lattice_and_sites(draw):
    lat = draw(lattices())
    sites = draw(st.sets(st.integers(0, lat.n_sites - 1), max_size=lat.n_sites))
    return lat, tuple(sorted(sites))


class TestMetricRows:
    @given(lattices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_distances_match_divmod_reference(self, lat, data):
        u = data.draw(st.integers(0, lat.n_sites - 1))
        row = lat.distances(u)
        assert row.shape == (lat.n_sites,)
        assert row.tolist() == [ref_distance(lat, u, v) for v in lat.all_sites()]

    def test_distances_rejects_bad_site(self, grid33):
        for bad in (-1, 9):
            with pytest.raises(ValueError):
                grid33.distances(bad)

    @given(lattice_and_sites(), st.integers(0, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ball_and_enlarge_match_loops(self, lat_sites, r, data):
        lat, sites = lat_sites
        c = data.draw(st.integers(0, lat.n_sites - 1))
        assert ball(lat, c, r).sites == ref_ball(lat, c, r)
        assert enlarge(lat, Region(sites), r).sites == ref_enlarge(lat, sites, r)

    @given(lattice_and_sites())
    @settings(max_examples=60, deadline=None)
    def test_boundary_and_diameter_match_loops(self, lat_sites):
        lat, sites = lat_sites
        region = Region(sites)
        assert region.boundary_sites(lat) == ref_boundary_sites(lat, set(sites))
        assert region.diameter(lat) == ref_diameter(lat, sites)

    @given(lattices(), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_term_geometry_matches_loop(self, lat, with_ancillas, data):
        from phaselearn.lindblad import AncillaSpec, LindbladTerm, ParamLindbladian

        n = lat.n_sites
        ancillas = [AncillaSpec(slot=n + k, anchor=a, state=np.diag([1.0, 0.0]))
                    for k, a in enumerate((0, n - 1))] if with_ancillas else []
        slots = st.integers(0, n + len(ancillas) - 1)
        supports = data.draw(st.lists(st.sets(slots, min_size=1, max_size=4),
                                      min_size=1, max_size=6))
        terms = [LindbladTerm(Region(tuple(s)), (), lambda _x: (None, []))
                 for s in supports]
        fam = ParamLindbladian(lat, terms, ancillas)
        assert (fam.term_centers, fam.term_radii) == ref_support_geometry(fam)


class TestParamVector:
    """Parameter vectors are plain arrays: the family checks them and names the
    coordinates a region restricts them to."""

    def _pinning(self, n):
        from phaselearn.models import instantiate

        return instantiate("pinning", Lattice(1, (n,), "open")).family

    def test_bounds_rejected(self):
        fam = self._pinning(2)
        with pytest.raises(ValueError):
            fam.as_values([0.0, 1.5])
        with pytest.raises(ValueError):
            fam.as_values([-1.5, 0.0])
        assert np.array_equal(fam.as_values([1.0, -1.0]), [1.0, -1.0])

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            self._pinning(3).as_values([0.0, 0.5])

    def test_restrict_full_and_empty(self):
        fam = self._pinning(3)
        assert fam.coords_for_region(Region((0, 1, 2))).tolist() == [0, 1, 2]
        assert fam.coords_for_region(Region(())).size == 0

    def test_restrict_tfim_site2(self):
        # nearest-neighbour family on n=6: terms touching site 2 are the
        # site term at 2 and the bonds (1,2) and (2,3)
        from phaselearn.models import instantiate

        lat = Lattice(1, (6,), "open")
        model = instantiate("dissipative_tfim", lat)
        got = model.family.coords_for_region(Region((2,)))
        assert got.tolist() == [2, 6 + 1, 6 + 2]

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_restricted_count_bounded_by_patch_volume(self, r):
        # |coords_for_region(ball(u, r))| <= ell (2 (r + r0) + 1)^D
        from phaselearn.models import instantiate

        lat = Lattice(1, (8,), "open")
        fam = instantiate("dissipative_tfim", lat).family
        got = fam.coords_for_region(ball(lat, 4, r))
        assert got.size <= 2 * (2 * (r + fam.r0) + 1)


def local(mat: np.ndarray, sites) -> LocalObservable:
    return LocalObservable(Region(tuple(sites)), mat)


class TestEmbed:
    def test_z_on_first_site(self):
        lat = Lattice(1, (2,))
        out = embed(local(pauli_matrix("Z"), [0]), lat)
        assert np.allclose(np.diag(out), [1, 1, -1, -1])

    def test_identity_any_support(self):
        lat = Lattice(1, (3,))
        out = embed(local(np.eye(4, dtype=complex), [0, 2]), lat)
        assert np.allclose(out, np.eye(8))

    def test_norm_preserved(self):
        lat = Lattice(1, (3,))
        out = embed(local(pauli_matrix("XX"), [1, 2]), lat)
        assert np.isclose(np.linalg.norm(out, 2), 1.0)

    def test_trace_scaling(self):
        lat = Lattice(1, (3,))
        m = np.diag([0.3, 0.7]).astype(complex)
        out = embed(local(m, [1]), lat)
        assert np.isclose(np.trace(out), np.trace(m) * 2**2)

    def test_site_order_permutation(self):
        # a spec listing its sites out of order embeds its factors site-sorted
        lat = Lattice(1, (2,))
        a = embed(observable_from_string("ZX@1,0", lat), lat)  # Z on site 1, X on site 0
        b = embed(local(np.kron(pauli_matrix("X"), pauli_matrix("Z")), [0, 1]), lat)
        assert np.allclose(a, b)

    def test_multiplicative_on_disjoint_supports(self):
        lat = Lattice(1, (4,))
        a = embed(local(pauli_matrix("X"), [0]), lat)
        b = embed(local(pauli_matrix("Z"), [2]), lat)
        ab = embed(local(np.kron(pauli_matrix("X"), pauli_matrix("Z")), [0, 2]), lat)
        assert np.allclose(a @ b, ab)

    def test_cap(self):
        lat = Lattice(1, (13,))
        with pytest.raises(ValueError):
            embed(local(pauli_matrix("Z"), [0]), lat)


class TestObservables:
    def test_parse_and_norm(self, chain5):
        obs = observable_from_string("Z@2", chain5)
        assert obs.support.sites == (2,)
        assert np.isclose(obs.operator_norm, 1.0)

    def test_two_site_sorted(self, chain5):
        obs = observable_from_string("XZ@3,1", chain5)
        # letters follow the listed sites; storage is site-sorted
        assert obs.support.sites == (1, 3)
        assert np.allclose(obs.matrix, np.kron(pauli_matrix("Z"), pauli_matrix("X")))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            LocalObservable(Region((0,)), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_diameter_cap(self, chain5):
        with pytest.raises(ValueError):
            observable_from_string("XX@0,4", chain5, k0=2)

    def test_lattice_json_header(self, grid33):
        # the training.shadows header records the lattice in this form
        assert grid33.to_json() == \
            '{"boundary": "open", "dim": 2, "extent": [3, 3], "local_dim": 2}'
