import math
import tracemalloc

import numpy as np
import pytest

from focklattice import (Lattice, NumericalError, SeparationError,
                         explicit_lattice, mu_disc_many, nearest_index,
                         power_weight, rho_many, shells_for, square_lattice,
                         upper_density)
from focklattice.lattice import _search, grid_coords


class TestSquareLattice:
    def test_three_by_three_block(self, lat12, scale):
        # |m + i n| <= 1.5 covers exactly m, n in {-1, 0, 1}: 9 points
        pts = set()
        for m in (-1, 0, 1):
            for n in (-1, 0, 1):
                pts.add(complex(round(scale * m, 9), round(scale * n, 9)))
        have = {complex(round(p.real, 9), round(p.imag, 9))
                for p in lat12.points if abs(p) <= 1.5 * scale}
        assert have == pts
        assert len(have) == 9

    def test_count_matches_area(self, cw):
        lat = square_lattice(20.0, cw)
        assert len(lat) == pytest.approx(2 * 20.0 ** 2, rel=0.02)

    def test_origin_is_index_zero(self, lat12):
        assert lat12.points[0] == 0.0

    def test_delta_sep_value(self, lat12, scale):
        # min spacing = scale, rho constant = (4 pi)^(-1/2)
        oracle = scale / (4 * math.pi) ** -0.5
        assert lat12.delta_sep == pytest.approx(oracle, rel=1e-12)
        assert lat12.delta_sep == pytest.approx(4.4429, abs=2e-4)

    def test_delta_sep_is_searched_on_first_read(self, cw):
        # trace-check, reconstruct and op-norm never read it
        lat = square_lattice(7.0, cw)
        assert "delta_sep" not in vars(lat)
        assert lat.delta_sep == pytest.approx(4.4429, abs=2e-4)
        assert "delta_sep" in vars(lat)
        # explicit_lattice reads it to reject sets that are not rho-separated
        assert "delta_sep" in vars(explicit_lattice(list(lat.points), cw))

    def test_inverse_points_are_built_on_first_read(self, cw):
        # the modified Cauchy rows slice this one array at every row block
        lat = square_lattice(7.0, cw)
        assert "inv_points" not in vars(lat)
        inv = lat.inv_points
        assert inv is lat.inv_points and not inv.flags.writeable
        assert inv[0] == 0.0
        assert np.array_equal(inv[1:], 1.0 / lat.points[1:])

    def test_rho_follows_the_weight(self, lat12, power_lat):
        for lat in (lat12, power_lat):
            assert np.array_equal(lat.rho_values, rho_many(lat.weight, lat.points))
            assert not lat.rho_values.flags.writeable

    def test_delta_sep_independent_of_R(self, cw, lat12):
        lat = square_lattice(7.0, cw)
        assert lat.delta_sep == pytest.approx(lat12.delta_sep, rel=1e-12)

    def test_minimum_radius_enforced(self, cw, scale):
        with pytest.raises(ValueError):
            square_lattice(2.0 * scale, cw)


class TestExplicitLattice:
    def test_same_points_give_same_lattice(self, cw, lat12):
        lat = explicit_lattice(list(lat12.points), cw)
        assert np.array_equal(lat.points, lat12.points)
        assert lat.delta_sep == pytest.approx(lat12.delta_sep, rel=1e-12)

    def test_coincident_points_rejected(self, cw):
        with pytest.raises(SeparationError):
            explicit_lattice([0.0, 1.0, 1.0 + 0j, 2.0], cw)

    def test_near_coincident_rejected(self, cw):
        with pytest.raises(SeparationError):
            explicit_lattice([0.0, 1e-9 + 0j], cw)

    def test_missing_origin_rejected(self, cw):
        with pytest.raises(SeparationError):
            explicit_lattice([1.0 + 0j, 2.0 + 0j], cw)


class TestUpperDensity:
    def test_classical_critical_density(self, cw):
        lat = square_lattice(40.0, cw)
        r = 0.45 * 40.0 / lat.max_rho
        dens = upper_density(lat, r, centers=[0.0])
        assert dens == pytest.approx(1.0 / (2 * math.pi), rel=0.03)

    def test_thinned_lattice_halves(self, cw, scale):
        lat = square_lattice(40.0, cw)
        kept = [p for p in lat.points
                if p == 0 or (round(p.real / scale) % 2 != 0)]
        thin = explicit_lattice(kept, cw)
        r = 0.45 * 40.0 / lat.max_rho
        dens = upper_density(thin, r, centers=[0.0])
        assert dens == pytest.approx(0.5 / (2 * math.pi), rel=0.06)

    def test_monotone_under_superset(self, cw):
        lat = square_lattice(40.0, cw)
        r = 0.4 * 40.0 / lat.max_rho
        kept = [p for p in lat.points if p == 0 or abs(p.imag) > 1e-12]
        sub = explicit_lattice(kept, cw)
        assert upper_density(sub, r, centers=[0.0]) <= \
            upper_density(lat, r, centers=[0.0]) + 1e-12

    def test_schedule_margin_enforced(self, lat12):
        with pytest.raises(NumericalError):
            upper_density(lat12, 100.0 / lat12.max_rho)

    def test_default_centres_are_the_nearest_whose_discs_fit(self, lat12):
        # all nine nearest discs fit at r = 5; at r = 40 only the origin's
        # disc does (0 + 40 rho < 12 < s + 40 rho), where the nine centres
        # exited 3
        r_all, r_one = 5.0, 40.0
        assert upper_density(lat12, r_all) == \
            upper_density(lat12, r_all, centers=lat12.points[:9])
        assert upper_density(lat12, r_one) == \
            upper_density(lat12, r_one, centers=[0.0]) > 0
        with pytest.raises(NumericalError):
            upper_density(lat12, r_one, centers=lat12.points[:9])

    def test_power_weight_matches_per_centre_loop(self):
        # the batched disc masses against one disc per mu_disc_many call
        w = power_weight(0.5, rho_origin=2.0)
        lat = square_lattice(20.0, w)
        centers = [0.0, 3.0 + 1.0j, -2.0j, 5.0]
        ref = 0.0
        for c, rc in zip(centers, rho_many(w, centers)):
            rad = 1.5 * rc
            count = int(np.sum(np.abs(lat.points - c) <= rad + 1e-12))
            ref = max(ref, count / float(mu_disc_many(w, c, rad)))
        dens = upper_density(lat, 1.5, centers=centers)
        assert dens == pytest.approx(ref, rel=1e-9)

    def test_empty_window_contributes_zero(self, lat12, scale):
        deep = 0.5 * scale * (1 + 1j)   # cell center, far from all points
        dens = upper_density(lat12, 0.5, centers=[deep])
        assert dens == 0.0


class TestShells:
    def test_first_two_shells(self, lat12, scale):
        members = np.split(np.arange(len(lat12)), shells_for(lat12).starts[1:])
        first = lat12.points[members[1]]
        assert sorted((round(p.real, 9), round(p.imag, 9)) for p in first) == \
            sorted([(round(scale, 9), 0.0), (-round(scale, 9), 0.0),
                    (0.0, round(scale, 9)), (0.0, -round(scale, 9))])
        second = lat12.points[members[2]]
        assert len(second) == 4
        assert all(abs(abs(p) - scale * math.sqrt(2)) < 1e-9 for p in second)

    def test_partition(self, lat12):
        # index order is shell order: the shells are consecutive index runs
        members = np.split(np.arange(len(lat12)), shells_for(lat12).starts[1:])
        assert np.array_equal(np.concatenate(members), np.arange(len(lat12)))

    def test_radii_strictly_increasing(self, lat12):
        sch = shells_for(lat12)
        assert np.all(np.diff(sch.radii) > 0)

    def test_symmetry_invariance(self, cw, lat12):
        # shells are preserved by lambda -> i lambda, -lambda, conj(lambda)
        pts = lat12.points
        for transform in (lambda p: 1j * p, lambda p: -p, np.conj):
            for members in np.split(np.arange(len(pts)), shells_for(lat12).starts[1:]):
                shell = set(np.round(pts[members], 9).tolist())
                image = set(np.round(transform(pts[members]), 9).tolist())
                assert shell == image

    def test_unordered_points_rejected(self, lat12):
        # the shell split relies on index order being radius order
        pts = lat12.points.copy()
        pts[[1, 9]] = pts[[9, 1]]
        with pytest.raises(ValueError, match="ascending radius"):
            Lattice(points=pts, scale=lat12.scale,
                    truncation_radius=lat12.truncation_radius,
                    weight=lat12.weight, kind="explicit")


@pytest.fixture(scope="module")
def power_lat():
    return square_lattice(20.0, power_weight(0.5, rho_origin=2.0))


@pytest.fixture(scope="module")
def power5_lat():
    return square_lattice(20.0, power_weight(5.0, rho_origin=2.0))


@pytest.fixture(scope="module")
def power5_c1_lat():
    # rho from 0.50 down to 0.0013 against a spacing of 1.25
    return square_lattice(20.0, power_weight(5.0, c_gamma=1.0))


@pytest.fixture(scope="module")
def random_lat():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-10, 10, 400) + 1j * rng.uniform(-10, 10, 400)
    return explicit_lattice(np.concatenate([[0.0], pts]),
                            power_weight(0.5, rho_origin=2.0))


@pytest.fixture(scope="module")
def clustered_lat():
    # 300 points within 0.05 of 3 + 2i (one bucket) and 40 outliers
    rng = np.random.default_rng(4)
    cluster = 3 + 2j + 0.05 * np.sqrt(rng.uniform(size=300)) \
        * np.exp(2j * math.pi * rng.uniform(size=300))
    outliers = rng.uniform(-15, 15, 40) + 1j * rng.uniform(-15, 15, 40)
    return explicit_lattice(np.concatenate([[0.0], cluster, outliers]),
                            power_weight(0.5, rho_origin=2.0))


SQUARE_LATTICES = ["lat16", "power_lat", "power5_lat", "power5_c1_lat"]
LOOKUP_LATTICES = SQUARE_LATTICES + ["random_lat", "clustered_lat"]


class TestNearestIndex:
    """The bucket-grid search against a dense argmin over every lattice
    point, Euclidean (`nearest_index`) and in delta_sep's rho-scaled metric,
    on square and explicit lattices, for queries in the disc, at and near
    lattice points, beyond the truncation and out to |z| = 1e3."""

    @staticmethod
    def sample(lat, rng, n=3000):
        r = lat.truncation_radius * np.sqrt(rng.uniform(size=n))
        z = r * np.exp(2j * math.pi * rng.uniform(size=n))
        far = np.geomspace(lat.truncation_radius, 1e3, 300) \
            * np.exp(2j * math.pi * rng.uniform(size=300))
        # lattice points themselves and points very close to them
        return np.concatenate([z, far, lat.points[::7], lat.points[::11] + 1e-9])

    @staticmethod
    def beyond(lat, rng, n=2000):
        # |z| from R - scale to R + 3 scale: most round to grid points
        # outside the truncation
        R, s = lat.truncation_radius, lat.scale
        r = rng.uniform(R - s, R + 3.0 * s, size=n)
        return r * np.exp(2j * math.pi * rng.uniform(size=n))

    @staticmethod
    def midlines(lat):
        # s(m + 1/2) + i s n and its rotation by i, equidistant from two
        # grid points, out to |z| = R + 3 scale
        R, s = lat.truncation_radius, lat.scale
        k = np.arange(-int(R / s) - 4, int(R / s) + 4)
        z = (s * (k[:, None] + 0.5) + 1j * s * k[None, :]).ravel()
        z = z[np.abs(z) <= R + 3.0 * s]
        return np.concatenate([z, 1j * z])

    @staticmethod
    def check_against_dense(lat, z, scaled):
        # distances only: on ties either index is right.  scaled: the search
        # in delta_sep's metric |z - lambda| / max(rho(z), rho_lambda), here
        # at queries off the points, where rho(z) may pass every rho_lambda
        dense = np.abs(z[:, None] - lat.points[None, :])
        if scaled:
            r_z = rho_many(lat.weight, z)
            dense /= np.maximum(r_z[:, None], lat.rho_values[None, :])
            idx, dist = _search(lat.points, lat.rho_values, z, r_z,
                                lat.scale if lat.kind == "square" else None)
        else:
            idx, dist = nearest_index(lat, z)
        best = dense.min(axis=1)
        assert np.allclose(dist, best, rtol=1e-12, atol=1e-15)
        assert np.allclose(dense[np.arange(z.size), idx], best, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("which", LOOKUP_LATTICES)
    def test_euclidean_matches_dense_argmin(self, which, request, rng):
        lat = request.getfixturevalue(which)
        self.check_against_dense(lat, self.sample(lat, rng), scaled=False)

    @pytest.mark.parametrize("which", LOOKUP_LATTICES)
    def test_cell_matches_dense_surrogate_argmin(self, which, request, rng):
        lat = request.getfixturevalue(which)
        self.check_against_dense(lat, self.sample(lat, rng), scaled=True)

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("which", SQUARE_LATTICES)
    def test_beyond_truncation_matches_dense(self, which, scaled, request, rng):
        lat = request.getfixturevalue(which)
        z = self.beyond(lat, rng)
        m, n = grid_coords(z, lat.scale)
        assert np.sum(np.abs(lat.scale * (m + 1j * n)) > lat.truncation_radius) > 500
        self.check_against_dense(lat, z, scaled)

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("which", SQUARE_LATTICES)
    def test_midlines_match_dense_by_distance(self, which, scaled, request):
        lat = request.getfixturevalue(which)
        self.check_against_dense(lat, self.midlines(lat), scaled)

    def test_wide_explicit_lattice_keeps_a_small_table(self, cw, rng):
        # spacing 1e-3 near the origin, extent 1e3: a table binned at the
        # smallest spacing would hold 4e12 buckets, one at spacing 1 holds
        # 4e6 (32 MB of bin starts); the search needs about 1.2 MB
        k = np.arange(-5, 6)
        block = 1e-3 * (k[:, None] + 1j * k[None, :]).ravel()
        ring = 1e3 * np.exp(2j * math.pi * np.arange(200) / 200)
        tracemalloc.start()
        try:
            lat = explicit_lattice(np.concatenate([block, ring]), cw)
            z = self.sample(lat, rng)
            nearest_index(lat, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert lat.delta_sep == pytest.approx(1e-3 / lat.max_rho, rel=1e-9)
        for scaled in (False, True):
            self.check_against_dense(lat, z, scaled)


class TestSeparation:
    """delta_sep from the bucket-grid search against the minimum over all
    pairs of points."""

    @pytest.mark.parametrize("which", ["lat12", "power_lat", "power5_lat",
                                       "clustered_lat"])
    def test_delta_sep_matches_dense_pairs(self, which, request):
        lat = request.getfixturevalue(which)
        P, rv = lat.points, lat.rho_values
        dense = np.abs(P[:, None] - P[None, :]) / np.maximum(rv[:, None], rv[None, :])
        np.fill_diagonal(dense, np.inf)
        assert lat.delta_sep == pytest.approx(dense.min(), rel=1e-12)

    def test_explicit_lattice_matches_dense_pairs(self, cw, rng):
        pts = np.concatenate([[0.0], rng.uniform(-5, 5, 60) + 1j * rng.uniform(-5, 5, 60)])
        lat = explicit_lattice(pts, cw)
        dense = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(dense, np.inf)
        assert lat.delta_sep == pytest.approx(dense.min() / lat.max_rho, rel=1e-12)
