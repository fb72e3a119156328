import cmath
import math

import numpy as np
import pytest

from focklattice import (NumericalError, SchemaError, builtin_sigma_multiplier,
                         power_weight, sigma_log, sigma_weighted_mag,
                         square_lattice, user_multiplier)
from focklattice.classifier import TraceData, condition, condition_a


@pytest.fixture(scope="module")
def lat30(cw):
    return square_lattice(30.0, cw)


def sigma_mp(mp, z):
    """sigma(z) = (s/pi) e^{z^2} theta_1(pi z/s, e^{-pi}) / theta_1'(0) in
    mpmath, with no lattice reduction."""
    s = mp.sqrt(mp.pi / 2)
    q = mp.exp(-mp.pi)
    return (s / mp.pi * mp.exp(z * z) * mp.jtheta(1, mp.pi * z / s, q)
            / mp.jtheta(1, 0, q, 1))


def exact_point(mp, lam, scale):
    """The lattice point s(m+in) in mpmath, from its double-rounded value."""
    m, n = round(lam.real / scale), round(lam.imag / scale)
    return mp.sqrt(mp.pi / 2) * mp.mpc(m, n)


def phase_gap(a, b):
    d = (a - b + math.pi) % (2.0 * math.pi) - math.pi
    return abs(d)


class TestMpmathOracle:
    """30-digit mpmath theta functions, evaluated without the reduction to
    the fundamental cell; bounds fixed before measuring."""

    def test_sigma_log_matches_jtheta(self, lat30):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        zs = 57.0 * np.sqrt(rng.uniform(0, 1, 40)) \
            * np.exp(2j * math.pi * rng.uniform(0, 1, 40))
        with mp.workdps(30):
            for z in zs:
                got = sigma_log(lat30, complex(z))
                want = mp.log(sigma_mp(mp, mp.mpc(z.real, z.imag)))
                assert abs(got.real - float(want.real)) <= 1e-11
                assert phase_gap(got.imag, float(want.imag)) <= 1e-11

    def test_g_prime_weighted_matches_derivative(self, lat30, scale):
        mp = pytest.importorskip("mpmath")
        m = builtin_sigma_multiplier(lat30)
        with mp.workdps(30):
            for k in (0, 1, 5, 17, 60, 300, len(lat30) - 1):
                lam = exact_point(mp, lat30.points[k], scale)
                want = mp.diff(lambda z: sigma_mp(mp, z), lam) \
                    * mp.exp(-abs(lam) ** 2)
                assert abs(m.g_prime_weighted([k])[0] - complex(want)) <= 1e-12

    def test_log_g_deflated_near_and_away(self, lat30, scale):
        mp = pytest.importorskip("mpmath")
        m = builtin_sigma_multiplier(lat30)
        with mp.workdps(30):
            for k in (0, 3, 60, len(lat30) - 1):
                lam = complex(lat30.points[k])
                for h in (1e-12, 1e-6, 0.3, 2.0 + 0.7j):
                    z = lam + h
                    w = z - lam       # exact: what the evaluator deflates by
                    got = m.log_g_deflated(np.asarray([z]), k)[0]
                    wm = mp.mpc(w.real, w.imag)
                    want = mp.log(sigma_mp(mp, exact_point(mp, lam, scale) + wm)
                                  / wm)
                    assert abs(got.real - float(want.real)) <= 1e-12
                    assert phase_gap(got.imag, float(want.imag)) <= 1e-11


class TestSigmaLog:
    def test_matches_literal_product(self, lat30, rng):
        # z prod (1 - z/l) exp(z/l + z^2/(2 l^2)) over 0 < |l| <= 30: by the
        # square symmetry only l^{-4k} tail sums survive, so the omitted
        # factors change log sigma by at most |z|^4/4 sum_{|l|>R} |l|^-4,
        # about |z|^4 / (2 R^2) from the point density 2/pi
        pts = lat30.points[1:]
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            u = z / pts
            prod = cmath.log(z) + complex(np.sum(np.log(1 - u) + u + u * u / 2))
            got = sigma_log(lat30, z)
            assert abs(cmath.exp(got - prod) - 1.0) <= abs(z) ** 4 / (2 * 30.0 ** 2)

    def test_oddness(self, lat16, rng):
        for _ in range(10):
            z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            if min(abs(z - p) for p in lat16.points) < 1e-2:
                continue
            a = cmath.exp(sigma_log(lat16, z))
            b = cmath.exp(sigma_log(lat16, -z))
            assert abs(a + b) <= 1e-8 * abs(a)

    def test_normalised_at_origin(self, lat16):
        z = 1e-3
        val = cmath.exp(sigma_log(lat16, z)) / z
        assert abs(val - 1.0) <= 1e-5

    def test_scalar_vector_agree(self, lat12):
        z = 0.37 + 0.21j
        a = sigma_log(lat12, z)
        b = sigma_log(lat12, np.asarray([z]))[0]
        assert abs(a - b) <= 1e-12

    def test_on_lattice_rejected(self, lat12, scale):
        with pytest.raises(NumericalError):
            sigma_log(lat12, scale + 0j)


class TestWeightedMag:
    def test_zero_on_lattice_points(self, lat12, scale):
        assert sigma_weighted_mag(lat12, scale * (1 + 1j)) == 0.0
        assert sigma_weighted_mag(lat12, 0.0) == 0.0

    def test_periodicity(self, lat16, rng, scale):
        zs, shifted = [], []
        while len(zs) < 100:
            z = rng.uniform(-0.45, 0.45) + 1j * rng.uniform(-0.45, 0.45)
            z *= scale
            if min(abs(z - p) for p in lat16.points) > 1e-3 and \
               min(abs(z + scale - p) for p in lat16.points) > 1e-3:
                zs.append(z)
        zs = np.asarray(zs)
        a = sigma_weighted_mag(lat16, zs)
        b = sigma_weighted_mag(lat16, zs + scale)
        assert np.max(np.abs(a - b) / np.maximum(a, b)) <= 1e-6

    def test_deep_hole_ratio(self, lat12, scale):
        deep = 0.5 * scale * (1 + 1j)
        val = sigma_weighted_mag(lat12, deep)
        d = scale / math.sqrt(2)
        assert val > 0
        assert 0.1 < val / d < 10.0

    def test_two_sided_envelope(self, lat16, scale):
        n = 40
        xs = (np.arange(n) + 0.5) / n * scale - scale / 2
        X, Y = np.meshgrid(xs, xs)
        Z = (X + 1j * Y).ravel()
        Z = Z[np.abs(Z) > 5e-2]
        W = sigma_weighted_mag(lat16, Z)
        neigh = np.asarray([scale * (a + 1j * b)
                            for a in (-1, 0, 1) for b in (-1, 0, 1)])
        dist = np.min(np.abs(Z[:, None] - neigh[None, :]), axis=1)
        ratio = W / np.minimum(1.0, dist)
        assert ratio.max() / ratio.min() < 50.0


class TestSigmaPrime:
    def test_non_square_lattice_rejected(self, cw):
        from focklattice import explicit_lattice
        lat = explicit_lattice([0.0, 1.5, 3.0, 1.5j, 3j, -1.5, -3.0], cw)
        for call in (lambda: sigma_log(lat, 0.7 + 0.2j),
                     lambda: sigma_weighted_mag(lat, 0.7 + 0.2j)):
            with pytest.raises(SchemaError):
                call()


class TestBuiltinMultiplier:
    def test_requires_square_lattice(self, cw):
        from focklattice import explicit_lattice
        lat = explicit_lattice([0.0, 1.5, 3.0, 1.5j, 3j, -1.5, -3.0], cw)
        with pytest.raises(SchemaError):
            builtin_sigma_multiplier(lat)


class TestOneWeight:
    """The lattice carries the weight; multipliers and trace data read it."""

    def test_builtin_reads_the_lattice_weight(self, lat12, mult12):
        data = TraceData.gaussian(mult12, 2.0, 0.3)
        assert mult12.weight is lat12.weight
        assert data.weight is lat12.weight and data.lattice is lat12

    def test_user_table_reads_the_lattice_weight(self):
        lat = square_lattice(10.0, power_weight(0.5, rho_origin=2.0))
        um = user_multiplier(lat, 1.0 / lat.rho_values, weighted=True)
        data = TraceData.zero(um, 3.0)
        assert um.weight is lat.weight
        assert data.weight is lat.weight and data.lattice is lat

    def test_builtin_refuses_a_power_weight_lattice(self):
        # the builtin took the classical weight by default whatever the
        # lattice's, and then ran the power weight's branch on classical
        # rho; sigma_weighted_mag (sigma-eval) wrote the classical weighting
        lat = square_lattice(12.0, power_weight(0.5, rho_origin=2.0))
        for call in (lambda: builtin_sigma_multiplier(lat),
                     lambda: sigma_log(lat, 0.7 + 0.2j),
                     lambda: sigma_weighted_mag(lat, 0.7 + 0.2j)):
            with pytest.raises(SchemaError, match="classical weight"):
                call()


class TestUserMultiplier:
    def test_reproduces_builtin_trace_ops(self, lat12, mult12):
        um = user_multiplier(lat12, mult12.g_prime_weighted(), weighted=True)
        d1 = TraceData.gaussian(mult12, 2.0, 0.3)
        d2 = TraceData.gaussian(um, 2.0, 0.3)
        r1, r2 = condition(d1, "b"), condition(d2, "b")
        t1 = np.asarray(r1.partial_trajectory)
        t2 = np.asarray(r2.partial_trajectory)
        assert np.allclose(t1, t2, rtol=1e-12)

    def test_scaled_table_scales_d_not_verdicts(self, lat12, mult12):
        kappa = 2.5 - 1.0j
        um = user_multiplier(lat12, kappa * mult12.g_prime_weighted(),
                             weighted=True)
        base = TraceData.gaussian(mult12, 2.0, 0.3)
        scaled = TraceData.gaussian(um, 2.0, 0.3)
        assert np.allclose(scaled.d, base.d / kappa, rtol=1e-12)
        assert condition_a(base).verdict == condition_a(scaled).verdict
        assert condition(base, "b").verdict == condition(scaled, "b").verdict

    def test_zero_entry_rejected(self, lat12):
        table = np.ones(len(lat12), dtype=complex)
        table[3] = 0.0
        with pytest.raises(SchemaError):
            user_multiplier(lat12, table)

    def test_missing_index_rejected(self, lat12):
        table = np.ones(len(lat12) - 1, dtype=complex)
        with pytest.raises(SchemaError):
            user_multiplier(lat12, table)

    def test_no_log_g(self, lat12, mult12):
        um = user_multiplier(lat12, mult12.g_prime_weighted(), weighted=True)
        with pytest.raises(NumericalError):
            um.log_g(0.3 + 0.2j)

    def test_ops_depend_on_g_only_through_gprime(self, lat12, mult12):
        table = mult12.g_prime_weighted()
        um1 = user_multiplier(lat12, table, weighted=True)
        um2 = user_multiplier(lat12, table, weighted=True,
                              g_double_prime0=3.0 - 2.0j)
        da = TraceData.gaussian(um1, 2.0, 0.2 + 0.1j)
        db = TraceData.gaussian(um2, 2.0, 0.2 + 0.1j)
        ra, rb = condition(da, "b"), condition(db, "b")
        assert np.allclose(np.asarray(ra.partial_trajectory),
                           np.asarray(rb.partial_trajectory), rtol=0)
