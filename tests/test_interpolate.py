import math

import numpy as np
import pytest

from focklattice import (NumericalError, make_interpolant, reconstruct,
                         reconstruct_inf, verify_interpolation, w0_from,
                         weighted_norm)
from focklattice.classifier import TraceData
from conftest import gaussian_fn


def offgrid(lat, rng, count, radius):
    out = []
    while len(out) < count:
        z = rng.uniform(-radius, radius, 4 * count) \
            + 1j * rng.uniform(-radius, radius, 4 * count)
        z = z[np.abs(z) <= radius]
        d = np.min(np.abs(z[:, None] - lat.points[None, :]), axis=1)
        out.extend(z[d > 2e-3].tolist())
    return np.asarray(out[:count])


class TestReconstruct:
    def test_constant_function(self, lat16, mult16, cw, rng):
        data = TraceData.constant(lat16, mult16, cw, 2.0, 1.0)
        zs = offgrid(lat16, rng, 60, 4.0)
        rec = reconstruct(data, zs)
        assert np.max(np.abs(rec - 1.0)) <= 1e-4

    def test_trace_of_multiplier_reconstructs_to_zero(self, lat16, mult16, cw, rng):
        data = TraceData.zero(lat16, mult16, cw, 2.0)
        zs = offgrid(lat16, rng, 20, 5.0)
        assert np.max(np.abs(reconstruct(data, zs))) == 0.0

    def test_gaussian_weighted_error(self, lat16, mult16, cw, rng):
        wv = 0.7 - 0.2j
        data = TraceData.gaussian(lat16, mult16, cw, 2.0, wv)
        zs = offgrid(lat16, rng, 80, 4.0)
        rec = reconstruct(data, zs)
        err = np.abs(rec - gaussian_fn(wv)(zs)) * np.exp(-np.abs(zs) ** 2)
        assert np.max(err) <= 1e-3

    def test_on_lattice_returns_trace_value(self, lat16, mult16, cw):
        wv = 0.3 + 0.4j
        data = TraceData.gaussian(lat16, mult16, cw, 2.0, wv)
        lam = lat16.points[7]
        assert reconstruct(data, lam) == pytest.approx(gaussian_fn(wv)(lam),
                                                       rel=1e-10)

    def test_near_lattice_deflated_path(self, lat16, mult16, cw):
        wv = 0.2 - 0.1j
        data = TraceData.gaussian(lat16, mult16, cw, 2.0, wv)
        lam = lat16.points[5]
        rho = lat16.rho_values[5]
        z = lam + 1e-4 * rho          # inside the deflation threshold
        rec = reconstruct(data, z)
        assert abs(rec - gaussian_fn(wv)(z)) * math.exp(-abs(z) ** 2) <= 1e-6

    def test_linearity_in_values(self, lat12, mult12, cw, rng):
        v1 = (rng.standard_normal(len(lat12)) + 1j * rng.standard_normal(len(lat12))) \
            * np.exp(-np.abs(lat12.points) ** 2 / 3)
        v2 = (rng.standard_normal(len(lat12)) + 1j * rng.standard_normal(len(lat12))) \
            * np.exp(-np.abs(lat12.points) ** 2 / 3)
        a, b = 0.7 + 0.1j, -1.2 + 0.4j
        d1 = TraceData.from_weighted(lat12, mult12, cw, 2.0, v1)
        d2 = TraceData.from_weighted(lat12, mult12, cw, 2.0, v2)
        d12 = TraceData.from_weighted(lat12, mult12, cw, 2.0, a * v1 + b * v2)
        zs = offgrid(lat12, rng, 10, 3.0)
        lhs = reconstruct(d12, zs)
        rhs = a * reconstruct(d1, zs) + b * reconstruct(d2, zs)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_single_point_data_is_deflated_kernel(self, lat16, mult16, cw, rng):
        # c = g'(lambda0) at one point: the interpolant is g(z)/(z - lambda0)
        idx = 9
        vals = np.zeros(len(lat16), complex)
        vals[idx] = mult16.g_prime_weighted(np.asarray([idx]))[0]
        data = TraceData.from_weighted(lat16, mult16, cw, 2.0, vals)
        zs = offgrid(lat16, rng, 20, 4.0)
        rec = reconstruct(data, zs)
        want = np.exp(mult16.log_g(zs)) / (zs - lat16.points[idx])
        assert np.max(np.abs(rec - want) * np.exp(-np.abs(zs) ** 2)) <= 1e-10

    def test_nonconvergent_data_raises_with_exponent(self, lat16, mult16, cw, rng):
        lam = lat16.points
        gw = mult16.g_prime_weighted()
        u = np.ones(len(lam), dtype=complex)
        nz = np.abs(lam) > 0
        u[nz] = lam[nz] ** 2 / np.abs(lam[nz]) ** 1.5
        data = TraceData.from_weighted(lat16, mult16, cw, 2.0, gw * u)
        with pytest.raises(NumericalError):
            reconstruct(data, 0.4 + 0.35j)


class TestReconstructInf:
    def test_w0_shift_is_exactly_g(self, lat16, mult16, cw, rng):
        data = TraceData.gaussian(lat16, mult16, cw, math.inf, 0.5 + 0.2j)
        I0 = reconstruct_inf(data, 0.0)
        I1 = reconstruct_inf(data, 1.0)
        zs = offgrid(lat16, rng, 30, 4.0)
        g = np.exp(mult16.log_g(zs))
        assert np.max(np.abs((I1.eval(zs) - I0.eval(zs)) - g) / np.abs(g)) <= 1e-10

    def test_gaussian_with_matched_w0(self, lat16, mult16, cw, rng):
        wv = 0.4 - 0.3j
        data = TraceData.gaussian(lat16, mult16, cw, math.inf, wv)
        w0 = w0_from(gaussian_fn(wv), mult16)
        I = reconstruct_inf(data, w0)
        zs = offgrid(lat16, rng, 40, 4.0)
        err = np.abs(I.eval(zs) - gaussian_fn(wv)(zs)) * np.exp(-np.abs(zs) ** 2)
        assert np.max(err) <= 1e-3

    def test_near_lattice_deflated_path(self, lat16, mult16, cw):
        # within 1e-3 rho the excluded term keeps its +1/lambda half (and
        # at the origin w0); the origin and four other points
        wv = 0.4 - 0.3j
        data = TraceData.gaussian(lat16, mult16, cw, math.inf, wv)
        I = reconstruct_inf(data, w0_from(gaussian_fn(wv), mult16))
        idx = np.array([0, 3, 5, 12, 30])
        zs = lat16.points[idx] + 1e-4 * lat16.rho_values[idx] * np.exp(0.7j)
        err = np.abs(I.eval(zs) - gaussian_fn(wv)(zs)) * np.exp(-np.abs(zs) ** 2)
        assert np.max(err) <= 1e-10

    def test_zero_data_w0_one_gives_g(self, lat16, mult16, cw, rng):
        data = TraceData.zero(lat16, mult16, cw, math.inf)
        I = reconstruct_inf(data, 1.0)
        zs = offgrid(lat16, rng, 20, 4.0)
        g = np.exp(mult16.log_g(zs))
        assert np.allclose(I.eval(zs), g, rtol=1e-12)

    def test_default_w0_flagged(self, lat16, mult16, cw):
        data = TraceData.zero(lat16, mult16, cw, math.inf)
        I = reconstruct_inf(data)
        assert I.representative_only
        assert I.w0 == 0.0

    def test_requires_inf_data(self, lat16, mult16, cw):
        data = TraceData.zero(lat16, mult16, cw, 2.0)
        with pytest.raises(ValueError):
            reconstruct_inf(data, 0.0)


class TestW0From:
    def test_multiplier_itself(self, lat16, mult16):
        pts = lat16.points

        def g_fn(z):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            out = np.zeros(z.shape, dtype=complex)
            d = np.min(np.abs(z[:, None] - pts[None, :]), axis=1)
            off = d > 1e-9
            if off.any():
                out[off] = np.exp(mult16.log_g(z[off]))
            return out if out.size > 1 else complex(out[0])

        # f = g: f'(0)/g'(0) = 1 and g''(0) = 0 by oddness
        assert w0_from(g_fn, mult16) == pytest.approx(1.0, abs=1e-8)

    def test_constant_function(self, mult16):
        assert abs(w0_from(lambda z: 1.0 + 0j, mult16)) <= 1e-10

    def test_gaussian_closed_form(self, mult16):
        wv = 0.7 - 0.2j
        want = 2 * np.conj(wv) * math.exp(-abs(wv) ** 2)
        assert w0_from(gaussian_fn(wv), mult16) == pytest.approx(want, rel=1e-8)

    def test_user_table_without_second_derivative(self, lat12, mult12, cw):
        from focklattice import user_multiplier
        gw = mult12.g_prime_weighted()
        um = user_multiplier(lat12, cw, dict(enumerate(gw)), weighted=True)
        with pytest.raises(NumericalError):
            w0_from(lambda z: 1.0 + 0j, um)

    def test_unstable_derivative_rejected(self, mult16):
        # odd kink at 0: the two Richardson extrapolations disagree
        with pytest.raises(NumericalError):
            w0_from(lambda z: z * abs(z) ** 0.1, mult16)


class TestVerifyAndNorms:
    def test_zero_data_residual(self, lat16, mult16, cw):
        data = TraceData.zero(lat16, mult16, cw, 2.0)
        assert verify_interpolation(make_interpolant(data)) == 0.0

    def test_gaussian_residual(self, lat16, mult16, cw):
        data = TraceData.gaussian(lat16, mult16, cw, 2.0, 0.7 - 0.2j)
        res = verify_interpolation(make_interpolant(data), max_points=50)
        assert res <= 1e-3

    def test_norm_stabilises_with_region(self, lat16, mult16, cw):
        wv = 0.3
        data = TraceData.gaussian(lat16, mult16, cw, 2.0, wv)
        I = make_interpolant(data)
        n1 = weighted_norm(I, 2.0, 3.5, grid_density=8.0)
        n2 = weighted_norm(I, 2.0, 5.0, grid_density=8.0)
        assert n2.value >= n1.value - 1e-12
        assert n2.value == pytest.approx(n1.value, rel=0.02)

    def test_zero_norm(self, lat16, mult16, cw):
        data = TraceData.zero(lat16, mult16, cw, 2.0)
        n = weighted_norm(make_interpolant(data), 2.0, 3.0, grid_density=6.0)
        assert n.value == 0.0

    def test_sup_norm_of_g_matches_bounds_check(self, lat16, mult16, cw):
        from focklattice import GridSpec, multiplier_bounds_check
        data = TraceData.zero(lat16, mult16, cw, math.inf)
        I = reconstruct_inf(data, 1.0)      # the interpolant is exactly g
        n = weighted_norm(I, math.inf, 4.0, grid_density=12.0)
        grid = GridSpec(-4.0, 4.0, -4.0, 4.0, 160, 160)
        rep = multiplier_bounds_check(mult16, grid)
        # the sup of |g| e^{-phi} over the region equals the envelope C
        # evaluated with the capped distance equal to its maximum
        assert n.value == pytest.approx(
            float(np.max(mult16.weighted_mag(grid.points().ravel()))), rel=0.02)
        assert n.value <= rep.C * 1.05

    def test_region_guard_enforced(self, lat12, mult12, cw):
        data = TraceData.zero(lat12, mult12, cw, 2.0)
        with pytest.raises(ValueError):
            weighted_norm(make_interpolant(data), 2.0, 100.0)
