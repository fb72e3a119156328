import math

import numpy as np
import pytest

import focklattice.transforms
from focklattice import (Interpolant, NumericalError, reconstruct,
                         verify_interpolation)
from focklattice.classifier import TraceData
from conftest import gaussian_fn, sigma_table
from oracles import richardson_w0


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
    def test_constant_function(self, lat16, mult16, rng):
        data = TraceData.constant(mult16, 2.0, 1.0)
        zs = offgrid(lat16, rng, 60, 4.0)
        rec = reconstruct(data, zs)
        assert np.max(np.abs(rec - 1.0)) <= 1e-4

    def test_trace_of_multiplier_reconstructs_to_zero(self, lat16, mult16, rng):
        data = TraceData.zero(mult16, 2.0)
        zs = offgrid(lat16, rng, 20, 5.0)
        assert np.max(np.abs(reconstruct(data, zs))) == 0.0

    def test_gaussian_weighted_error(self, lat16, mult16, rng):
        wv = 0.7 - 0.2j
        data = TraceData.gaussian(mult16, 2.0, wv)
        zs = offgrid(lat16, rng, 80, 4.0)
        rec = reconstruct(data, zs)
        err = np.abs(rec - gaussian_fn(wv)(zs)) * np.exp(-np.abs(zs) ** 2)
        assert np.max(err) <= 1e-3

    def test_on_lattice_returns_trace_value(self, lat16, mult16):
        wv = 0.3 + 0.4j
        data = TraceData.gaussian(mult16, 2.0, wv)
        lam = lat16.points[7]
        assert reconstruct(data, lam) == pytest.approx(gaussian_fn(wv)(lam),
                                                       rel=1e-10)

    def test_near_lattice_deflated_path(self, lat16, mult16):
        wv = 0.2 - 0.1j
        data = TraceData.gaussian(mult16, 2.0, wv)
        lam = lat16.points[5]
        rho = lat16.rho_values[5]
        z = lam + 1e-4 * rho
        rec = reconstruct(data, z)
        assert abs(rec - gaussian_fn(wv)(z)) * math.exp(-abs(z) ** 2) <= 1e-6

    def test_linearity_in_values(self, lat12, mult12, rng):
        v1 = (rng.standard_normal(len(lat12)) + 1j * rng.standard_normal(len(lat12))) \
            * np.exp(-np.abs(lat12.points) ** 2 / 3)
        v2 = (rng.standard_normal(len(lat12)) + 1j * rng.standard_normal(len(lat12))) \
            * np.exp(-np.abs(lat12.points) ** 2 / 3)
        a, b = 0.7 + 0.1j, -1.2 + 0.4j
        d1 = TraceData.from_weighted(mult12, 2.0, v1)
        d2 = TraceData.from_weighted(mult12, 2.0, v2)
        d12 = TraceData.from_weighted(mult12, 2.0, a * v1 + b * v2)
        zs = offgrid(lat12, rng, 10, 3.0)
        lhs = reconstruct(d12, zs)
        rhs = a * reconstruct(d1, zs) + b * reconstruct(d2, zs)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_single_point_data_is_deflated_kernel(self, lat16, mult16, rng):
        # c = g'(lambda0) at one point: the interpolant is g(z)/(z - lambda0)
        idx = 9
        vals = np.zeros(len(lat16), complex)
        vals[idx] = mult16.g_prime_weighted(np.asarray([idx]))[0]
        data = TraceData.from_weighted(mult16, 2.0, vals)
        zs = offgrid(lat16, rng, 20, 4.0)
        rec = reconstruct(data, zs)
        want = np.exp(mult16.log_g(zs)) / (zs - lat16.points[idx])
        assert np.max(np.abs(rec - want) * np.exp(-np.abs(zs) ** 2)) <= 1e-10

    def test_nonconvergent_data_raises_with_exponent(self, lat16, mult16, rng):
        lam = lat16.points
        gw = sigma_table(mult16)[1]
        u = np.ones(len(lam), dtype=complex)
        nz = np.abs(lam) > 0
        u[nz] = lam[nz] ** 2 / np.abs(lam[nz]) ** 1.5
        data = TraceData.from_weighted(mult16, 2.0, gw * u)
        with pytest.raises(NumericalError, match=r"growth exponent ~ 0\.75"):
            reconstruct(data, 0.4 + 0.35j)


class TestReconstructInf:
    def test_w0_shift_is_exactly_g(self, lat16, mult16, rng):
        data = TraceData.gaussian(mult16, math.inf, 0.5 + 0.2j)
        I0 = Interpolant(data, 0.0)
        I1 = Interpolant(data, 1.0)
        zs = offgrid(lat16, rng, 30, 4.0)
        g = np.exp(mult16.log_g(zs))
        assert np.max(np.abs((I1.eval(zs) - I0.eval(zs)) - g) / np.abs(g)) <= 1e-10

    def test_gaussian_with_matched_w0(self, lat16, mult16, rng):
        wv = 0.4 - 0.3j
        data = TraceData.gaussian(mult16, math.inf, wv)
        w0 = richardson_w0(gaussian_fn(wv), mult16)
        I = Interpolant(data, w0)
        zs = offgrid(lat16, rng, 40, 4.0)
        err = np.abs(I.eval(zs) - gaussian_fn(wv)(zs)) * np.exp(-np.abs(zs) ** 2)
        assert np.max(err) <= 1e-3

    def test_near_lattice_deflated_path(self, lat16, mult16):
        # the deflated term keeps its +1/lambda half (and at the origin
        # w0); the origin and four other points
        wv = 0.4 - 0.3j
        data = TraceData.gaussian(mult16, math.inf, wv)
        I = Interpolant(data, richardson_w0(gaussian_fn(wv), mult16))
        idx = np.array([0, 3, 5, 12, 30])
        zs = lat16.points[idx] + 1e-4 * lat16.rho_values[idx] * np.exp(0.7j)
        err = np.abs(I.eval(zs) - gaussian_fn(wv)(zs)) * np.exp(-np.abs(zs) ** 2)
        assert np.max(err) <= 1e-10

    def test_zero_data_w0_one_gives_g(self, lat16, mult16, rng):
        data = TraceData.zero(mult16, math.inf)
        I = Interpolant(data, 1.0)
        zs = offgrid(lat16, rng, 20, 4.0)
        g = np.exp(mult16.log_g(zs))
        assert np.allclose(I.eval(zs), g, rtol=1e-12)

    def test_default_w0_flagged(self, mult16):
        data = TraceData.zero(mult16, math.inf)
        I = Interpolant(data)
        assert I.representative_only
        assert I.w0 == 0.0

    def test_w0_requires_inf_data(self, mult16):
        data = TraceData.zero(mult16, 2.0)
        with pytest.raises(ValueError):
            Interpolant(data, w0=1)


class TestDeflatedEvaluation:
    @pytest.mark.parametrize("t", [1e-12, 1e-6, 9e-4, 1.1e-3, 0.1, 0.4])
    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_gaussian_at_distance(self, lat16, mult16, t, p):
        # z = lambda + t rho e^{i theta}: one deflated formula at every
        # distance from the nearest point, down to 1e-12 rho and out to 0.4
        wv = 0.4 - 0.3j
        data = TraceData.gaussian(mult16, p, wv)
        I = Interpolant(data, richardson_w0(gaussian_fn(wv), mult16)
                        if math.isinf(p) else None)
        idx = np.array([0, 3, 5, 12, 30])
        zs = lat16.points[idx] + t * lat16.rho_values[idx] * np.exp(
            1j * np.linspace(0.3, 5.9, len(idx)))
        err = np.abs(I.eval(zs) - gaussian_fn(wv)(zs)) * np.exp(-np.abs(zs) ** 2)
        assert np.max(err) <= 1e-10

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_block_size_independent(self, lat12, mult12, rng, monkeypatch, p):
        # one term row per block gives the same bits as the default blocks
        data = TraceData.gaussian(mult12, p, 0.3 + 0.2j)
        I = Interpolant(data)
        zs = np.concatenate([offgrid(lat12, rng, 40, 4.0), lat12.points[:3] + 1e-6])
        want = I.eval_weighted(zs)
        monkeypatch.setattr(focklattice.transforms, "_CHUNK_TERMS", 1)
        assert np.array_equal(I.eval_weighted(zs), want)


class TestW0From:
    """w0 = f'(0)/g'(0) for the builtin sigma, by the tests' Richardson
    derivative (`oracles.richardson_w0`), on functions whose w0 is known."""

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
        assert richardson_w0(g_fn, mult16) == pytest.approx(1.0, abs=1e-8)

    def test_constant_function(self, mult16):
        assert abs(richardson_w0(lambda z: 1.0 + 0j, mult16)) <= 1e-10

    def test_gaussian_closed_form(self, mult16):
        wv = 0.7 - 0.2j
        want = 2 * np.conj(wv) * math.exp(-abs(wv) ** 2)
        assert richardson_w0(gaussian_fn(wv), mult16) == pytest.approx(want, rel=1e-8)


class TestVerifyAndNorms:
    def test_zero_data_residual(self, mult16):
        data = TraceData.zero(mult16, 2.0)
        assert verify_interpolation(Interpolant(data), len(mult16.lattice)) == 0.0

    def test_gaussian_residual(self, mult16):
        data = TraceData.gaussian(mult16, 2.0, 0.7 - 0.2j)
        res = verify_interpolation(Interpolant(data), max_points=50)
        assert res <= 1e-3
