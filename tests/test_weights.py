import math

import numpy as np
import pytest

from focklattice import (NumericalError, WeightProfile, ap_probe,
                         c_gamma_for_rho_origin, choose_N, classical_weight,
                         default_ap_radii, estimate_t, mu_disc_many, phi,
                         power_weight, rho_many)
from focklattice import weights
from focklattice.weights import (_check_refinement, _not_a_knot_spline,
                                 _unit_rho_table, ap_range)
from oracles import rho_bisection


class TestMuDisc:
    def test_classical_unit_disc(self):
        w = classical_weight()
        assert float(mu_disc_many(w, 0.7 + 0.1j, 1.0)) == pytest.approx(4 * math.pi, rel=1e-12)

    def test_classical_scales_with_radius(self):
        w = classical_weight()
        assert float(mu_disc_many(w, 5.0, 2.0)) == pytest.approx(16 * math.pi, rel=1e-12)

    def test_power_gamma1_origin(self):
        # closed-form oracle: int_0^1 r^-1 * r dr dtheta = 2 pi
        w = power_weight(1.0, c_gamma=1.0)
        assert float(mu_disc_many(w, 0.0, 1.0)) == pytest.approx(2 * math.pi, rel=1e-10)

    def test_offcenter_agrees_with_polar_quadrature_oracle(self):
        # 2-D polar quadrature about the center, trapezoid in angle
        w = power_weight(1.5, c_gamma=0.7)
        c, R = 2.0 + 1.0j, 0.8
        ts = np.linspace(0.0, R, 400)[1:]
        th = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
        zz = c + ts[:, None] * np.exp(1j * th[None, :])
        vals = w.c_gamma * w.gamma ** 2 * np.abs(zz) ** (w.gamma - 2.0)
        oracle = np.trapezoid(np.mean(vals, axis=1) * 2 * math.pi * ts, ts)
        assert float(mu_disc_many(w, c, R)) == pytest.approx(float(oracle), rel=1e-4)

    def test_monotone_in_radius(self):
        w = power_weight(0.8, rho_origin=2.0)
        vals = [float(mu_disc_many(w, 3.0 + 1j, r)) for r in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_doubling_constant_exists(self, rng):
        w = power_weight(3.0, rho_origin=1.0)
        ratios = []
        for _ in range(40):
            z = rng.uniform(-20, 20) + 1j * rng.uniform(-20, 20)
            r = 10 ** rng.uniform(-1, 1)
            ratios.append(float(mu_disc_many(w, z, 2 * r) / mu_disc_many(w, z, r)))
        assert max(ratios) < 50.0


class TestRho:
    def test_classical_value(self):
        w = classical_weight()
        assert float(rho_many(w, 123 + 4j)) == pytest.approx((4 * math.pi) ** -0.5, rel=1e-14)

    def test_normalisation_round_trip(self, rng):
        # the oracle's root; rho_many is good to 3e-7, not to this bound
        w = power_weight(1.0, rho_origin=2.0)
        z = np.array([rng.uniform(-50, 50) + 1j * rng.uniform(-50, 50) for _ in range(25)])
        mu = mu_disc_many(w, z, rho_bisection(w, z))
        assert np.max(np.abs(mu - 1.0)) <= 1e-8

    def test_power_growth_exponent_stable(self):
        # rho(z) ~ |z|^(1-gamma/2): the ratio stays within 5% across [50, 200]
        w = power_weight(1.0, rho_origin=2.0)
        a = np.array([50.0, 80.0, 120.0, 200.0])
        ratios = rho_many(w, a) / a ** 0.5
        assert max(ratios) / min(ratios) < 1.05

    def test_rho_origin_helper(self):
        c = c_gamma_for_rho_origin(1.0, 2.0)
        w = power_weight(1.0, c_gamma=c)
        assert float(rho_many(w, 0.0)) == pytest.approx(2.0, rel=1e-12)
        assert w.rho_origin == pytest.approx(2.0, rel=1e-12)

    def test_rho_origin_is_not_an_argument(self):
        # rho(0) is derived from gamma and C, so passing it is an error
        with pytest.raises(TypeError):
            WeightProfile(gamma=1.0, c_gamma=1.0, rho_origin=5.0)

    def test_lipschitz_on_random_pairs(self, rng):
        w = power_weight(0.7, rho_origin=2.0)
        z1 = rng.uniform(-30, 30, 1000) + 1j * rng.uniform(-30, 30, 1000)
        z2 = z1 + rng.uniform(-3, 3, 1000) + 1j * rng.uniform(-3, 3, 1000)
        r1, r2 = rho_many(w, z1), rho_many(w, z2)
        assert np.all(np.abs(r1 - r2) <= np.abs(z1 - z2) * (1 + 1e-6) + 1e-9)

    def test_classical_power_consistency(self):
        wc = classical_weight()
        wp = power_weight(2.0, c_gamma=1.0)
        for z in (0.0, 1 + 2j, -7.5j):
            assert float(rho_many(wp, z)) == pytest.approx(float(rho_many(wc, z)), abs=1e-10)
            assert phi(wp, z) == pytest.approx(phi(wc, z), abs=1e-10)
            assert float(mu_disc_many(wp, z, 1.7)) == pytest.approx(
                float(mu_disc_many(wc, z, 1.7)), rel=1e-9)


class TestDiscEdgeThroughOrigin:
    # Discs whose edge passes through the origin, where the density
    # |w|^(gamma-2) is singular for gamma < 2.

    def test_rho_near_its_own_modulus(self):
        # rho(a) is about a on [6.85, 7] for this weight; the oracle's root,
        # as for test_normalisation_round_trip
        w = power_weight(0.5, rho_origin=2.0)
        a = np.linspace(6.85, 7.0, 151)
        assert np.max(np.abs(mu_disc_many(w, a, rho_bisection(w, a)) - 1.0)) <= 1e-8

    def test_self_check_raises_on_non_finite(self):
        # inf - inf is NaN, which every comparison with a bound passes
        with pytest.raises(NumericalError):
            _check_refinement(np.array([np.inf]), np.array([np.inf]), 3.0, 3.0, "test")


def _mu_oracle(gamma, c, a, r):
    # Slices by circles |w| = u: the disc D(a, r) holds the full circle for
    # u < r - a and an arc of half-angle arccos((u^2 + a^2 - r^2)/(2au))
    # for |a - r| < u < a + r.
    import mpmath as mp
    gamma, c, a, r = mp.mpf(gamma), mp.mpf(c), mp.mpf(a), mp.mpf(r)
    full = 2 * mp.pi * c * gamma * (r - a) ** gamma if r > a else mp.mpf(0)
    if a == 0:
        return full

    def arc(u):
        x = (u * u + a * a - r * r) / (2 * a * u)
        return c * gamma ** 2 * u ** (gamma - 2) * 2 * u * mp.acos(max(min(x, 1), -1))

    return full + mp.quad(arc, [abs(a - r), a + r])


def _rho_oracle(gamma, c, a):
    import mpmath as mp
    g = (math.pi * c * gamma ** 2 * a ** (gamma - 2.0)) ** -0.5 if a else 1.0
    lo, hi = g / 8.0, g * 8.0
    while _mu_oracle(gamma, c, a, lo) > 1:
        lo /= 4.0
    while _mu_oracle(gamma, c, a, hi) < 1:
        hi *= 4.0
    return mp.findroot(lambda r: _mu_oracle(gamma, c, a, r) - 1, (lo, hi),
                       solver="anderson")


_ORACLE_WEIGHTS = {
    0.5: dict(rho_origin=2.0),
    1.0: dict(rho_origin=2.0),
    1.5: dict(c_gamma=0.7),
    5.0: dict(c_gamma=1.0),
}


class TestMpmathOracle:
    """mu_disc_many and rho against 30-digit mpmath quadrature and
    root-finding in the radial variable; bounds 1e-8 (mu), 1e-10 (the
    bisection oracle's rho) and 3e-7 (rho_many) relative."""

    @pytest.fixture(autouse=True)
    def _mp(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            yield

    @pytest.mark.parametrize("gamma,a,r", [
        (0.5, 3.0, 3.0), (1.0, 3.0, 3.0), (0.5, 3.0, 3.0 * (1 + 1e-9)),
        (1.5, 0.3, 1.0), (5.0, 7.0, 7.0), (5.0, 200.0, 5.0)])
    def test_mu_disc(self, gamma, a, r):
        w = power_weight(gamma, **_ORACLE_WEIGHTS[gamma])
        oracle = float(_mu_oracle(gamma, w.c_gamma, a, r))
        assert float(mu_disc_many(w, a * np.exp(0.7j), r)) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("gamma,a", [
        (0.5, 0.0), (0.5, 0.3), (0.5, 7.0), (0.5, 200.0), (1.0, 7.0),
        (1.5, 0.3), (5.0, 200.0)])
    def test_rho(self, gamma, a):
        w = power_weight(gamma, **_ORACLE_WEIGHTS[gamma])
        oracle = float(_rho_oracle(gamma, w.c_gamma, a))
        assert float(rho_bisection(w, -1j * a)) == pytest.approx(oracle, rel=1e-10)
        assert float(rho_many(w, -1j * a)) == pytest.approx(oracle, rel=3e-7)


# Three rho profiles: (gamma, weight, largest |z|)
_SPLINE_CASES = [(0.5, dict(rho_origin=2.0), 64.0),
                 (0.5, dict(rho_origin=2.0), 32768.0),
                 (5.0, dict(c_gamma=1.0), 4096.0)]


def _spline_nodes(umax):
    # 0 and 420 geometric nodes up to umax
    return np.concatenate([[0.0], np.geomspace(max(umax * 1e-6, 1e-9), umax, 420)])


# (gamma, weight, largest |z|) of the rho_many cases
_RHO_CASES = [
    (0.5, dict(rho_origin=2.0), 64.0), (1.0, dict(rho_origin=2.0), 8.0),
    (1.5, dict(c_gamma=0.7), 64.0), (3.0, dict(rho_origin=2.0), 256.0),
    (5.0, dict(c_gamma=1.0), 4096.0), (5.0, dict(c_gamma=1.0), 1e6),
    (8.0, dict(c_gamma=1e-3), 1e6), (8.0, dict(c_gamma=1e3), 1e6),
    (0.02, dict(rho_origin=2.0), 1e6), (0.05, dict(rho_origin=2.0), 1e6),
    (0.1, dict(rho_origin=2.0), 1e6)]


class TestRhoTable:
    """rho_many (the scaling-law table) against the bisection oracle, and
    the failure the table raises instead of clamping."""

    @pytest.mark.parametrize("gamma,kw,zmax", _RHO_CASES)
    def test_rho_many_matches_scalar_rho(self, gamma, kw, zmax, rng):
        w = power_weight(gamma, **kw)
        a_star = float(mu_disc_many(w, 1.0, 1.0)) ** (-1.0 / gamma)    # rho(a*) = a*
        near = a_star * (1.0 + np.outer([-1.0, 1.0], 10.0 ** -np.arange(6.0, 10.0)).ravel())
        a = np.concatenate([[a_star, zmax], near, rng.uniform(0.0, zmax, 40),
                            zmax * 10.0 ** rng.uniform(-6.0, 0.0, 20)])
        assert np.max(np.abs(rho_many(w, a) / rho_bisection(w, a) - 1.0)) <= 1e-6

    @pytest.mark.parametrize("gamma", [0.02, 0.05, 0.1])
    def test_small_gamma_on_a_log_grid(self, gamma):
        # a cubic across the nodes s = 1 -+ 1e-7 rang at small gamma: on
        # this grid rho_many was 1.8e-6 off (gamma = 0.1)
        w = power_weight(gamma, rho_origin=2.0)
        a = np.geomspace(1e-3, 1e6, 100)
        assert np.max(np.abs(rho_many(w, a) / rho_bisection(w, a) - 1.0)) <= 1e-6

    @pytest.mark.parametrize("gamma,kw", sorted({(g, tuple(kw.items()))
                                                 for g, kw, _ in _RHO_CASES}))
    def test_rho_many_is_1_lipschitz(self, gamma, kw):
        # rho is 1-Lipschitz, so rho(z) <= rho(0) + |z| at every scale; at
        # gamma = 0.02 the ringing table reached 1.2e18 times that bound
        w = power_weight(gamma, **dict(kw))
        z = np.geomspace(1e-3, 1e29, 6000)
        assert np.all(rho_many(w, z) <= (w.rho_origin + z) * (1.0 + 1e-7))

    def test_one_table_per_gamma(self, monkeypatch):
        # gamma = 0.61 is tabulated by no other test; its table is one
        # checked quadrature batch at C = 1, shared by every C, and the one
        # call gives both rules
        calls, mu = [], weights._mu_power
        monkeypatch.setattr(weights, "_mu_power",
                            lambda w, a, r: calls.append((w.c_gamma, np.size(r))) or mu(w, a, r))
        for c in (1e-3, 0.4, 1e3):
            rho_many(power_weight(0.61, c_gamma=c), [0.0, 0.5, 7.0, 3e4])
        assert calls == [(1.0, 421)]

    def test_non_monotone_table_raises(self, monkeypatch):
        # a constant M(s) gives a constant a(s)
        monkeypatch.setattr(weights, "_mu_power", lambda w, a, r: (np.ones(np.shape(r)),) * 2)
        with pytest.raises(NumericalError, match="not monotone"):
            _unit_rho_table(0.77)


class TestNotAKnotSpline:
    @pytest.mark.parametrize("gamma,kw,umax", _SPLINE_CASES)
    def test_matches_scipy_cubic_spline(self, gamma, kw, umax):
        interpolate = pytest.importorskip("scipy.interpolate")
        w = power_weight(gamma, **kw)
        x = _spline_nodes(umax)
        y = np.concatenate([[w.rho_origin], rho_many(w, x[1:])])
        u = np.concatenate([x, 0.5 * (x[1:] + x[:-1]), np.linspace(0.0, umax, 4000)])
        ref = interpolate.CubicSpline(x, y)(u)
        assert np.max(np.abs(_not_a_knot_spline(x, y)(u) - ref) / np.abs(ref)) <= 1e-14

    @pytest.mark.parametrize("umax", [8.0, 4096.0])
    def test_reproduces_a_cubic(self, umax):
        # not-a-knot ends make the spline exact on cubics
        x = _spline_nodes(umax)
        cubic = lambda u: 2.0 - 0.7 * (u / umax) + 3.1 * (u / umax) ** 2 - 1.3 * (u / umax) ** 3
        u = np.concatenate([np.linspace(0.0, umax, 5001), np.geomspace(1e-9, umax, 5001)])
        assert np.max(np.abs(_not_a_knot_spline(x, cubic(x))(u) - cubic(u))) <= 1e-12


class TestApProbe:
    def test_classical_is_ap(self):
        w = classical_weight()
        rep = ap_probe(w, 4.0 / 3.0, default_ap_radii(w))
        assert rep.is_ap
        assert abs(rep.fitted_exponent) < 0.02
        assert np.allclose(rep.ratios, 1.0, atol=1e-8)

    def test_p2_trivially_one(self):
        w = power_weight(3.0, rho_origin=2.0)
        rep = ap_probe(w, 2.0, np.geomspace(4.0, 400.0, 9))
        assert np.allclose(rep.ratios, 1.0, atol=1e-6)

    def test_power_gamma5_failure_exponent(self):
        w = power_weight(5.0, rho_origin=2.0)
        rep = ap_probe(w, 4.0 / 3.0, default_ap_radii(w))
        assert not rep.is_ap
        assert rep.fitted_exponent == pytest.approx(0.25, abs=0.05)

    def test_p_q_symmetry(self):
        w = power_weight(5.0, rho_origin=2.0)
        radii = np.geomspace(4.0, 400.0, 9)
        rep_p = ap_probe(w, 4.0 / 3.0, radii)
        rep_q = ap_probe(w, 4.0, radii)
        assert np.allclose(rep_p.ratios, rep_q.ratios, rtol=1e-9)

    def test_refinement_check_fires(self, monkeypatch):
        # the 12- and 24-panel ratios differ by about 1.4e-5 here
        monkeypatch.setattr(weights, "_AP_CHECK_RTOL", 1e-7)
        w = power_weight(1.0, rho_origin=2.0)
        with pytest.raises(NumericalError, match="ap_probe quadrature did not converge"):
            ap_probe(w, 3.0, default_ap_radii(w))

    def test_full_part_only_where_a_disc_holds_the_origin(self, monkeypatch):
        # each radius integrates the disc centred at the origin and one
        # through it; only the first has a full-circle part, which both
        # rules of the one call share
        sizes, u_full, integral = [], [], weights._radial_disc_integral

        def spy(f, full_part, a, r):
            sizes.append(np.broadcast(a, r).size)
            return integral(f, lambda u: u_full.append(u) or full_part(u), a, r)

        monkeypatch.setattr(weights, "_radial_disc_integral", spy)
        w = power_weight(5.0, rho_origin=2.0)
        ap_probe(w, 4.0 / 3.0, default_ap_radii(w))
        assert sizes == [24]                        # one call for both rules
        u = np.concatenate([x.ravel() for x in u_full])
        assert u.size == 12 and np.all(u > 0.0)

    @pytest.mark.parametrize("gamma,p", [(5.0, 4.0 / 3.0), (1.0, 3.0), (0.5, 3.0)])
    def test_two_discs_give_the_ring_maximum(self, gamma, p):
        # the largest ratio over the origin-centred disc and eight centres
        # on the ring |c| = radius
        w = power_weight(gamma, rho_origin=2.0)
        radii = default_ap_radii(w)
        R = np.asarray(radii)[:, None]
        ring = np.abs(R * np.exp(2j * math.pi * np.arange(8) / 8.0))
        ref = weights._disc_ratios(w, np.concatenate([0.0 * R, ring], axis=1), R, p)[0]
        assert np.allclose(ap_probe(w, p, radii).ratios, ref.max(axis=1),
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 1.5, 2.5, 3.0, 3.5, 5.0, 8.0])
    def test_slope_follows_the_closed_form_range(self, gamma):
        # the disc ratio grows like R^e, e = dist(beta, [lo, hi])/p
        # (`ap_range`), and not at all inside the range; the fitted slope
        # misses e by up to 0.013 where e is small or 0 (gamma = 0.25, and
        # e = 0.05 at gamma = 3.5, p = 1.25 and 5) and by 6e-4 where e >= 0.1
        w = power_weight(gamma, rho_origin=2.0)
        for p in (1.1, 1.25, 4.0 / 3.0, 1.5, 1.8, 2.5, 3.0, 5.0, 8.0, 12.0):
            beta, lo, hi = ap_range(w, p)
            e = max(lo - beta, beta - hi, 0.0) / p
            slope = ap_probe(w, p, default_ap_radii(w)).fitted_exponent
            assert abs(slope - e) <= (1e-3 if e >= 0.1 else 0.015), (p, beta, e, slope)

    def test_radii_must_ascend(self):
        with pytest.raises(ValueError):
            ap_probe(classical_weight(), 1.5, [2.0, 1.0])

    @pytest.mark.parametrize("radii", [[4.0, 40.0, 400.0], np.geomspace(4.0, 400.0, 6),
                                       [1.0, 2.0, 3.0, 50.0, 100.0]])
    def test_radii_need_four_in_the_last_decade(self, monkeypatch, radii):
        # the slope is loglog_fit's, over the radii within a factor 10 of
        # the largest; the list is refused before any quadrature
        monkeypatch.setattr(weights, "_radial_disc_integral", None)
        with pytest.raises(ValueError, match="at least 4 within a factor 10"):
            ap_probe(power_weight(5.0, rho_origin=2.0), 4.0 / 3.0, radii)


def _oracle_slopes(gamma, lo, hi):
    """Least-squares slopes of log(rho(z)/rho(zeta)) against
    log(|z - zeta|/rho(zeta)), rho from `rho_many`, over |z| or |zeta| = a
    from lo to hi times rho(0), the other point at 0.01 rho(0): the
    families that trace the envelope for a rising and a falling rho."""
    w = power_weight(gamma, rho_origin=2.0)
    a = w.rho_origin * np.geomspace(lo, hi, 41)
    near = np.full(a.shape, 0.01 * w.rho_origin + 0j)
    out = []
    for z, zeta in ((a * np.exp(0.3j), near), (near, a * np.exp(0.7j))):
        rz, rzeta = rho_many(w, z), rho_many(w, zeta)
        x, y = np.log(np.abs(z - zeta) / rzeta), np.log(rz / rzeta)
        out.append(np.polyfit(x, y, 1)[0])
    return out


class TestDoublingExponent:
    """t = min(gamma/2, 2/gamma), in closed form."""

    def test_classical_near_one(self):
        assert estimate_t(classical_weight()) == 1.0

    def test_classical_closed_form_matches_sampled_fit(self):
        # rho is constant, so every sampled log-ratio is 0: slope 0, and
        # t = 1
        z = 10.0 ** np.linspace(0.0, 4.0, 20) * np.exp(0.4j)
        ratio = rho_many(classical_weight(), z) / rho_many(classical_weight(), 0.01)
        assert np.all(ratio == 1.0)
        assert estimate_t(classical_weight()) == 1.0

    def test_power_gamma2_takes_the_classical_t(self):
        assert estimate_t(power_weight(2.0, c_gamma=1.0)) == 1.0
        assert estimate_t(power_weight(2.0, c_gamma=5.0)) == 1.0

    def test_gamma1_at_most_half(self):
        assert estimate_t(power_weight(1.0, rho_origin=2.0)) == 0.5

    def test_gamma_half_bound(self):
        assert estimate_t(power_weight(0.5, rho_origin=2.0)) == 0.25

    def test_reads_no_rho(self, monkeypatch):
        monkeypatch.setattr(weights, "_rho_radial", None)
        assert estimate_t(power_weight(5.0, rho_origin=2.0)) == 0.4

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 2.5, 3.0, 5.0, 8.0])
    def test_matches_the_envelope_slope_of_rho(self, gamma):
        # the larger slope of the two families, over 1e2 to 1e4 rho(0)
        t = estimate_t(power_weight(gamma, rho_origin=2.0))
        assert max(_oracle_slopes(gamma, 1e2, 1e4)) == pytest.approx(1.0 - t, abs=1e-3)

    def test_gamma_half_slope_falls_to_one_minus_t(self):
        # rising rho: the zeta = 0.01 rho(0) family; its slope falls to
        # 1 - gamma/2 = 0.75 from above
        t = estimate_t(power_weight(0.5, rho_origin=2.0))
        near = _oracle_slopes(0.5, 1e2, 1e4)[0]
        far = _oracle_slopes(0.5, 1e4, 1e6)[0]
        assert near > far > 1.0 - t
        assert near == pytest.approx(0.761, abs=1e-3)
        assert far == pytest.approx(1.0 - t, abs=2e-3)


class TestChooseN:
    @pytest.mark.parametrize("t,expected", [(1.0, 2), (0.6, 2), (0.5, 3), (0.25, 5)])
    def test_values(self, t, expected):
        assert choose_N(t) == expected

    def test_prefers_analytic_bound(self):
        # t = gamma/2 = 0.25 -> N = 5
        assert choose_N(estimate_t(power_weight(0.5, rho_origin=2.0))) == 5

    @pytest.mark.parametrize("gamma,expected", [(1.0, 3), (2.0 / 3.0, 4), (6.0, 4),
                                                (8.0, 5)])
    def test_exact_where_one_over_t_is_an_integer(self, gamma, expected):
        # 1/t = 2, 3, 3 and 4: N is the next integer, not 1/t itself
        assert choose_N(estimate_t(power_weight(gamma, c_gamma=1.0))) == expected

    @pytest.mark.parametrize("t", [0.0, 1.5, -0.5])
    def test_t_outside_the_open_unit_interval(self, t):
        # and outside (0, 1]: the classical t = 1 is accepted (test_values)
        with pytest.raises(ValueError):
            choose_N(t)
