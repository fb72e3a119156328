"""Acceptance suite: one test per criterion, each printing its PASS/FAIL
line with the measured quantities, plus checks on the norm estimate that
criterion 6 gates on: closed-form oracles for L and M(N) at p = 1, 2
and inf, a negative control that an unbounded operator still fails the budget, and
the monotonicity of the raw section norms the criterion builds.
"""

import math

import pytest

from focklattice import operator_norm_estimate
from focklattice.acceptance import (CRITERIA, OP_NORM_GROWTH_BUDGET,
                                   OP_NORM_SIZES, extrapolated_growth,
                                   extrapolated_norm)


def _run(number):
    res = CRITERIA[number]()
    print()
    print(res.line())
    return res


class TestAcceptance:
    def test_criterion_1_sigma_envelope_and_periodicity(self):
        res = _run(1)
        assert res.passed, res.details

    def test_criterion_2_representation_formula(self):
        res = _run(2)
        assert res.passed, res.details

    def test_criterion_3_uniqueness_modulo_g(self):
        res = _run(3)
        assert res.passed, res.details

    def test_criterion_4_necessity_trajectories(self):
        res = _run(4)
        assert res.passed, res.details

    def test_criterion_5_pv_engine_exactness(self):
        res = _run(5)
        assert res.passed, res.details

    def test_criterion_5_checks_the_engine(self, monkeypatch):
        # the dense sums are held against batch_higher itself: a 1e-10
        # relative error in its FFT totals fails the criterion
        import focklattice.transforms as transforms
        correlate = transforms._correlate
        monkeypatch.setattr(transforms, "_correlate",
                            lambda *args: correlate(*args) * (1.0 + 1e-10))
        res = CRITERIA[5]()
        assert not res.passed
        assert res.details["dense_vs_shell"] > 1e-12
        assert res.details["shell_cancellation"] <= 1e-12

    def test_criterion_6_operator_norm_growth(self):
        res = _run(6)
        assert res.passed, res.details
        # nested sections are compressions, ||P A P|| <= ||A||, so the raw
        # section norms (200 -> 5000 points) cannot decrease with size:
        # exactly at p = 1 and inf, up to the last relative change the
        # bidiagonalisation reports at p = 2
        assert len(res.reports) == 7
        for key, rep in res.reports.items():
            for a, b, sa, sb in zip(rep.norms, rep.norms[1:],
                                    rep.stagnations, rep.stagnations[1:]):
                assert b >= a * (1.0 - max(sa, sb)), (key, rep.norms)

    def test_criterion_7_ap_probe(self):
        res = _run(7)
        assert res.passed, res.details

    def test_criterion_8_branch_logic(self):
        res = _run(8)
        assert res.passed, res.details
        assert res.details["t_fit_classical"] == 0.98

    def test_criterion_9_round_trip_residuals(self):
        res = _run(9)
        assert res.passed, res.details


def _closed_form_norm(k: int) -> float:
    """l^p norm, p = 1, 2 and inf, of the positive convolution with kernel
    rho^k |lambda|^-k on the whole classical lattice s(Z+iZ): L is k = 3
    and M(N) is k = N + 1.  All three norms equal the kernel sum (at p = 2
    it is the symbol at xi = 0), rho^k sum' |lambda|^-k = 4 zeta(k/2)
    beta(k/2) rho^k / s^k (Epstein zeta of Z^2), with rho = (4 pi)^(-1/2)
    and s = sqrt(pi/2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        h = mpmath.mpf(k) / 2
        lattice_sum = 4 * mpmath.zeta(h) * mpmath.dirichlet(h, [0, 1, 0, -1])
        # tabulated value of sum' (m^2 + n^2)^(-3/2) over Z^2, and
        # sum' (m^2 + n^2)^(-2) = (2/3) pi^2 G with Catalan's constant G
        if k == 3:
            assert abs(lattice_sum - mpmath.mpf("9.0336216831")) < 1e-9
        if k == 4:
            assert abs(lattice_sum - 2 * mpmath.pi ** 2 * mpmath.catalan / 3) < 1e-25
        rho = 1 / mpmath.sqrt(4 * mpmath.pi)
        s = mpmath.sqrt(mpmath.pi / 2)
        return float(lattice_sum * rho ** k / s ** k)


class TestOperatorNormEstimate:
    def test_unbounded_operator_fails_budget(self, cw):
        # B at p=1 is unbounded on l^1 (its column sums diverge like log R),
        # so the gated growth must still exceed the budget
        assert extrapolated_growth("B", 1.0, cw) > OP_NORM_GROWTH_BUDGET

    def test_L_p2_against_closed_form(self, cw):
        exact = _closed_form_norm(3)
        raw = operator_norm_estimate("L", OP_NORM_SIZES, 2.0, cw).norms
        # finite sections are lower bounds that increase with the disc
        assert all(b >= a for a, b in zip(raw, raw[1:])), raw
        assert max(raw) <= exact * (1 + 1e-9), (raw, exact)
        est = extrapolated_norm("L", OP_NORM_SIZES[-1], 2.0, cw)
        assert abs(est - exact) <= 0.01 * exact, (est, exact)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("kind,N", [("L", 2), ("M", 2), ("M", 3)])
    def test_extrapolated_norm_against_closed_form(self, cw, kind, N, p):
        # M(2) is criterion 6's setting (N = choose_N for the classical
        # weight); M(3) has the distinct kernel |lambda|^-4
        exact = _closed_form_norm(3 if kind == "L" else N + 1)
        est = extrapolated_norm(kind, OP_NORM_SIZES[-1], p, cw, N=N)
        assert abs(est - exact) <= 0.01 * exact, (est, exact)
