"""Acceptance suite: one test per criterion, each printing its PASS/FAIL
line with the measured quantities, plus checks on the norm estimate that
criterion 6 gates on: a closed-form oracle for the potential L, a
negative control that an unbounded operator still fails the budget, and
the monotonicity of the raw section norms the criterion builds.
"""

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

    def test_criterion_6_operator_norm_growth(self):
        res = _run(6)
        assert res.passed, res.details
        # nested sections are compressions, ||P A P|| <= ||A||, so the raw
        # section norms (200 -> 5000 points) cannot decrease with size:
        # exactly at p = 1 and inf, up to the power iteration's reported
        # stagnation at p = 2
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

    def test_criterion_9_round_trip_residuals(self):
        res = _run(9)
        assert res.passed, res.details


def _l_norm_closed_form() -> float:
    """l^2 norm of L on the whole classical lattice s(Z+iZ): the kernel's
    symbol at xi = 0, rho^3 * sum' |lambda|^-3 = 4 zeta(3/2) beta(3/2)
    rho^3 / s^3 (Epstein zeta of Z^2), with rho = (4 pi)^(-1/2) and
    s = sqrt(pi/2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        lattice_sum = 4 * mpmath.zeta(1.5) * mpmath.dirichlet(1.5, [0, 1, 0, -1])
        # tabulated value of sum' (m^2 + n^2)^(-3/2) over Z^2
        assert abs(lattice_sum - mpmath.mpf("9.0336216831")) < 1e-9
        rho = 1 / mpmath.sqrt(4 * mpmath.pi)
        s = mpmath.sqrt(mpmath.pi / 2)
        return float(lattice_sum * rho ** 3 / s ** 3)


class TestOperatorNormEstimate:
    def test_unbounded_operator_fails_budget(self, cw):
        # B at p=1 is unbounded on l^1 (its column sums diverge like log R),
        # so the gated growth must still exceed the budget
        assert extrapolated_growth("B", 1.0, cw) > OP_NORM_GROWTH_BUDGET

    def test_L_p2_against_closed_form(self, cw):
        exact = _l_norm_closed_form()
        raw = operator_norm_estimate("L", OP_NORM_SIZES, 2.0, cw).norms
        # finite sections are lower bounds that increase with the disc
        assert all(b >= a for a, b in zip(raw, raw[1:])), raw
        assert max(raw) <= exact * (1 + 1e-9), (raw, exact)
        est = extrapolated_norm("L", OP_NORM_SIZES[-1], 2.0, cw)
        assert abs(est - exact) <= 0.01 * exact, (est, exact)
