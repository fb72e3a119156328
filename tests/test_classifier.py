import math

import numpy as np
import pytest

from focklattice import (classify, condition, condition_a, power_weight,
                         select_branch, square_lattice, trajectory_margins,
                         user_multiplier)
from focklattice import weights
from focklattice.classifier import Margins, TraceData, shell_trajectory
from conftest import sigma_table
from oracles import gaussian_higher, gaussian_modified_inf, shell_batch


class TestTrajectoryVerdict:
    def test_flat_is_bounded(self):
        r = np.geomspace(0.5, 50, 40)
        v = 1.0 - np.exp(-r)
        assert trajectory_margins(r, v).verdict == "bounded"

    def test_power_law_is_diverging(self):
        r = np.geomspace(0.5, 50, 40)
        m = trajectory_margins(r, 0.3 * r ** 2)
        assert m.verdict == "diverging"
        assert m.slope == pytest.approx(2.0, abs=0.01)

    def test_zero_is_bounded(self):
        r = np.geomspace(1, 10, 10)
        m = trajectory_margins(r, np.zeros(10))
        assert (m.verdict, m.slope) == ("bounded", None)

    def test_log_growth_not_bounded(self):
        r = np.geomspace(0.5, 200, 60)
        assert trajectory_margins(r, np.log(1 + r)).verdict != "bounded"


    def test_margins_of_power_law(self):
        # v = r^2 on radii 1..100: the last decade starts at r = 10
        r = np.geomspace(1, 100, 41)
        m = trajectory_margins(r, r ** 2)
        assert m.growth == pytest.approx(99.0, rel=1e-12)
        assert m.slope == pytest.approx(2.0, rel=1e-12)
        assert m.r2 == pytest.approx(1.0, rel=1e-12)
        assert m.verdict == "diverging"

    def test_margins_of_flat_and_zero(self):
        r = np.geomspace(1, 100, 41)
        m = trajectory_margins(r, np.full(41, 3.0))
        assert m == Margins(0.0, None, None)
        assert m.verdict == "bounded"
        assert trajectory_margins(r, np.zeros(41)) == Margins(0.0, None, None)

    def test_margins_flat_to_rounding_fit_nothing(self):
        # a trajectory flat up to ulp-level steps reads bounded from its
        # growth alone; a log-log fit to it would fit rounding
        r = np.geomspace(1, 100, 41)
        v = 3.0 + 3.0 * np.finfo(float).eps * np.arange(41)
        m = trajectory_margins(r, v)
        assert 0.0 < m.growth <= 1e-13
        assert (m.verdict, m.slope, m.r2) == ("bounded", None, None)


class TestShellTrajectory:
    @staticmethod
    def loop_reference(lat, per, p, indices):
        """Per-shell loop over the selected indices, sorted by radius."""
        r = lat.radii[indices]
        order = np.argsort(r, kind="stable")
        radii, vals, total = [], [], 0.0
        for k, rk in enumerate(r[order]):
            v = per[order[k]]
            total = max(total, v) if math.isinf(p) else total + v
            if k + 1 == len(order) or r[order[k + 1]] > rk * (1 + 1e-9):
                radii.append(rk)
                vals.append(total)
        return np.array(radii), np.array(vals)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    @pytest.mark.parametrize("origin", [True, False])
    def test_matches_per_shell_loop(self, lat16, rng, p, origin):
        idx = np.nonzero(lat16.radii <= 8.0)[0]
        if not origin:
            idx = idx[1:]
        per = rng.uniform(size=len(idx))
        radii, vals = shell_trajectory(lat16, per, p, idx)
        ref_r, ref_v = self.loop_reference(lat16, per, p, idx)
        assert np.array_equal(radii, ref_r)
        assert np.allclose(vals, ref_v, rtol=1e-13, atol=0.0)


class TestConditionA:
    def test_gaussian_trace_total_matches_oracle(self, lat16, mult16):
        # weighted terms are e^{-2|lambda-w|^2}: closed-form oracle; the
        # bounded verdict at desk scale needs the larger acceptance lattice
        # (the last decade must start beyond the Gaussian bulk)
        data = TraceData.gaussian(mult16, 2.0, 1.0 + 1.0j)
        rep = condition_a(data)
        assert rep.verdict != "diverging"
        lam = lat16.points
        oracle = float(np.sum(np.exp(-2 * np.abs(lam - (1 + 1j)) ** 2)))
        assert rep.partial_trajectory[-1][1] == pytest.approx(oracle, rel=1e-10)

    def test_origin_gaussian_trace_bounded(self, mult16):
        data = TraceData.gaussian(mult16, math.inf, 0.0)
        rep = condition_a(data)
        assert rep.verdict == "bounded"

    def test_phi_sized_data_p2_diverges_like_count(self, lat16, mult16):
        data = TraceData.from_weighted(mult16, 2.0,
                                       np.ones(len(lat16), complex))
        rep = condition_a(data)
        assert rep.verdict == "diverging"
        assert rep.margins.slope == pytest.approx(2.0, abs=0.2)

    def test_phi_sized_data_sup_bounded(self, lat16, mult16):
        data = TraceData.from_weighted(mult16, math.inf,
                                       np.ones(len(lat16), complex))
        rep = condition_a(data)
        assert rep.condition_id == "inf_a"
        assert rep.verdict == "bounded"
        assert rep.partial_trajectory[-1][1] == 1.0

    def test_zero_data(self, mult16):
        data = TraceData.zero(mult16, 1.0)
        rep = condition_a(data)
        assert rep.verdict == "bounded"
        assert rep.partial_trajectory[-1][1] == 0.0

    def test_monotone_trajectory(self, mult16):
        data = TraceData.gaussian(mult16, 2.0, 0.4)
        vals = [v for _, v in condition_a(data).partial_trajectory]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestConditionsBC:
    def test_zero_data_all_zero(self, mult12):
        data = TraceData.zero(mult12, 2.0)
        assert condition(data, "b").partial_trajectory[-1][1] == 0.0
        assert condition(data, "c").partial_trajectory[-1][1] == 0.0

    def test_bprime_first_order_equals_b(self, mult12):
        data = TraceData.gaussian(mult12, 3.0, 0.2)
        r1 = condition(data, "bprime(1)")
        rb = condition(data, "b")
        t1 = np.asarray(r1.partial_trajectory)
        tb = np.asarray(rb.partial_trajectory)
        assert np.allclose(t1, tb, rtol=1e-12)

    def test_scaling_invariance_of_verdicts(self, mult16):
        base = TraceData.gaussian(mult16, 2.0, 0.3 + 0.2j)
        kappa = 37.0 - 11.0j
        scaled = TraceData.from_weighted(mult16, 2.0,
                                         kappa * base.c_weighted)
        for cid in ("a", "b"):
            ra, rs = condition(base, cid), condition(scaled, cid)
            assert ra.verdict == rs.verdict
            va = np.asarray([v for _, v in ra.partial_trajectory])
            vs = np.asarray([v for _, v in rs.partial_trajectory])
            assert np.allclose(vs, abs(kappa) ** 2 * va, rtol=1e-9)

    def test_inf_b_requires_inf(self, mult12):
        data = TraceData.gaussian(mult12, 2.0, 0.1)
        with pytest.raises(ValueError):
            condition(data, "inf_b")

    @pytest.mark.parametrize("cid", ["d", "bprime(x)", "inf_c", "bprime(0)",
                                     "inf_c(2"])
    def test_unknown_id_raises(self, mult12, cid):
        data = TraceData.gaussian(mult12, math.inf, 0.1)
        with pytest.raises(ValueError, match="unknown condition id"):
            condition(data, cid)

    def test_inner_flags_advisory_only_where_absolute(self, mult12):
        # with rtol = 0 no Gaussian inner sum converges (centred at 7, its
        # outer shells move every partial by more than the 1e-15 floor);
        # (c) and (b) at p = 1 sum absolutely and count none, the others
        # count them all
        for p, cid, advisory in [(2.0, "c", True), (2.0, "bprime(2)", False),
                                 (1.0, "b", True), (2.0, "b", False)]:
            data = TraceData.gaussian(mult12, p, 7.0)
            rep = condition(data, cid, 0.0)
            assert rep.inner_total > 0
            want = 0 if advisory else rep.inner_total
            assert rep.inner_unconverged == want, (p, cid)

    @pytest.mark.parametrize("p, cid, n", [(2.0, "c", 2), (3.0, "bprime(3)", 3),
                                           (math.inf, "inf_c(3)", 3)])
    def test_order_n_against_scalar_transform(self, lat12, mult12, p, cid, n):
        # rho(lambda')^(n-1) |order-n p.v. sum| over |lambda'| <= R/2,
        # aggregated in l^p, from the compensated pass over every shell
        data = TraceData.gaussian(mult12, p, 0.3 - 0.1j)
        idx = np.nonzero(lat12.radii <= 0.5 * lat12.truncation_radius)[0]
        mags = np.abs(shell_batch(lat12, data.d, idx, n)[0]) \
            * lat12.rho_values[idx] ** (n - 1)
        want = mags.max() if math.isinf(p) else np.sum(mags ** p)
        rep = condition(data, cid)
        assert rep.condition_id == cid
        assert rep.partial_trajectory[-1][1] == pytest.approx(want, rel=1e-9)


class TestGaussianTraceTrajectories:
    """Whole trajectories of `condition` for the Gaussian trace f_w on the
    R = 16 sigma lattice, inner centres |lambda'| <= 8, against the closed
    forms of its transforms (`oracles.gaussian_higher` times rho^(n-1),
    rho = (4 pi)^(-1/2); `oracles.gaussian_modified_inf`), with the shell
    sums and running sups taken here: a shell is one value of m^2 + n^2
    on s(Z + iZ).  Within 1e-12 of each trajectory's last value; measured
    at most 1.23e-15 (bprime(4) at p = 3, w = 1.5 - 0.7i)."""

    @pytest.mark.parametrize("w", [0.3 + 0.2j, 1.5 - 0.7j])
    @pytest.mark.parametrize("p, cid, n", [(1.0, "b", 1), (1.0, "c", 2), (2.0, "b", 1),
                                           *((3.0, f"bprime({n})", n) for n in range(1, 5)),
                                           (math.inf, "inf_b", None),
                                           *((math.inf, f"inf_c({n})", n) for n in (2, 3, 4))])
    def test_trajectory(self, lat16, mult16, p, cid, n, w):
        data = TraceData.gaussian(mult16, p, w)
        idx = np.nonzero(lat16.radii <= 8.0)[0]
        if n is None:
            idx = idx[lat16.radii[idx] > 0.0]
            inner = gaussian_modified_inf(lat16, data.d, idx, w)
        else:
            inner = gaussian_higher(lat16, data.d, idx, w, n) \
                * (4.0 * math.pi) ** (-0.5 * (n - 1))
        mags = np.abs(inner)
        keys, shell = np.unique(np.rint((lat16.radii[idx] / lat16.scale) ** 2),
                                return_inverse=True)
        if math.isinf(p):
            sups = np.zeros(keys.size)
            np.maximum.at(sups, shell, mags)
            want = np.maximum.accumulate(sups)
        else:
            want = np.cumsum(np.bincount(shell, mags ** p))
        radii, got = np.asarray(condition(data, cid).partial_trajectory).T
        assert np.allclose(radii, lat16.scale * np.sqrt(keys), rtol=1e-12, atol=0.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * want[-1]


class TestBranchSelection:
    def test_purity(self, cw):
        b1 = select_branch(3.0, cw)
        b2 = select_branch(3.0, cw)
        assert b1 == b2

    def test_p1_branch(self, cw):
        assert select_branch(1.0, cw).condition_ids == ("a", "b", "c")

    def test_p2_branch(self, cw):
        assert select_branch(2.0, cw).condition_ids == ("a", "b")

    def test_classical_p5(self, cw):
        br = select_branch(5.0, cw)
        assert br.condition_ids == ("a", "b")
        assert br.t_effective > 0.5
        assert br.is_ap
        assert br.ap_margin == (0.0, -2.0, 8.0)

    @pytest.mark.parametrize("gamma, p", [(2.5, 12.0), (2.5, 1.1), (3.0, 6.0),
                                          (3.5, 1.25), (3.5, 5.0)])
    def test_weights_just_outside_or_on_the_ap_range_add_c(self, gamma, p):
        # beta = (1 - gamma/2)(p - 2) outside (-2, 2(p - 1)) by e p with
        # 0 < e <= 0.05 (the disc ratio grows like R^e), or on its end
        # (gamma = 3, p = 6: beta = -2, log growth): rho^(p-2) is not A_p
        br = select_branch(p, power_weight(gamma, c_gamma=1.0))
        assert br.is_ap is False and br.condition_ids == ("a", "b", "c")
        beta, lo, hi = br.ap_margin
        assert beta == pytest.approx((1.0 - gamma / 2.0) * (p - 2.0))
        assert not lo < beta < hi

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 12.0])
    def test_reads_no_rho(self, monkeypatch, p):
        def refuse(w, a):
            raise AssertionError("select_branch evaluated rho")

        monkeypatch.setattr(weights, "_rho_radial", refuse)
        for gamma in (0.5, 1.5, 2.5, 3.0, 5.0):
            assert select_branch(p, power_weight(gamma, c_gamma=1.0)).condition_ids[0] == "a"

    def test_power_small_gamma_p3(self):
        pw = power_weight(0.5, rho_origin=2.0)
        br = select_branch(3.0, pw)
        assert br.n_max == 5
        assert br.condition_ids == ("a", "bprime(1)", "bprime(2)", "bprime(3)",
                                    "bprime(4)", "bprime(5)")

    def test_inf_branch_classical(self, cw):
        br = select_branch(math.inf, cw)
        assert br.condition_ids == ("inf_a", "inf_b", "inf_c(2)")
        assert br.n_max == 2

    @pytest.mark.parametrize("gamma, N", [(4.0, 3), (5.0, 3), (8.0, 5)])
    def test_steep_power_weights_take_the_higher_orders(self, gamma, N):
        # t = 2/gamma <= 1/2: orders up to the smallest N > gamma/2
        pw = power_weight(gamma, c_gamma=1.0)
        br = select_branch(3.0, pw)
        assert br.t_effective == 2.0 / gamma and br.n_max == N and br.is_ap is None
        assert br.condition_ids == ("a",) + tuple(f"bprime({n})" for n in range(1, N + 1))
        br = select_branch(math.inf, pw)
        assert br.n_max == N
        assert br.condition_ids == ("inf_a", "inf_b") + tuple(
            f"inf_c({n})" for n in range(2, N + 1))

    @pytest.mark.parametrize("gamma", [2.5, 3.0])
    def test_moderately_steep_power_weights_keep_the_ap_branch(self, gamma):
        # t = 2/gamma > 1/2
        pw = power_weight(gamma, c_gamma=1.0)
        br = select_branch(3.0, pw)
        assert br.t_effective == 2.0 / gamma and br.n_max is None
        assert br.is_ap is not None and br.condition_ids[:2] == ("a", "b")
        br = select_branch(math.inf, pw)
        assert br.n_max == 2 and br.condition_ids == ("inf_a", "inf_b", "inf_c(2)")


class TestClassify:
    def test_gaussian_sup_norm_bounded_small_lattice(self, mult16):
        data = TraceData.gaussian(mult16, math.inf, 0.3 + 0.1j)
        verdict = classify(data)
        assert verdict.branch.case == "p=inf"
        assert verdict.overall == "bounded"

    def test_zero_trace_bounded_everywhere(self, mult12):
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            verdict = classify(TraceData.zero(mult12, p))
            assert verdict.overall == "bounded"

    def test_multiplier_trace_is_zero_member(self, mult12):
        # the trace of g itself is identically zero: the trivial member of
        # the necessity family
        gw = sigma_table(mult12)[1]
        data = TraceData.from_weighted(mult12, 2.0,
                                       np.zeros_like(gw))
        assert classify(data).overall == "bounded"

    def test_phi_sized_data_p2_diverging_overall(self, lat16, mult16):
        data = TraceData.from_weighted(mult16, 2.0,
                                       np.ones(len(lat16), complex))
        assert classify(data).overall == "diverging"

    def test_undetermined_propagates(self, mult12):
        # tiny truncation: the Gaussian p=2 Cauchy condition cannot flatten
        # within the last decade, and must not be called bounded
        data = TraceData.gaussian(mult12, 2.0, 0.3 + 0.1j)
        verdict = classify(data)
        assert verdict.overall in ("undetermined", "bounded")
        if verdict.overall == "undetermined":
            assert any(r.verdict == "undetermined" for r in verdict.reports)

    def test_adversarial_pattern_search(self, lat16, mult16):
        # search a small family of unimodular patterns for data that passes
        # the sup-norm size condition but breaks the modified Cauchy sum
        # (the resonant pattern makes it grow like log R)
        lam = lat16.points
        gw = sigma_table(mult16)[1]
        rho = lat16.rho_values
        patterns = {
            "ones": np.ones(len(lam), complex),
            "resonant": np.where(np.abs(lam) > 0, lam ** 2 /
                                 np.maximum(np.abs(lam) ** 2, 1e-300), 1.0),
            "alternating": np.where(
                np.round((lam.real + lam.imag) / lat16.scale) % 2 == 0, 1.0, -1.0),
        }
        witnesses = []
        for name, u in patterns.items():
            data = TraceData.from_weighted(mult16, math.inf,
                                           gw * rho * u)
            reports = {r.condition_id: r for r in classify(data).reports}
            size_ok = reports["inf_a"].verdict == "bounded"
            cauchy_bad = reports["inf_b"].verdict != "bounded"
            if size_ok and cauchy_bad:
                witnesses.append(name)
        # the resonant pattern makes the modified sum grow; the constant
        # pattern also fails (its sum drifts linearly, the quasi-period)
        assert "resonant" in witnesses


class TestPowerWeightClassify:
    def test_branch_on_power_weight_with_user_table(self):
        pw = power_weight(0.5, rho_origin=2.0)
        lat = square_lattice(10.0, pw)
        # synthetic multiplier data of the right magnitude profile
        table = 1.0 / lat.rho_values
        um = user_multiplier(lat, np.arange(len(lat)), table, True)
        data = TraceData.zero(um, 3.0)
        verdict = classify(data)
        assert verdict.branch.n_max == 5
        assert verdict.overall == "bounded"
        assert len(verdict.reports) == 6
