import dataclasses
import math

import numpy as np
import pytest

from focklattice import (PvConfig, SequenceData, ba_transform, batch_higher,
                         batch_modified_inf, cauchy_transform,
                         higher_transform, modified_cauchy_inf,
                         necessity_probe, operator_matrix,
                         operator_norm_estimate, potential_LM, power_weight,
                         pv_sum, shells_for, square_lattice,
                         taylor_kernel_check)
from conftest import gaussian_fn


def power_terms(lat, k):
    t = np.zeros(len(lat), dtype=complex)
    nz = np.abs(lat.points) > 0
    t[nz] = lat.points[nz] ** (-float(k))
    return t


def eisenstein4_oracle(scale):
    """Quartic lattice sum by brute-force shell summation at two
    truncations (they agree to ~1e-7, far below the use tolerance)."""
    vals = []
    for R in (200.0, 400.0):
        M = int(np.ceil(R / scale)) + 1
        m, n = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1))
        lam = (scale * (m + 1j * n)).ravel()
        lam = lam[(np.abs(lam) <= R) & (np.abs(lam) > 0)]
        vals.append(complex(np.sum(lam ** -4.0)))
    assert abs(vals[0] - vals[1]) < 1e-6
    return vals[1].real


class TestPvSum:
    def test_inverse_square_vanishes_per_shell(self, lat16):
        res = pv_sum(shells_for(lat16), power_terms(lat16, 2))
        shell_sums = np.diff(np.concatenate([[0], res.shell_partials]))
        assert np.max(np.abs(shell_sums)) <= 1e-12
        assert res.converged
        assert abs(res.value) <= 1e-12

    def test_inverse_cube_vanishes(self, lat16):
        res = pv_sum(shells_for(lat16), power_terms(lat16, 3))
        assert np.max(np.abs(res.shell_partials)) <= 1e-12

    def test_inverse_fourth_matches_eisenstein(self, lat16, scale):
        oracle = eisenstein4_oracle(scale)
        res = pv_sum(shells_for(lat16), power_terms(lat16, 4))
        assert res.value.real == pytest.approx(oracle, abs=1e-4)
        assert abs(res.value.imag) < 1e-12

    def test_callable_term_interface(self, lat12):
        pts = lat12.points
        term = lambda i: 0.0 if i == 0 else 1.0 / pts[i] ** 4
        res = pv_sum(shells_for(lat12), term)
        arr = pv_sum(shells_for(lat12), power_terms(lat12, 4))
        assert res.value == pytest.approx(arr.value, rel=1e-14)

    def test_growth_exponent_of_divergent_sum(self, lat16):
        # |lambda|^2-sized terms: partial sums grow like R^4
        terms = np.abs(lat16.points) ** 2 + 0j
        res = pv_sum(shells_for(lat16), terms)
        assert not res.converged
        slope, r2 = res.growth_exponent()
        assert r2 > 0.9
        assert slope == pytest.approx(4.0, abs=0.4)


class TestCauchy:
    def test_zero_data(self, lat12):
        d = SequenceData(lattice=lat12, values=np.zeros(len(lat12), complex))
        assert cauchy_transform(lat12, d, 5).value == 0

    def test_single_point_support(self, lat12):
        vals = np.zeros(len(lat12), complex)
        vals[7] = 1.0
        d = SequenceData(lattice=lat12, values=vals)
        res = cauchy_transform(lat12, d, 2)
        want = 1.0 / (lat12.points[7] - lat12.points[2])
        assert res.value == pytest.approx(want, rel=1e-14)
        assert res.converged

    def test_linearity(self, lat12, rng):
        v1 = rng.standard_normal(len(lat12)) + 1j * rng.standard_normal(len(lat12))
        v2 = rng.standard_normal(len(lat12)) + 1j * rng.standard_normal(len(lat12))
        a, b = 1.3 - 0.2j, -0.7 + 2.2j
        lhs = cauchy_transform(
            lat12, SequenceData(lattice=lat12, values=a * v1 + b * v2), 4).value
        rhs = a * cauchy_transform(lat12, SequenceData(lattice=lat12, values=v1), 4).value \
            + b * cauchy_transform(lat12, SequenceData(lattice=lat12, values=v2), 4).value
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBaAndHigher:
    def test_single_point(self, lat12):
        vals = np.zeros(len(lat12), complex)
        vals[9] = 2.0 - 1.0j
        d = SequenceData(lattice=lat12, values=vals)
        res = ba_transform(lat12, d, 1)
        want = vals[9] / (lat12.points[1] - lat12.points[9]) ** 2
        assert res.value == pytest.approx(want, rel=1e-14)

    def test_dense_vs_shell_on_absolutely_convergent(self, lat16, rng):
        decay = np.exp(-np.abs(lat16.points) ** 2 / 3.0)
        d = SequenceData(lattice=lat16,
                         values=decay * np.exp(2j * math.pi * rng.uniform(size=len(lat16))))
        for idx in (0, 5, 17):
            for n in (1, 2, 3):
                res = higher_transform(lat16, d, idx, n)
                mask = np.arange(len(lat16)) != idx
                dense = np.sum(d.values[mask]
                               / (lat16.points[mask] - lat16.points[idx]) ** n)
                assert abs(res.value - dense) <= 1e-12 * max(1.0, abs(dense))

    def test_higher_consistency_with_first_and_second(self, lat12, rng):
        vals = rng.standard_normal(len(lat12)) * np.exp(-np.abs(lat12.points))
        d = SequenceData(lattice=lat12, values=vals + 0j)
        assert higher_transform(lat12, d, 3, 1).value == \
            pytest.approx(cauchy_transform(lat12, d, 3).value, rel=1e-14)
        assert higher_transform(lat12, d, 3, 2).value == \
            pytest.approx(ba_transform(lat12, d, 3).value, rel=1e-14)

    def test_odd_order_constant_data_vanishes(self, lat16):
        d = SequenceData(lattice=lat16, values=np.ones(len(lat16), complex))
        res = higher_transform(lat16, d, 0, 3)
        assert abs(res.value) <= 1e-12

    def test_fourth_order_constant_is_eisenstein(self, lat16, scale):
        d = SequenceData(lattice=lat16, values=np.ones(len(lat16), complex))
        res = higher_transform(lat16, d, 0, 4)
        assert res.value.real == pytest.approx(eisenstein4_oracle(scale), abs=1e-4)

    def test_batch_matches_scalar(self, lat12, rng):
        vals = (rng.standard_normal(len(lat12))
                + 1j * rng.standard_normal(len(lat12))) \
            * np.exp(-np.abs(lat12.points) ** 2 / 5.0)
        d = SequenceData(lattice=lat12, values=vals)
        idx = np.asarray([0, 3, 8, 21])
        bv, bc = batch_higher(lat12, d, idx, 2)
        for j, i in enumerate(idx):
            res = higher_transform(lat12, d, int(i), 2)
            assert bv[j] == pytest.approx(res.value, rel=1e-13)
            assert bc[j] == res.converged


class TestModifiedCauchy:
    def test_zero_data(self, lat12):
        d = SequenceData(lattice=lat12, values=np.zeros(len(lat12), complex))
        assert modified_cauchy_inf(lat12, d, 4).value == 0

    def test_origin_rejected(self, lat12):
        d = SequenceData(lattice=lat12, values=np.ones(len(lat12), complex))
        with pytest.raises(ValueError):
            modified_cauchy_inf(lat12, d, 0)

    def test_origin_only_data(self, lat12):
        vals = np.zeros(len(lat12), complex)
        vals[0] = 3.0 + 1.0j
        d = SequenceData(lattice=lat12, values=vals)
        sups = []
        for i in range(1, len(lat12)):
            sups.append(abs(modified_cauchy_inf(lat12, d, i).value))
        want = abs(vals[0]) / np.min(np.abs(lat12.points[1:]))
        assert max(sups) == pytest.approx(want, rel=1e-12)

    def test_batch_matches_scalar(self, lat12, rng):
        vals = (rng.standard_normal(len(lat12))
                + 1j * rng.standard_normal(len(lat12))) \
            * np.exp(-np.abs(lat12.points))
        d = SequenceData(lattice=lat12, values=vals)
        idx = np.asarray([1, 2, 6, 15])
        bv, _ = batch_modified_inf(lat12, d, idx)
        for j, i in enumerate(idx):
            assert bv[j] == pytest.approx(modified_cauchy_inf(lat12, d, int(i)).value,
                                          rel=1e-12)


def shell_oracle(lat):
    """The same lattice run through the compensated shell path."""
    return dataclasses.replace(lat, kind="explicit")


@pytest.fixture(scope="module")
def fft_lattices(cw):
    return {"classical70": square_lattice(70.0, cw),
            "power45": square_lattice(45.0, power_weight(0.5, rho_origin=2.0))}


class TestFftPath:
    """The square-lattice FFT path against the shell path.  The bound,
    fixed before measuring: per centre lambda',
    |FFT - shell| <= 16 eps ||d||_2 ||K||_2, ||K||_2 the l^2 norm of the
    order-n kernel over the other lattice points, plus eps sum |d/lambda|
    for the modified kernel; the convergence flags are identical."""

    @pytest.mark.parametrize("name", ["classical70", "power45"])
    @pytest.mark.parametrize("data", ["gaussian", "constant", "phase"])
    def test_matches_shell_path(self, fft_lattices, name, data):
        lat = fft_lattices[name]
        pts = lat.points
        rng = np.random.default_rng(3)
        w = 0.3 + 0.1j
        vals = {"gaussian": np.exp(2 * np.conj(w) * pts - abs(w) ** 2 - np.abs(pts) ** 2),
                "constant": np.ones(len(lat), complex),
                "phase": np.exp(2j * math.pi * rng.uniform(size=len(lat)))}[data]
        d = SequenceData(lat, vals)
        # every 7th centre of the classifier's disc |lambda'| <= R/2
        idx = np.nonzero(lat.radii <= 0.5 * lat.truncation_radius)[0][1::7]
        eps = np.finfo(float).eps
        diff = np.abs(pts[None, :] - pts[idx, None])
        diff[np.arange(len(idx)), idx] = np.inf
        for n in (1, 2, 3, 5, "modified"):
            k = 1 if n == "modified" else n
            bound = 16 * eps * np.linalg.norm(vals) * np.sqrt(np.sum(diff ** (-2.0 * k), axis=1))
            if n == "modified":
                bound += eps * np.sum(np.abs(vals[1:] / pts[1:]))
                fv, fc = batch_modified_inf(lat, d, idx)
                sv, sc = batch_modified_inf(shell_oracle(lat), d, idx)
            else:
                fv, fc = batch_higher(lat, d, idx, n)
                sv, sc = batch_higher(shell_oracle(lat), d, idx, n)
            assert np.all(np.abs(fv - sv) <= bound), (n, np.max(np.abs(fv - sv) / bound))
            assert np.array_equal(fc, sc), n

    def test_tail_partials_match_shell_partials(self, lat16, rng):
        # the last cauchy_window partials themselves, not only the verdict
        from focklattice.transforms import (DEFAULT_PV, _higher_terms,
                                            _kernel_rows, _tail_partials)
        d = SequenceData(lat16, rng.standard_normal(len(lat16))
                         + 1j * rng.standard_normal(len(lat16)))
        idx = np.arange(0, len(lat16), 3)
        w = DEFAULT_PV.cauchy_window
        for n in (1, 2, 3):
            def terms_of(blk, first=0):
                return _higher_terms(lat16, d, blk, n, first)
            fft = _tail_partials(lat16, idx, DEFAULT_PV, terms_of,
                                 lambda i: batch_higher(lat16, d, i, n)[0])
            shell = np.concatenate([p[:, -w:] for _, p, _ in
                                    _kernel_rows(lat16, idx, DEFAULT_PV, terms_of)])
            assert fft.shape == shell.shape == (len(idx), w)
            assert np.max(np.abs(fft - shell)) <= 1e-13 * np.max(np.abs(shell))

    @pytest.mark.parametrize("window", [1, 2, 5, 500])
    def test_window_lengths(self, lat12, rng, window):
        # window 1 needs no outer shells, 500 exceeds the shell count; the
        # data leave windows 2 and 5 with converged and unconverged centres
        cfg = PvConfig(cauchy_window=window)
        d = SequenceData(lat12, rng.standard_normal(len(lat12))
                         * np.exp(-np.abs(lat12.points) ** 2 / 6.0) + 0j)
        idx = np.arange(len(lat12))
        for n in (1, 2):
            fv, fc = batch_higher(lat12, d, idx, n, cfg)
            sv, sc = batch_higher(shell_oracle(lat12), d, idx, n, cfg)
            assert np.max(np.abs(fv - sv)) <= 1e-14
            assert np.array_equal(fc, sc)
            if window in (2, 5):
                assert 0 < fc.sum() < len(idx)

    def test_arguments_are_validated(self, lat12):
        d = SequenceData(lat12, np.ones(len(lat12), complex))
        with pytest.raises(ValueError):
            batch_higher(lat12, d, [1, 2], 0)
        with pytest.raises(ValueError):
            batch_modified_inf(lat12, d, [0, 3])
        v, c = batch_higher(lat12, d, np.zeros(0, dtype=int), 2)
        assert v.shape == c.shape == (0,)
        with pytest.raises(ValueError):
            PvConfig(cauchy_window=0)

    def test_fft_length_is_five_smooth(self):
        from focklattice.transforms import _fft_length
        assert _fft_length(161) == 162
        assert _fft_length(225) == 225
        for n in range(1, 400):
            m = _fft_length(n)
            assert m >= n
            for f in (2, 3, 5):
                while m % f == 0:
                    m //= f
            assert m == 1


class TestPotentials:
    def test_zero(self, lat12):
        d = SequenceData(lattice=lat12, values=np.zeros(len(lat12), complex))
        assert potential_LM(lat12, d, "L", 3) == 0

    def test_single_point_kernel_value(self, lat12):
        vals = np.zeros(len(lat12), complex)
        vals[11] = 1.0
        d = SequenceData(lattice=lat12, values=vals)
        lam, lamp = lat12.points[11], lat12.points[4]
        rho = lat12.rho_values
        want_L = rho[11] * rho[4] ** 2 / abs(lamp - lam) ** 3
        assert potential_LM(lat12, d, "L", 4) == pytest.approx(want_L, rel=1e-13)
        want_M = rho[11] * rho[4] ** 3 / abs(lamp - lam) ** 4
        assert potential_LM(lat12, d, "M", 4, N=3) == pytest.approx(want_M,
                                                                    rel=1e-13)

    def test_L_sup_stable_under_doubled_truncation(self, cw):
        sups = []
        for R in (12.0, 24.0):
            lat = square_lattice(R, cw)
            d = SequenceData(lattice=lat, values=np.ones(len(lat), complex))
            sups.append(max(abs(potential_LM(lat, d, "L", i))
                            for i in range(len(lat))))
        assert sups[1] == pytest.approx(sups[0], rel=0.05)

    def test_M_requires_valid_order(self, lat12):
        d = SequenceData(lattice=lat12, values=np.ones(len(lat12), complex))
        with pytest.raises(ValueError):
            potential_LM(lat12, d, "M", 3, N=2, t=0.25)


class TestOperatorNorms:
    def test_fft_matvec_matches_dense_matrix(self, cw, rng):
        # the matrix-free section must BE the dense operator: compare the
        # application to random vectors entry by entry
        from focklattice.transforms import _FftSection
        R = 10.0
        lat = square_lattice(R, cw)
        for kind in ("B", "L", "M"):
            sec = _FftSection(R, cw, kind, 2)
            K = operator_matrix(lat, cw, kind, 2)
            x = rng.standard_normal(len(lat)) + 1j * rng.standard_normal(len(lat))
            xg = np.zeros(sec.mask.shape, dtype=complex)
            M = sec.M
            s = lat.scale
            ii = np.round(lat.points.real / s).astype(int) + M
            jj = np.round(lat.points.imag / s).astype(int) + M
            xg[ii, jj] = x
            yg = sec.apply(xg)
            want = K @ x
            assert np.max(np.abs(yg[ii, jj] - want)) <= 1e-10 * np.max(np.abs(want))

    def test_fft_row_col_sums_match_dense(self, cw):
        lat = square_lattice(10.0, cw)                      # pi R^2 / s^2 = 200
        for kind, p in (("B", 1.0), ("L", 1.0), ("M", math.inf)):
            fft_rep = operator_norm_estimate(kind, [200], p, cw, N=2)
            dense = np.linalg.norm(operator_matrix(lat, cw, kind, 2), p)
            assert fft_rep.sizes == (len(lat),)
            assert fft_rep.norms[0] == pytest.approx(dense, rel=1e-10)

    def test_bidiagonalisation_tracks_svd(self, cw):
        # the Ritz value is a lower bound within 1e-6 of the top singular
        # value of the dense section
        fft_rep = operator_norm_estimate("B", [200], 2.0, cw)
        dense = np.linalg.norm(operator_matrix(square_lattice(10.0, cw), cw, "B", 2), 2)
        assert fft_rep.norms[0] == pytest.approx(dense, rel=1e-6)
        assert fft_rep.norms[0] <= dense * (1 + 1e-9)

    @staticmethod
    def _dense_top_singular_value(cw, kind, size):
        # the section operator_norm_estimate builds for `size`, as a dense
        # matrix, and its largest singular value by LAPACK
        lat = square_lattice(math.sqrt(size / 2.0), cw)   # pi R^2 / s^2 = size
        K = operator_matrix(lat, cw, kind, 2)
        return len(lat), float(np.linalg.svd(K, compute_uv=False)[0])

    @pytest.mark.parametrize("size", [193, 401])
    @pytest.mark.parametrize("kind", ["B", "L", "M"])
    def test_bidiagonalisation_against_dense_svd(self, cw, kind, size):
        n_pts, exact = self._dense_top_singular_value(cw, kind, size)
        rep = operator_norm_estimate(kind, [size], 2.0, cw, N=2)
        assert rep.sizes == (n_pts,)
        assert abs(rep.norms[0] - exact) <= 1e-6 * exact, (rep.norms, exact)
        assert rep.norms[0] <= exact * (1 + 1e-9)

    def test_seed_51_B_section(self, cw):
        # two 50-step power-iteration trials from this seed stopped 0.54%
        # below the dense SVD (0.170947 against 0.171877)
        n_pts, exact = self._dense_top_singular_value(cw, "B", 200)
        rep = operator_norm_estimate("B", [200], 2.0, cw, seed=51)
        assert rep.sizes == (n_pts,) == (193,)
        assert abs(rep.norms[0] - exact) <= 1e-6 * exact, (rep.norms, exact)
        assert rep.norms[0] <= exact * (1 + 1e-9)

    def test_bidiagonalisation_budget_exhausted_is_typed(self, cw):
        # two steps on the 4,997-point B section leave both the Ritz
        # residual and the last change far above 1e-3
        from focklattice.errors import NumericalError
        from focklattice.transforms import _FftSection, _top_singular_value
        sec = _FftSection(math.sqrt(5000 / 2.0), cw, "B", 2)
        assert sec.size == 4997
        with pytest.raises(NumericalError, match="did not converge in 2 steps"):
            _top_singular_value(sec, seed=0, steps=2)

    def test_kernel_ffts_are_built_on_first_use(self, cw):
        from focklattice.transforms import _FftSection
        sec = _FftSection(10.0, cw, "B", 2)
        x = np.where(sec.mask, 1.0 + 0j, 0.0)
        sec.apply_adjoint(sec.apply(x))
        assert "_kabsf" not in vars(sec)     # p = 2 reads K and its adjoint
        sec.col_sum_max()
        assert "_kabsf" in vars(sec)

    def test_single_point_lattice(self, cw):
        rep = operator_norm_estimate("B", [1], 2.0, cw)
        assert rep.norms == (0.0,)

    def test_dense_matrix_diagonal_zero(self, lat12, cw):
        K = operator_matrix(lat12, cw, "B")
        assert np.all(np.diag(K) == 0)

    def test_growth_ratio_definition(self, cw):
        rep = operator_norm_estimate("L", [200, 800], 1.0, cw)
        assert rep.growth_ratio == pytest.approx(rep.norms[-1] / rep.norms[0])


class TestTaylorIdentity:
    def test_zero_argument_exact(self):
        assert taylor_kernel_check(0.0, 2.0 + 1.0j, 0.0, 4) == 0.0

    def test_random_inputs(self, rng):
        worst = 0.0
        for _ in range(2000):
            lam = rng.uniform(1, 4) * np.exp(2j * math.pi * rng.uniform())
            z = rng.uniform(0.05, 0.8) * lam
            n = rng.integers(2, 7)
            scale = max(abs(z ** n / (lam ** n * (z - lam))),
                        1.0 / abs(z - lam))
            worst = max(worst, taylor_kernel_check(z, lam, 0.0, int(n)) / scale)
        assert worst <= 1e-12

    def test_translated_variant(self, rng):
        for _ in range(200):
            lamp = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            lam = lamp + rng.uniform(1, 3) * np.exp(2j * math.pi * rng.uniform())
            z = 0.3 * (lam - lamp)
            scale = 1.0 / abs(z - (lam - lamp))
            assert taylor_kernel_check(z, lam, lamp, 3) <= 1e-12 * scale

    def test_near_cancellation_conditioning(self, rng):
        worst = 0.0
        for _ in range(300):
            lam = rng.uniform(2, 5) * np.exp(2j * math.pi * rng.uniform())
            z = 0.99 * lam * np.exp(1j * rng.uniform(-0.01, 0.01))
            rhs = abs(z ** 4 / (lam ** 4 * (z - lam)))
            worst = max(worst, taylor_kernel_check(z, lam, 0.0, 4) / rhs)
        assert worst <= 1e-8

    def test_excluded_inputs(self):
        with pytest.raises(ValueError):
            taylor_kernel_check(1.0, 0.0, 0.0, 2)
        with pytest.raises(ValueError):
            taylor_kernel_check(2.0 + 0j, 2.0 + 0j, 0.0, 2)


class TestBatchReport:
    def test_json_shape(self, lat12, rng):
        import json
        from focklattice.transforms import transform_batch_report
        vals = np.exp(-np.abs(lat12.points) ** 2) + 0j
        d = SequenceData(lattice=lat12, values=vals)
        rep = transform_batch_report(lat12, d, [0, 2, 5], n=1)
        assert [e["index"] for e in rep] == [0, 2, 5]
        assert all(isinstance(e["converged"], bool) for e in rep)
        json.dumps(rep)   # must serialise as-is


class TestNecessityProbe:
    def test_gaussian_recovery_matches_direct(self, lat12, mult12):
        f = gaussian_fn(0.3 + 0.1j)
        rep = necessity_probe(lat12, mult12, f, 2.0, delta=1.0, N=2)
        assert rep.max_discrepancy[1] <= 1e-6
        assert rep.max_discrepancy[2] <= 1e-6
        # the f/g sample norms are finite and nearly rotation-independent
        vals = list(rep.sample_norms.values())
        assert all(np.isfinite(v) for v in vals)
        assert max(vals) <= 3.0 * min(vals)

    def test_remainder_matches_per_centre_loop(self, lat12, mult12, cw):
        # the chunked remainder sums against the per-centre loop they replaced
        from focklattice.weights import phi
        f = gaussian_fn(0.3 + 0.1j)
        delta, N = 1.0, 3
        rep = necessity_probe(lat12, mult12, f, 2.0, delta=delta, N=N)
        pts, rho_v, idx = lat12.points, lat12.rho_values, rep.indices
        d = f(pts) * np.exp(-np.asarray(phi(cw, pts), dtype=float)) \
            / mult12.g_prime_weighted()
        omega = np.exp(2j * math.pi * np.arange(N) / N)
        A = np.zeros((N, len(idx)), dtype=complex)
        for k in range(N):
            zk = pts[idx] + delta * omega[k] * rho_v[idx]
            fg = f(zk) * np.exp(-mult12.log_g(zk))
            for j, i in enumerate(idx):
                zeta = delta * omega[k] * rho_v[i]
                mask = np.arange(len(lat12)) != i
                rem = np.sum(d[mask] * zeta ** N
                             / ((pts[mask] - pts[i]) ** N * (zk[j] - pts[mask])))
                A[k, j] = d[i] / zeta + rem - fg[j]
        for n in range(1, N + 1):
            want = np.mean(A * omega[:, None] ** (-(n - 1)), axis=0) \
                / (delta * rho_v[idx]) ** (n - 1)
            assert np.max(np.abs(rep.recovered[n] - want)) \
                <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_degenerate_single_sample(self, lat12, mult12):
        f = gaussian_fn(0.2)
        rep = necessity_probe(lat12, mult12, f, 2.0, delta=0.8, N=1)
        assert rep.max_discrepancy[1] <= 1e-6

    def test_delta_range_enforced(self, lat12, mult12):
        with pytest.raises(ValueError):
            necessity_probe(lat12, mult12, gaussian_fn(0.0), 2.0,
                            delta=lat12.delta_sep, N=2)

    def test_multiplier_itself_isolates_diagonal(self, lat12, mult12):
        # f = g: the trace is identically zero, the f/g samples are 1, and
        # the recovery returns -1 at order 1 and 0 beyond, exactly; the
        # direct transforms of the zero sequence vanish.  (g lies outside
        # the finite-p spaces, so the two sides legitimately differ by the
        # constant the representation formula would have supplied.)
        pts = lat12.points

        def f(z):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            out = np.zeros(z.shape, dtype=complex)
            d = np.min(np.abs(z[:, None] - pts[None, :]), axis=1)
            off = d > 1e-9
            if off.any():
                out[off] = np.exp(mult12.log_g(z[off]))
            return out

        rep = necessity_probe(lat12, mult12, f, 2.0, delta=1.0, N=3)
        assert np.max(np.abs(rep.recovered[1] + 1.0)) <= 1e-10
        assert np.max(np.abs(rep.recovered[2])) <= 1e-10
        assert np.max(np.abs(rep.recovered[3])) <= 1e-10
        assert np.max(np.abs(rep.direct[1])) == 0.0
