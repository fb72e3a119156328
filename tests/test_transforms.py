import math

import numpy as np
import pytest

from focklattice import (SQUARE_SCALE, Lattice, batch_higher,
                         batch_modified_inf, classical_weight, explicit_lattice,
                         operator_norm_estimate, power_weight, shells_for,
                         square_lattice, taylor_kernel_check)
from focklattice.weights import loglog_fit
from focklattice.classifier import TraceData
from conftest import gaussian_fn
from oracles import (dense_section, gaussian_higher, gaussian_modified_inf,
                     levin_recovery, shell_batch, shell_partials)


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
    """The engine at the origin, batch_higher(lat, d, [0], n), on the
    explicit copy of the lattice, whose totals are row sums (the path of
    explicit lattices and reconstruction); constant d gives the lattice
    sums of lambda^-n.  `TestBaAndHigher` takes the same sums through the
    square lattice's FFT totals."""

    @staticmethod
    def _origin(lat, n, d=None):
        d = np.ones(len(lat), complex) if d is None else d
        v, c = batch_higher(as_explicit(lat), d, [0], n)
        return v[0], c[0]

    @staticmethod
    def _shell_sums(lat, n):
        terms = np.zeros(len(lat), dtype=complex)
        nz = lat.radii > 0
        terms[nz] = lat.points[nz] ** (-float(n))
        return np.add.reduceat(terms, shells_for(lat).starts)

    def test_inverse_square_vanishes_per_shell(self, lat16):
        assert np.max(np.abs(self._shell_sums(lat16, 2))) <= 1e-12
        value, converged = self._origin(lat16, 2)
        assert converged
        assert abs(value) <= 1e-12

    def test_inverse_cube_vanishes(self, lat16):
        assert np.max(np.abs(np.cumsum(self._shell_sums(lat16, 3)))) <= 1e-12
        value, _ = self._origin(lat16, 3)
        assert abs(value) <= 1e-12

    def test_inverse_fourth_matches_eisenstein(self, lat16, scale):
        oracle = eisenstein4_oracle(scale)
        value, _ = self._origin(lat16, 4)
        assert value.real == pytest.approx(oracle, abs=1e-4)
        assert abs(value.imag) < 1e-12

    def test_growth_exponent_of_divergent_sum(self, cw):
        # d = lambda |lambda|^2 at order 1: |lambda|^2-sized terms, whose
        # sums grow like R^4 across truncations, and no window converges
        radii = (6.0, 8.0, 11.0, 16.0)
        sums = []
        for R in radii:
            lat = square_lattice(R, cw)
            value, converged = self._origin(lat, 1, lat.points * lat.radii ** 2)
            assert not converged
            assert value == pytest.approx(np.sum(lat.radii ** 2), rel=1e-12)
            sums.append(abs(value))
        slope, r2 = loglog_fit(np.array(radii), np.array(sums))
        assert r2 > 0.9
        assert slope == pytest.approx(4.0, abs=0.4)


class TestCauchy:
    def test_zero_data(self, lat12):
        assert batch_higher(lat12, np.zeros(len(lat12), complex), [5], 1)[0][0] == 0

    def test_single_point_support(self, lat12):
        vals = np.zeros(len(lat12), complex)
        vals[7] = 1.0
        v, c = batch_higher(lat12, vals, [2], 1)
        want = 1.0 / (lat12.points[7] - lat12.points[2])
        assert v[0] == pytest.approx(want, rel=1e-14)
        assert c[0]

    def test_linearity(self, lat12, rng):
        v1 = rng.standard_normal(len(lat12)) + 1j * rng.standard_normal(len(lat12))
        v2 = rng.standard_normal(len(lat12)) + 1j * rng.standard_normal(len(lat12))
        a, b = 1.3 - 0.2j, -0.7 + 2.2j
        cauchy = lambda v: batch_higher(lat12, v, [4], 1)[0][0]
        lhs = cauchy(a * v1 + b * v2)
        rhs = a * cauchy(v1) + b * cauchy(v2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBaAndHigher:
    def test_single_point(self, lat12):
        vals = np.zeros(len(lat12), complex)
        vals[9] = 2.0 - 1.0j
        value = batch_higher(lat12, vals, [1], 2)[0][0]
        want = vals[9] / (lat12.points[1] - lat12.points[9]) ** 2
        assert value == pytest.approx(want, rel=1e-14)

    def test_dense_vs_shell_on_absolutely_convergent(self, lat16, rng):
        decay = np.exp(-np.abs(lat16.points) ** 2 / 3.0)
        d = decay * np.exp(2j * math.pi * rng.uniform(size=len(lat16)))
        idx = np.array([0, 5, 17])
        for n in (1, 2, 3):
            values = batch_higher(lat16, d, idx, n)[0]
            for i, value in zip(idx, values):
                mask = np.arange(len(lat16)) != i
                dense = np.sum(d[mask] / (lat16.points[mask] - lat16.points[i]) ** n)
                assert abs(value - dense) <= 1e-12 * max(1.0, abs(dense))

    def test_odd_order_constant_data_vanishes(self, lat16):
        value = batch_higher(lat16, np.ones(len(lat16), complex), [0], 3)[0][0]
        assert abs(value) <= 1e-12

    def test_fourth_order_constant_is_eisenstein(self, lat16, scale):
        value = batch_higher(lat16, np.ones(len(lat16), complex), [0], 4)[0][0]
        assert value.real == pytest.approx(eisenstein4_oracle(scale), abs=1e-4)

    def test_batch_matches_scalar(self, lat12, rng):
        # against the compensated pass over every shell, one centre a row
        d = (rng.standard_normal(len(lat12))
             + 1j * rng.standard_normal(len(lat12))) \
            * np.exp(-np.abs(lat12.points) ** 2 / 5.0)
        idx = np.asarray([0, 3, 8, 21])
        bv, bc = batch_higher(lat12, d, idx, 2)
        sv, sc = shell_batch(lat12, d, idx, 2)
        assert bv == pytest.approx(sv, rel=1e-13)
        assert np.array_equal(bc, sc)


class TestGaussianTraceClosedForms:
    """The transforms of the Gaussian trace f_w on the R = 16 sigma lattice,
    at the centres |lambda'| <= 8, against their whole-lattice closed forms
    (`oracles.gaussian_higher`, `oracles.gaussian_modified_inf`).  The
    engine's error is absolute (near 1e-17 where the values fall to 1e-27),
    so the bound scales with the largest value; the measured error is 4e-16
    to 1.7e-15 of it."""

    @pytest.mark.parametrize("w", [0.3 + 0.2j, 1.5 - 0.7j])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_higher(self, lat16, mult16, n, w):
        d = TraceData.gaussian(mult16, 2.0, w).d
        idx = np.nonzero(lat16.radii <= 8.0)[0]
        want = gaussian_higher(lat16, d, idx, w, n)
        got = batch_higher(lat16, d, idx, n)[0]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("w", [0.3 + 0.2j, 1.5 - 0.7j])
    def test_modified_inf(self, lat16, mult16, w):
        d = TraceData.gaussian(mult16, math.inf, w).d
        idx = np.nonzero((lat16.radii <= 8.0) & (lat16.radii > 0.0))[0]
        want = gaussian_modified_inf(lat16, d, idx, w)
        got = batch_modified_inf(lat16, d, idx)[0]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestModifiedCauchy:
    def test_zero_data(self, lat12):
        assert batch_modified_inf(lat12, np.zeros(len(lat12), complex), [4])[0][0] == 0

    def test_origin_rejected(self, lat12):
        with pytest.raises(ValueError):
            batch_modified_inf(lat12, np.ones(len(lat12), complex), [0])

    def test_origin_only_data(self, lat12):
        vals = np.zeros(len(lat12), complex)
        vals[0] = 3.0 + 1.0j
        sups = np.abs(batch_modified_inf(lat12, vals, np.arange(1, len(lat12)))[0])
        want = abs(vals[0]) / np.min(np.abs(lat12.points[1:]))
        assert sups.max() == pytest.approx(want, rel=1e-12)

    def test_batch_matches_scalar(self, lat12, rng):
        # against the compensated pass over every shell, one centre a row
        d = (rng.standard_normal(len(lat12))
             + 1j * rng.standard_normal(len(lat12))) \
            * np.exp(-np.abs(lat12.points))
        idx = np.asarray([1, 2, 6, 15])
        bv, _ = batch_modified_inf(lat12, d, idx)
        sv, _ = shell_batch(lat12, d, idx, "modified")
        assert bv == pytest.approx(sv, rel=1e-12)


def as_explicit(lat):
    """The same points as an explicit lattice, whose totals are row sums."""
    return Lattice(points=lat.points, scale=lat.scale,
                   truncation_radius=lat.truncation_radius,
                   weight=lat.weight, kind="explicit")


def roundoff_bound(lat, vals, idx, n):
    """Per centre lambda': 16 eps ||d||_2 ||K||_2, ||K||_2 the l^2 norm of
    the order-n kernel over the other lattice points, plus eps sum |d/lambda|
    for the modified kernel (n = "modified")."""
    pts = lat.points
    eps = np.finfo(float).eps
    diff = np.abs(pts[None, :] - pts[idx, None])
    diff[np.arange(len(idx)), idx] = np.inf
    k = 1 if n == "modified" else n
    bound = 16 * eps * np.linalg.norm(vals) * np.sqrt(np.sum(diff ** (-2.0 * k), axis=1))
    if n == "modified":
        bound += eps * np.sum(np.abs(vals[1:] / pts[1:]))
    return bound


def batch(lat, d, idx, n):
    return (batch_modified_inf(lat, d, idx) if n == "modified"
            else batch_higher(lat, d, idx, n))


@pytest.fixture(scope="module")
def fft_lattices(cw):
    return {"classical70": square_lattice(70.0, cw),
            "power45": square_lattice(45.0, power_weight(0.5, rho_origin=2.0))}


class TestFftPath:
    """The batch transforms, the total less the outer shells, against the
    compensated pass over every shell (`oracles.shell_batch`).  The bound,
    fixed before measuring, is `roundoff_bound`; the convergence flags are
    identical."""

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
        # every 7th centre of the classifier's disc |lambda'| <= R/2
        idx = np.nonzero(lat.radii <= 0.5 * lat.truncation_radius)[0][1::7]
        for n in (1, 2, 3, 5, "modified"):
            fv, fc = batch(lat, vals, idx, n)
            sv, sc = shell_batch(lat, vals, idx, n)
            bound = roundoff_bound(lat, vals, idx, n)
            assert np.all(np.abs(fv - sv) <= bound), (n, np.max(np.abs(fv - sv) / bound))
            assert np.array_equal(fc, sc), n

    @pytest.mark.parametrize("delta", [0.01, 0.25])
    def test_jittered_explicit_lattice_matches_shell_path(self, cw, delta):
        # points near a critical lattice, Levin's setting: the square
        # lattice of radius 20 with each point but the origin moved by up
        # to delta * scale; the totals are row sums there.  The data leave
        # converged and unconverged centres
        rng = np.random.default_rng(5)
        sq = square_lattice(20.0, cw).points[1:]
        jitter = delta * SQUARE_SCALE * np.sqrt(rng.uniform(size=len(sq))) \
            * np.exp(2j * math.pi * rng.uniform(size=len(sq)))
        lat = explicit_lattice(np.concatenate([[0.0], sq + jitter]), cw)
        vals = np.exp(-np.abs(lat.points) ** 2 / 21.0) \
            * np.exp(2j * math.pi * rng.uniform(size=len(lat)))
        idx = np.nonzero(lat.radii <= 0.5 * lat.truncation_radius)[0][1::3]
        flags = []
        for n in (1, 2, "modified"):
            fv, fc = batch(lat, vals, idx, n)
            sv, sc = shell_batch(lat, vals, idx, n)
            bound = roundoff_bound(lat, vals, idx, n)
            assert np.all(np.abs(fv - sv) <= bound), (n, np.max(np.abs(fv - sv) / bound))
            assert np.array_equal(fc, sc), n
            flags.append(fc)
        assert 0 < np.sum(flags) < np.size(flags)

    def test_explicit_path_block_size_independent(self, lat12, rng, monkeypatch):
        # one row per term block gives the same bits as the default blocks
        import focklattice.transforms
        lat = as_explicit(lat12)
        d = rng.standard_normal(len(lat)) + 1j * rng.standard_normal(len(lat))
        idx = np.arange(len(lat))
        runs = [lambda: batch_higher(lat, d, idx, 1),
                lambda: batch_higher(lat, d, idx, 2),
                lambda: batch_modified_inf(lat, d, idx[1:])]
        want = [run() for run in runs]
        monkeypatch.setattr(focklattice.transforms, "_CHUNK_TERMS", 1)
        for run, (wv, wc) in zip(runs, want):
            v, c = run()
            assert np.array_equal(v, wv) and np.array_equal(c, wc)

    def test_tail_partials_match_shell_partials(self, lat16, rng):
        # the last CAUCHY_WINDOW partials themselves, not only the verdict,
        # from the FFT totals and from the row sums
        from focklattice.transforms import (CAUCHY_WINDOW, _higher_terms,
                                            _tail_partials)
        d = rng.standard_normal(len(lat16)) + 1j * rng.standard_normal(len(lat16))
        idx = np.arange(0, len(lat16), 3)
        w = CAUCHY_WINDOW
        for n in (1, 2, 3):
            def terms_of(rows, first):
                return _higher_terms(lat16, d, lat16.points[idx[rows]], idx[rows],
                                     n, first)
            shell = shell_partials(lat16, d, idx, n)[:, -w:]
            for totals in (lambda: batch_higher(lat16, d, idx, n)[0], None):
                tail = _tail_partials(lat16, len(idx), terms_of, totals)
                assert tail.shape == shell.shape == (len(idx), w)
                assert np.max(np.abs(tail - shell)) <= 1e-13 * np.max(np.abs(shell))

    def test_window_flags_match_shell_path(self, lat12, rng):
        # the data leave the window test with converged and unconverged
        # centres, and both paths flag the same ones
        d = rng.standard_normal(len(lat12)) * np.exp(-np.abs(lat12.points) ** 2 / 6.0)
        idx = np.arange(len(lat12))
        for n in (1, 2):
            fv, fc = batch_higher(lat12, d, idx, n)
            sv, sc = shell_batch(lat12, d, idx, n)
            assert np.max(np.abs(fv - sv)) <= 1e-14
            assert np.array_equal(fc, sc)
            assert 0 < fc.sum() < len(idx)

    def test_arguments_are_validated(self, lat12):
        d = np.ones(len(lat12), complex)
        with pytest.raises(ValueError):
            batch_higher(lat12, d, [1, 2], 0)
        with pytest.raises(ValueError):
            batch_modified_inf(lat12, d, [0, 3])
        v, c = batch_higher(lat12, d, np.zeros(0, dtype=int), 2)
        assert v.shape == c.shape == (0,)

    @pytest.mark.parametrize("bad", ["short", "long", "nan", "inf"])
    def test_sequence_is_validated(self, lat12, bad):
        # d must be finite over exactly the lattice's indices
        d = np.ones(len(lat12) + (bad == "long") - (bad == "short"), complex)
        if bad in ("nan", "inf"):
            d[7] = {"nan": complex(math.nan, 0.0), "inf": complex(0.0, math.inf)}[bad]
        for run in (lambda: batch_higher(lat12, d, [1, 2], 1),
                    lambda: batch_modified_inf(lat12, d, [1, 2])):
            with pytest.raises(ValueError, match="sequence"):
                run()

    @pytest.mark.parametrize("M", [6, 10])       # 4M + 1 = 25, 41 (-> 45)
    @pytest.mark.parametrize("data_real, kernel_real",
                             [(True, True), (True, False), (False, False)])
    def test_grid_conv_matches_direct_convolution(self, cw, M, kernel_real,
                                                  data_real, rng):
        # the pruned (and, for a real kernel, half-spectrum) FFT product on
        # the lattice's grid, over its indices, against sum_mu K(lambda - mu)
        # x(mu) summed directly; a general kernel, so that a flipped offset
        # would show
        lat = square_lattice((M - 0.5) * SQUARE_SCALE, cw)
        grid = lat.grid
        assert grid.M == M and lat.grid is grid
        # the embedding: point s(m + in) sits in grid cell (m + M, n + M)
        m = np.round(lat.points.real / SQUARE_SCALE).astype(int)
        n = np.round(lat.points.imag / SQUARE_SCALE).astype(int)
        assert np.array_equal(np.divmod(grid.cells, grid.n), (m + M, n + M))
        draw = lambda shape, real: (rng.standard_normal(shape) if real else
                                    rng.standard_normal(shape)
                                    + 1j * rng.standard_normal(shape))
        K = draw((4 * M + 1,) * 2, kernel_real)
        x = draw(len(lat), data_real)
        want = K[m[:, None] - m + 2 * M, n[:, None] - n + 2 * M] @ x
        got = grid.conv(grid.fft(K), x)
        assert got.shape == x.shape
        assert np.isrealobj(got) == (kernel_real and data_real)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.linalg.norm(K) * np.linalg.norm(x)
        # the next product reuses the grid's work arrays, not the result
        saved = got.copy()
        grid.conv(grid.fft(K), draw(x.shape, data_real))
        assert np.array_equal(got, saved)

    def test_one_grid_per_lattice(self, monkeypatch):
        # the five order-n correlations of a p = 3 trace on the gamma = 0.5
        # weight (bprime(1..5)) share the lattice's one FFT grid, and each
        # size of a norm probe builds one
        from focklattice import lattice, classify, user_multiplier
        built = []
        grid = lattice._SquareGrid
        monkeypatch.setattr(lattice, "_SquareGrid",
                            lambda *a: built.append(a) or grid(*a))
        pw = power_weight(0.5, rho_origin=2.0)
        lat = square_lattice(10.0, pw)
        um = user_multiplier(lat, np.arange(len(lat)), 1.0 / lat.rho_values, True)
        verdict = classify(TraceData.gaussian(um, 3.0, 0.3 + 0.2j))
        assert verdict.branch.condition_ids == ("a",) + tuple(
            f"bprime({n})" for n in range(1, 6))
        assert len(built) == 1
        operator_norm_estimate("B", [20, 50, 200], 2.0, pw)
        assert len(built) == 4

    def test_fft_length_is_five_smooth(self):
        from focklattice.lattice import _fft_length
        assert _fft_length(161) == 162
        assert _fft_length(225) == 225
        for n in range(1, 400):
            m = _fft_length(n)
            assert m >= n
            for f in (2, 3, 5):
                while m % f == 0:
                    m //= f
            assert m == 1


def _order(kind, N):
    # only M(N) reads N
    return {"N": N} if kind == "M" else {}


class TestOperatorNorms:
    def test_fft_matvec_matches_dense_matrix(self, cw, rng):
        # the matrix-free section must BE the dense operator: compare the
        # application to random vectors entry by entry, real ones for the
        # real kernels of L and M(N)
        from focklattice.transforms import _FftSection
        lat = square_lattice(10.0, cw)
        for kind, N in (("B", None), ("L", None), ("M", 2)):
            sec = _FftSection(lat, kind, N)
            K = dense_section(lat, kind, 2)
            x = rng.standard_normal(len(lat)) \
                + (0.0 if sec.real else 1j * rng.standard_normal(len(lat)))
            want = K @ x
            assert np.max(np.abs(sec.apply(x) - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["B", "L"])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_section_below_the_lattice_guard_matches_dense(self, cw, kind, p):
        # size 20 is the disc m^2 + n^2 <= 20/pi: 21 points, a radius below
        # square_lattice's 3 s guard, which the probes do not take
        lat = explicit_lattice([SQUARE_SCALE * complex(m, n)
                                for m in range(-3, 4) for n in range(-3, 4)
                                if math.pi * (m * m + n * n) <= 20], cw)
        rep = operator_norm_estimate(kind, [20], p, cw)
        assert rep.sizes == (len(lat),) == (21,)
        dense = np.linalg.norm(dense_section(lat, kind), p)
        assert rep.norms[0] == pytest.approx(dense, rel=1e-10)

    def test_fft_row_col_sums_match_dense(self, cw):
        lat = square_lattice(10.0, cw)                      # pi R^2 / s^2 = 200
        for kind, p in (("B", 1.0), ("L", 1.0), ("M", math.inf)):
            fft_rep = operator_norm_estimate(kind, [200], p, cw, **_order(kind, 2))
            dense = np.linalg.norm(dense_section(lat, kind, 2), p)
            assert fft_rep.sizes == (len(lat),)
            assert fft_rep.norms[0] == pytest.approx(dense, rel=1e-10)

    def test_bidiagonalisation_tracks_svd(self, cw):
        # the Ritz value is a lower bound within 1e-6 of the top singular
        # value of the dense section
        fft_rep = operator_norm_estimate("B", [200], 2.0, cw)
        dense = np.linalg.norm(dense_section(square_lattice(10.0, cw), "B", 2), 2)
        assert fft_rep.norms[0] == pytest.approx(dense, rel=1e-6)
        assert fft_rep.norms[0] <= dense * (1 + 1e-9)

    @staticmethod
    def _dense_top_singular_value(w, kind, size, N=2):
        # the section operator_norm_estimate builds for `size`, as a dense
        # matrix, and its largest singular value by LAPACK
        lat = square_lattice(math.sqrt(size / 2.0), w)    # pi R^2 / s^2 = size
        K = dense_section(lat, kind, N)
        return len(lat), float(np.linalg.svd(K, compute_uv=False)[0])

    @pytest.mark.parametrize("size", [193, 401])
    @pytest.mark.parametrize("kind", ["B", "L", "M"])
    def test_bidiagonalisation_against_dense_svd(self, cw, kind, size):
        n_pts, exact = self._dense_top_singular_value(cw, kind, size)
        rep = operator_norm_estimate(kind, [size], 2.0, cw, **_order(kind, 2))
        assert rep.sizes == (n_pts,)
        assert abs(rep.norms[0] - exact) <= 1e-6 * exact, (rep.norms, exact)
        assert rep.norms[0] <= exact * (1 + 1e-9)

    @pytest.mark.parametrize("size", [193, 401])
    @pytest.mark.parametrize("kind,N", [("L", 2), ("M", 3)])
    def test_power_weight_bidiagonalisation_against_dense_svd(self, kind, N, size):
        # the real sections iterate in real arithmetic; rho varies here
        pw = power_weight(0.5, rho_origin=2.0)
        n_pts, exact = self._dense_top_singular_value(pw, kind, size, N)
        rep = operator_norm_estimate(kind, [size], 2.0, pw, **_order(kind, N))
        assert rep.sizes == (n_pts,)
        assert abs(rep.norms[0] - exact) <= 1e-6 * exact, (rep.norms, exact)
        assert rep.norms[0] <= exact * (1 + 1e-9)

    @pytest.mark.parametrize("kind,N", [("B", 2), ("M", 3)])
    def test_power_weight_sections_stop_on_the_residual(self, kind, N):
        # the top two singular values cluster here, so a stop on a relative
        # Ritz change of 1e-8 leaves B 2.2e-7 to 3.1e-7 below the dense SVD
        # (after 28 steps) and M(3) 5.1e-10 to 2.4e-9 below; the residual
        # stop lands both within rounding
        pw = power_weight(0.5, rho_origin=2.0)
        n_pts, exact = self._dense_top_singular_value(pw, kind, 401, N)
        for seed in (0, 1, 9901):
            rep = operator_norm_estimate(kind, [401], 2.0, pw, seed=seed,
                                         **_order(kind, N))
            assert rep.sizes == (n_pts,)
            gap = (exact - rep.norms[0]) / exact
            assert -1e-14 <= gap <= 1e-12, (seed, gap)

    @staticmethod
    def _weight(name):
        return classical_weight() if name == "classical" else power_weight(0.5, rho_origin=2.0)

    @pytest.mark.parametrize("weight", ["classical", "power05"])
    @pytest.mark.parametrize("kind,N", [("B", 2), ("L", 2), ("M", 3)])
    def test_adjoint_identity(self, rng, weight, kind, N):
        # <A x, y> = <x, A^H y>: the adjoint applies K itself, by evenness;
        # the real kernels of L and M(N) act on real vectors
        from focklattice.transforms import _FftSection
        sec = _FftSection(square_lattice(10.0, self._weight(weight)), kind,
                          N if kind == "M" else None)
        x, y = (rng.standard_normal(sec.size)
                + (0.0 if sec.real else 1j * rng.standard_normal(sec.size))
                for _ in range(2))
        ax, ahy = sec.apply(x), sec.apply_adjoint(y)
        lhs, rhs = np.vdot(y, ax), np.vdot(ahy, x)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y)

    @pytest.mark.parametrize("weight", ["classical", "power05"])
    @pytest.mark.parametrize("kind,N", [("B", 2), ("L", 2), ("M", 3)])
    def test_sections_just_below_dense_svd_at_every_seed(self, weight, kind, N):
        # the Ritz value is a lower bound (up to rounding) that stops within
        # 1.2e-8 of the top singular value, whatever the start's offset
        w = self._weight(weight)
        n_pts, exact = self._dense_top_singular_value(w, kind, 193, N)
        for seed in (0, 1, 2, 3, 51, 9999, 2 ** 31, 2 ** 32 - 1):
            rep = operator_norm_estimate(kind, [193], 2.0, w, seed=seed,
                                         **_order(kind, N))
            assert rep.sizes == (n_pts,) == (193,)
            gap = (exact - rep.norms[0]) / exact
            assert -1e-14 <= gap <= 1.2e-8, (seed, gap)

    def test_bidiagonalisation_budget_exhausted_is_typed(self, cw, monkeypatch):
        # two steps on the 4,997-point B section leave both the Ritz
        # residual and the last change far above 1e-3
        from focklattice import transforms
        from focklattice.errors import NumericalError
        sec = transforms._FftSection(square_lattice(math.sqrt(5000 / 2.0), cw), "B", None)
        assert sec.size == 4997
        monkeypatch.setattr(transforms, "_GKL_STEPS", 2)
        with pytest.raises(NumericalError, match="did not converge in 2 steps"):
            transforms._top_singular_value(sec, seed=0)

    def test_kernel_ffts_are_built_on_first_use(self, cw):
        from focklattice.transforms import _FftSection
        sec = _FftSection(square_lattice(10.0, cw), "B", None)
        x = np.ones(sec.size, dtype=complex)
        sec.apply_adjoint(sec.apply(x))
        assert "_kabsf" not in vars(sec)     # p = 2 reads K alone
        sec.abs_sum_max(1.0)
        assert "_kabsf" in vars(sec)

    def test_single_point_lattice(self, cw):
        # sizes 1 to 3 all give the origin alone (R < scale): the zero
        # operator, whose norm is exactly 0.  Sizes 2 and 3 ran the one-point
        # section, to FFT noise at p = 1 and a stalled bidiagonalisation at 2
        for size in (1, 2, 3):
            for p in (1.0, 2.0):
                rep = operator_norm_estimate("B", [size], p, cw)
                assert rep.sizes == (1,) and rep.norms == (0.0,), (size, p)

    def test_dense_matrix_diagonal_zero(self, lat12, cw):
        K = dense_section(lat12, "B")
        assert np.all(np.diag(K) == 0)

    def test_only_m_reads_n(self, cw):
        with pytest.raises(ValueError, match="N"):
            operator_norm_estimate("M", [200], 2.0, cw)

    def test_growth_ratio_definition(self, cw):
        rep = operator_norm_estimate("L", [200, 800], 1.0, cw)
        assert rep.growth_ratio == pytest.approx(rep.norms[-1] / rep.norms[0])


class TestTaylorIdentity:
    def test_zero_argument_exact(self):
        assert taylor_kernel_check(0.0, 2.0 + 1.0j, 4) == 0.0

    def test_random_inputs(self, rng):
        worst = 0.0
        for _ in range(2000):
            lam = rng.uniform(1, 4) * np.exp(2j * math.pi * rng.uniform())
            z = rng.uniform(0.05, 0.8) * lam
            n = rng.integers(2, 7)
            scale = max(abs(z ** n / (lam ** n * (z - lam))),
                        1.0 / abs(z - lam))
            worst = max(worst, taylor_kernel_check(z, lam, int(n)) / scale)
        assert worst <= 1e-12

    def test_translated_variant(self, rng):
        for _ in range(200):
            lamp = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            lam = lamp + rng.uniform(1, 3) * np.exp(2j * math.pi * rng.uniform())
            z = 0.3 * (lam - lamp)
            scale = 1.0 / abs(z - (lam - lamp))
            assert taylor_kernel_check(z, lam - lamp, 3) <= 1e-12 * scale

    def test_near_cancellation_conditioning(self, rng):
        worst = 0.0
        for _ in range(300):
            lam = rng.uniform(2, 5) * np.exp(2j * math.pi * rng.uniform())
            z = 0.99 * lam * np.exp(1j * rng.uniform(-0.01, 0.01))
            rhs = abs(z ** 4 / (lam ** 4 * (z - lam)))
            worst = max(worst, taylor_kernel_check(z, lam, 4) / rhs)
        assert worst <= 1e-8

    def test_excluded_inputs(self):
        with pytest.raises(ValueError):
            taylor_kernel_check(1.0, 0.0, 2)
        with pytest.raises(ValueError):
            taylor_kernel_check(2.0 + 0j, 2.0 + 0j, 2)


class TestNecessityProbe:
    """Levin's perturbed-point recovery (`oracles.levin_recovery`) against
    the program's order-n transforms."""

    @staticmethod
    def _direct(lat, rec, n):
        return batch_higher(lat, rec.d, rec.indices, n)[0]

    def test_gaussian_recovery_matches_direct(self, lat12, mult12):
        f = gaussian_fn(0.3 + 0.1j)
        rec = levin_recovery(lat12, mult12, f, delta=1.0, N=2)
        for n in (1, 2):
            assert np.max(np.abs(rec.recovered[n] - self._direct(lat12, rec, n))) <= 1e-6
        # the f/g sample norms are finite and nearly rotation-independent
        vals = np.linalg.norm(rec.samples, axis=1)
        assert np.all(np.isfinite(vals))
        assert max(vals) <= 3.0 * min(vals)

    def test_degenerate_single_sample(self, lat12, mult12):
        f = gaussian_fn(0.2)
        rec = levin_recovery(lat12, mult12, f, delta=0.8, N=1)
        assert np.max(np.abs(rec.recovered[1] - self._direct(lat12, rec, 1))) <= 1e-6

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

        rec = levin_recovery(lat12, mult12, f, delta=1.0, N=3)
        assert np.max(np.abs(rec.recovered[1] + 1.0)) <= 1e-10
        assert np.max(np.abs(rec.recovered[2])) <= 1e-10
        assert np.max(np.abs(rec.recovered[3])) <= 1e-10
        assert np.max(np.abs(self._direct(lat12, rec, 1))) == 0.0
