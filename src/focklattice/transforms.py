"""Principal-value summation engine and the discrete lattice transforms.

A principal value here always means the limit of partial sums over
|lambda| < R, taken shell by shell in ascending shell order: the sums are
cancellation-heavy (odd kernels vanish per shell on the square lattice)
and may run over 1e5 terms.  Lattice indices run in ascending radius
order (`Lattice` enforces it), so the sums of a term row over shells are
one `np.add.reduceat` over the shell starts.  Convergence at finite
truncation is a verdict, not a certainty: the last CAUCHY_WINDOW shell
partials must agree to the relative tolerance `rtol` (PV_RTOL unless the
caller passes another), and one test, `_window_test`, decides that on
every path.

Every batch p.v. evaluation takes one route, `_tail_partials`: the
verdict needs only the last CAUCHY_WINDOW partials, and partial k is the
total less the sums over the shells beyond k.  Those few outer shells (a
few dozen points on the square lattice, a few on an explicit one) are
summed directly from the rows of one builder per kernel (`_higher_terms`,
`_modified_terms`), which writes them at any centres with each row's own
index zeroed, in row blocks of _CHUNK_TERMS terms (`_row_sums`).  Which
totals run follows from the lattice, with no knob:

* On the square lattice `batch_higher` and `batch_modified_inf` take the
  whole-disc total at every centre from one 2-D FFT correlation of the
  grid-embedded d with the order-n kernel (K(0) = 0), O(R^2 log R) instead
  of the O(R^4) term matrix (`_correlate`).  The modified p = inf kernel
  is the order-1 correlation minus sum_{lambda != 0} d_lambda/lambda plus
  d_lambda'/lambda'.
* Elsewhere, on explicit lattices and at the off-lattice centres z of
  `interpolate` (own index the point nearest z), the totals are the plain
  row sums of the same term rows.

The totals are pairwise numpy sums, so the tail partials agree with a
compensated pass over every shell up to rounding, and the window test
sees the same numbers; the tests hold the engine to such a pass, written
apart from the program (`tests/oracles.py`).

The same zero-padded FFT convolution (`_SquareGrid`) applies the operator
sections of the norm probes.  Its transforms skip the zero padding (only
the rows that hold data are transformed forward, only the output rows
backward), and real kernels (L, M(N), |K|) take real transforms on the
half spectrum.

Transforms acting on weighted sequences d (normally d = c/g'), each a
plain complex array over the lattice's indices, finite, checked once per
call (`_sequence`):

    higher n:  sum d_lambda / (lambda - lambda')^n   (n = 1 the discrete
               Cauchy transform, n = 2 the Beurling-Ahlfors one)
    modified:  -d_0/lambda' + sum d_lambda (1/(lambda-lambda') - 1/lambda)

plus matrix-free norm probes of the operator sections B, L and M(N)
(`_FftSection`) and the geometric-remainder identity behind Levin's
perturbed-point recovery (`taylor_kernel_check`).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalError
from .lattice import Lattice, grid_coords, shells_for, SQUARE_SCALE
from .weights import WeightProfile, quasirandom, rho_many

__all__ = [
    "PV_RTOL",
    "OperatorNormReport",
    "batch_higher",
    "batch_modified_inf",
    "operator_norm_estimate",
    "taylor_kernel_check",
]

# terms per row block of every term matrix: 125 KB of complex terms, under
# glibc's default 128 KB mmap threshold, like weights._CHUNK
_CHUNK_TERMS = 8000
# inner centres lambda' of the trace conditions lie in
# |lambda'| <= OUTER_GUARD_FRACTION * R, away from the truncation edge
OUTER_GUARD_FRACTION = 0.5


# The window test: a p.v. sum converged when its last CAUCHY_WINDOW shell
# partials lie within rtol times their largest modulus plus PV_ATOL.  Shells
# are always those of |lambda|: the limit definition sums over |lambda| < R
# even for transforms centred elsewhere.
PV_RTOL = 1e-9
PV_ATOL = 1e-15
CAUCHY_WINDOW = 5


def _window_test(partials: np.ndarray, rtol: float):
    """Cauchy test on the last CAUCHY_WINDOW columns of (rows x partials):
    (converged, spread), where a row converged when the largest pairwise
    gap `spread` of those partials is at most rtol times their largest
    modulus plus PV_ATOL."""
    tail = partials[:, -CAUCHY_WINDOW:]
    spread = np.max(np.abs(tail[:, :, None] - tail[:, None, :]), axis=(1, 2))
    scale = np.max(np.abs(tail), axis=1)
    return spread <= rtol * scale + PV_ATOL, spread


def _sequence(lat: Lattice, d) -> np.ndarray:
    """The sequence d as a complex array over the indices of lat: shape
    (len(lat),) and every entry finite, or ValueError."""
    d = np.asarray(d, dtype=complex)
    if d.shape != (len(lat),):
        raise ValueError("sequence must cover every lattice index")
    if not np.all(np.isfinite(d)):
        raise ValueError("sequence entries must be finite")
    return d


def _higher_terms(lat: Lattice, d: np.ndarray, centres, own, n: int,
                  first: int = 0):
    """Rows d_lambda / (lambda - centre)^n over the indices first.., with
    each row's own index `own` zeroed (the centre's own term, or the pole
    that reconstruction deflates)."""
    if n < 1:
        raise ValueError(f"transform order n={n} out of range")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = d[first:] / (lat.points[first:] - centres[:, None]) ** n
    _zero_own(terms, own, first)
    return terms


def _modified_terms(lat: Lattice, d: np.ndarray, centres, own, first: int = 0):
    """Rows of the modified Cauchy kernel over the indices first.. at the
    nonzero centres, with each row's own index `own` zeroed; the origin
    column -d_0/centre is set first, so own = 0 zeroes it too."""
    if np.any(centres == 0.0):
        raise ValueError("modified transform requires lambda' != 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = d[first:] * (1.0 / (lat.points[first:] - centres[:, None])
                             - lat.inv_points[first:])
    if first == 0:
        terms[:, 0] = -d[0] / centres
    _zero_own(terms, own, first)
    return terms


def _zero_own(terms: np.ndarray, own: np.ndarray, first: int):
    # terms spans the indices first.. ; zero each row's own term
    rows = np.nonzero(own >= first)[0]
    terms[rows, own[rows] - first] = 0.0


def _row_sums(count: int, width: int, terms_of, starts) -> np.ndarray:
    """(count x len(starts)) sums of the term rows terms_of(rows) (rows a
    slice of range(count), `width` terms each) over the column runs that
    begin at `starts`, in row blocks of at most _CHUNK_TERMS terms."""
    out = np.empty((count, len(starts)), dtype=complex)
    step = max(1, _CHUNK_TERMS // max(1, width))
    for i in range(0, count, step):
        # runs even without columns: terms_of validates its arguments
        terms = terms_of(slice(i, i + step))
        if len(starts):
            out[i:i + step] = np.add.reduceat(terms, starts, axis=1)
    return out


def _batch_values(lat: Lattice, indices, rtol: float, terms_of, totals):
    """Values and convergence flags of the p.v. sums with term rows
    terms_of(block, first) (over the indices first..) at the centres
    points[indices]; on the square lattice their totals are
    totals(indices), an FFT correlation."""
    indices = np.asarray(indices, dtype=int)
    partials = _tail_partials(lat, len(indices),
                              lambda rows, first: terms_of(indices[rows], first),
                              (lambda: totals(indices)) if lat.kind == "square" else None)
    return partials[:, -1], _window_test(partials, rtol)[0]


def _tail_partials(lat: Lattice, count: int, terms_of, totals=None) -> np.ndarray:
    """The last CAUCHY_WINDOW shell partials of count p.v. sums with term
    rows terms_of(rows, first) (rows a slice of range(count), over the
    indices first..): the totals, totals() or else the row sums over every
    index, less the direct sums over the outer shells beyond each
    partial.  The outer rows come first, so terms_of validates its
    arguments before any total is taken."""
    sched = shells_for(lat)
    k = min(CAUCHY_WINDOW, sched.n_shells) - 1
    first = int(sched.starts[-k]) if k > 0 else len(lat)
    outer = _row_sums(count, len(lat) - first, lambda rows: terms_of(rows, first),
                      sched.starts[sched.n_shells - k:] - first)
    total = (_row_sums(count, len(lat), lambda rows: terms_of(rows, 0), [0])[:, 0]
             if totals is None else totals())
    beyond = np.cumsum(outer[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([total[:, None] - beyond, total[:, None]], axis=1)


def _correlate(lat: Lattice, d: np.ndarray, n: int, indices) -> np.ndarray:
    """sum over lambda != lambda' of d_lambda / (lambda - lambda')^n at the
    centres lambda' = points[indices] of a square lattice: one FFT
    correlation of the grid-embedded d."""
    grid = _SquareGrid(lat.truncation_radius, lat.scale)
    ii, jj = (c.astype(int) + grid.M for c in grid_coords(lat.points, grid.scale))
    x = np.zeros(grid.points.shape, dtype=complex)
    x[ii, jj] = d
    # the kernel at offset lambda' - lambda
    kf = grid.fft(grid.kernel(lambda off: 1.0 / (-off) ** n))
    return grid.conv(kf, x)[ii[indices], jj[indices]]


def batch_higher(lat: Lattice, d: np.ndarray, indices: np.ndarray, n: int,
                 rtol: float = PV_RTOL):
    """p.v. sums of d_lambda / (lambda - lambda')^n at the centres
    lambda' = points[indices]: the discrete Cauchy transform for n = 1,
    Beurling-Ahlfors for n = 2.  Arrays of values and convergence flags;
    the rho(lambda')^(n-1) prefactor of the trace conditions is applied by
    the caller."""
    d = _sequence(lat, d)
    return _batch_values(lat, indices, rtol,
                         lambda blk, first: _higher_terms(lat, d, lat.points[blk],
                                                          blk, n, first),
                         lambda idx: _correlate(lat, d, n, idx))


def batch_modified_inf(lat: Lattice, d: np.ndarray, indices: np.ndarray,
                       rtol: float = PV_RTOL):
    """-d_0/lambda' + p.v. sum over lambda not in {0, lambda'} of
    d_lambda (1/(lambda - lambda') - 1/lambda) at the nonzero centres
    lambda' = points[indices]; the sup-norm counterpart of the Cauchy
    condition.  The kernel decays like |lambda'|/|lambda|^2, so bounded
    (rho^-1-weighted) data sums absolutely at fixed lambda'."""
    d = _sequence(lat, d)

    def totals(idx):
        # the order-1 sum holds -d_0/lambda'; the -1/lambda halves of the
        # other terms are sum_{lambda != 0} d_lambda/lambda less the centre's
        c = np.sum(d[1:] / lat.points[1:])
        return _correlate(lat, d, 1, idx) - c + d[idx] / lat.points[idx]

    return _batch_values(lat, indices, rtol,
                         lambda blk, first: _modified_terms(lat, d, lat.points[blk],
                                                            blk, first),
                         totals)


# ---------------------------------------------------------------------------
# Operator-norm probes
# ---------------------------------------------------------------------------

class OperatorNormReport(NamedTuple):
    """Estimated operator norms across nested lattice truncations."""

    op: str
    p: float
    sizes: tuple
    norms: tuple
    stagnations: tuple = ()
    residuals: tuple = ()

    @property
    def growth_ratio(self) -> float:
        return self.norms[-1] / self.norms[0]


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast FFT length."""
    while True:
        m = n
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        if m == 1:
            return n
        n += 1


class _SquareGrid:
    """The grid scale*(m + i n), |m|, |n| <= M = ceil(R / scale), which
    holds the disc |lambda| <= R of the square lattice, with linear
    convolution (K * x)(lambda) = sum_mu K(lambda - mu) x(mu) of grid
    functions x with kernels K on the offsets |m|, |n| <= 2M: a 2-D FFT
    zero-padded to a 5-smooth length n >= 4M + 1, so that no offset wraps
    around.

    The transforms are pruned (Markel, "FFT pruning", 1971): the forward
    one runs along the rows that hold data, then down all n columns, and
    the inverse one back up the columns and along the 2M + 1 output rows
    only.  A real array takes real transforms along its rows (the half
    spectrum), so a real kernel costs half a complex one; a complex x
    against a real kernel is convolved as its real and imaginary parts."""

    def __init__(self, R: float, scale: float = SQUARE_SCALE):
        self.M = M = int(math.ceil(R / scale))
        self.scale = scale
        m = np.arange(-M, M + 1)
        self.points = scale * (m[:, None] + 1j * m[None, :])
        off = np.arange(-2 * M, 2 * M + 1)
        self.offsets = scale * (off[:, None] + 1j * off[None, :])
        self._n = _fft_length(4 * M + 1)

    def kernel(self, fn) -> np.ndarray:
        """fn on the nonzero offsets, 0 at offset 0."""
        ctr = self.offsets == 0
        return np.where(ctr, 0.0, fn(np.where(ctr, 1.0, self.offsets)))

    def fft(self, a: np.ndarray) -> np.ndarray:
        """The n x n spectrum of a zero-padded to n x n; n // 2 + 1
        columns of it when a is real."""
        n = self._n
        rows = (np.fft.rfft if np.isrealobj(a) else np.fft.fft)(a, n=n, axis=1)
        return np.fft.fft(rows, n=n, axis=0)

    @functools.cached_property
    def _work(self):
        # the complex product's work arrays, kept across calls: fresh ones
        # lie above glibc's mmap threshold, so every call would map and
        # unmap them and fault their pages in again
        return (np.empty((2 * self.M + 1, self._n), dtype=complex),
                np.empty((self._n, self._n), dtype=complex))

    def conv(self, kf: np.ndarray, x: np.ndarray) -> np.ndarray:
        """K * x on the grid, for kf = fft(K); real when K and x are."""
        M, n = self.M, self._n
        if kf.shape[1] != n:             # a real K has the half spectrum
            if np.iscomplexobj(x):
                return self.conv(kf, x.real) + 1j * self.conv(kf, x.imag)
            rows = np.fft.ifft(kf * self.fft(x), axis=0)[2 * M:4 * M + 1]
            return np.fft.irfft(rows, n=n, axis=1)[:, 2 * M:4 * M + 1]
        rows, spec = self._work
        rows[:, :2 * M + 1] = x
        rows[:, 2 * M + 1:] = 0.0
        np.fft.fft(rows, axis=1, out=rows)
        np.fft.fft(rows, n=n, axis=0, out=spec)
        # the rounding of a complex product (its fused multiply-adds)
        # depends on the operand order; this is numpy's order for
        # kf * spectrum, which from 256 KiB multiplies into the temporary
        # spectrum, so the sections keep their bits
        if spec.nbytes >= 1 << 18:
            np.multiply(spec, kf, out=spec)
        else:
            np.multiply(kf, spec, out=spec)
        np.fft.ifft(spec, axis=0, out=spec)
        np.fft.ifft(spec[2 * M:4 * M + 1], axis=1, out=rows)
        return rows[:, 2 * M:4 * M + 1].copy()


class _FftSection:
    """Matrix-free section of one operator on the disc |lambda| <= R of
    the square lattice, its weights real and its diagonal 0:

        B:    rho(lambda) rho(mu) / (lambda - mu)^2
        L:    rho(lambda)^2 rho(mu) / |lambda - mu|^3
        M(N): rho(lambda)^N rho(mu) / |lambda - mu|^(N+1)

    (B carries the l^p(rho^-1) -> l^p(rho) conjugation).  Every kernel
    (and |K|) is even on the offset grid, so the adjoint applies K itself.
    Each kernel FFT is built on first use: p = 2 reads K, p = 1 and inf
    only |K|.  The L and M(N) kernels are real (`real`), and so is their
    whole arithmetic on real vectors."""

    def __init__(self, R: float, w: WeightProfile, kind: str, N: int,
                 scale: float = SQUARE_SCALE):
        if kind not in ("B", "L", "M"):
            raise ValueError("operator must be 'B', 'L' or 'M'")
        self.grid = _SquareGrid(R, scale)
        lam = self.grid.points
        self.mask = np.abs(lam) <= R
        self.size = int(self.mask.sum())
        # the weights vanish off the disc, where rho is never evaluated
        rho = rho_many(w, lam[self.mask])
        self.out_w, self.in_w = np.zeros((2,) + lam.shape)
        self.out_w[self.mask] = rho ** {"B": 1, "L": 2, "M": N}[kind]
        self.in_w[self.mask] = rho
        if kind == "B":
            self._kern = self.grid.kernel(lambda d: 1.0 / d ** 2)
        else:
            e = 3 if kind == "L" else N + 1
            self._kern = self.grid.kernel(lambda d: 1.0 / np.abs(d) ** e)
        self.real = np.isrealobj(self._kern)

    @functools.cached_property
    def _kf(self):
        return self.grid.fft(self._kern)

    @functools.cached_property
    def _kabsf(self):
        return self.grid.fft(np.abs(self._kern))

    def apply(self, x):
        return self.out_w * self.grid.conv(self._kf, self.in_w * x)

    def apply_adjoint(self, y):
        # K is even and the weights real: A^H y = conj(in_w K * (out_w conj y))
        return np.conj(self.in_w * self.grid.conv(self._kf, self.out_w * np.conj(y)))

    def abs_sum_max(self, p: float) -> float:
        """The largest weighted column (p = 1) or row (p = inf) sum of |K|;
        the outer weight vanishes off the disc."""
        outer, inner = (self.in_w, self.out_w) if p == 1.0 else (self.out_w, self.in_w)
        return float((outer * self.grid.conv(self._kabsf, inner)).max())


# the step budget of a Golub-Kahan-Lanczos run, and its relative Ritz-residual stop
_GKL_STEPS = 50
_GKL_RTOL = 1e-8


def _top_singular_value(sec: _FftSection, seed: int):
    """(theta, change, residual): the section's largest singular value by
    one Golub-Kahan-Lanczos run (Golub & Van Loan, Matrix Computations,
    10.4), its last relative change and the relative Ritz residual it
    stopped on.  The start is `quasirandom` offset by
    `seed`: point seed + j gives the j-th disc point (in grid order) its
    real part and, on a complex section, its imaginary part, so a real
    section iterates in real arithmetic.  The start is positive, and so is
    the top singular vector of the nonnegative L and M(N) kernels.

    alpha_k u_k = A v_k - beta_{k-1} u_{k-1}, beta_k v_{k+1} = A^H u_k -
    alpha_k v_k; theta = sigma_max(B_k) of the upper bidiagonal B_k is a
    lower bound by interlacing.  Its residual is beta_k |p_k| = beta_k
    alpha_k |q_k| / theta (p, q the top singular vectors of B_k), where
    q_k^2 = prod_j (theta^2 - mu_j^2) / (theta^2 - sigma_{j+1}^2) for the
    singular values sigma of B_k and mu of B_{k-1} (LAPACK's singular-vector
    path starts BLAS threads, which stalled for ~50 ms a call on 2 cores).
    No basis is kept: plain Lanczos only repeats converged Ritz values.
    Stops early only on the residual, residual <= _GKL_RTOL theta: a small
    change alone does not bound the gap when the top two singular values
    cluster.  At the cap of _GKL_STEPS steps NumericalError if both the
    residual and the change exceed 1e-3."""
    start = quasirandom(sec.size, seed)
    v = np.zeros(sec.mask.shape, dtype=float if sec.real else complex)
    v[sec.mask] = start[:, 0] if sec.real else start[:, 0] + 1j * start[:, 1]
    v /= np.linalg.norm(v)
    # the weights vanish off the disc, so the iterates stay masked
    u, beta, theta, prev = 0.0, 0.0, 0.0, np.zeros(0)
    alphas, betas = [], []
    for _ in range(_GKL_STEPS):
        u = sec.apply(v) - beta * u
        alpha = float(np.linalg.norm(u))
        u /= alpha
        v = sec.apply_adjoint(u) - alpha * v
        beta = float(np.linalg.norm(v))
        alphas.append(alpha)
        s = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1), compute_uv=False)
        betas.append(beta)
        change = float(abs(s[0] - theta) / s[0])
        theta = float(s[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            q2 = np.prod((theta ** 2 - prev ** 2) / (theta ** 2 - s[1:] ** 2))
        resid = beta * alpha * math.sqrt(abs(q2)) / theta ** 2
        prev = s
        if resid <= _GKL_RTOL:
            return theta, change, resid
        v /= beta
    if not (resid <= 1e-3 or change <= 1e-3):
        raise NumericalError(f"bidiagonalisation did not converge in "
                             f"{_GKL_STEPS} steps (residual {resid:.1e}, "
                             f"change {change:.1e})")
    return theta, change, resid


def operator_norm_estimate(kind: str, sizes: Sequence[int], p: float,
                           w: WeightProfile, N: int = 2,
                           seed: int = 0) -> OperatorNormReport:
    """Operator norms of B, L or M(N) across nested square-lattice sizes.

    p=1 and p=inf are the exact max weighted column/row sums.  p=2 is a
    lower bound on the largest singular value by Golub-Kahan-Lanczos from
    the quasirandom start offset by `seed` (`_top_singular_value`: at most
    50 steps, stopping early only at a relative Ritz residual of 1e-8; the
    last relative Ritz change is in `stagnations`, the residual at exit in
    `residuals`, both 0 where the norm is exact).  Sections are
    matrix-free FFT convolutions."""
    if p not in (1.0, 2.0) and not math.isinf(p):
        raise ValueError("operator norms support p in {1, 2, inf}")
    sizes = sorted(int(s) for s in sizes)
    if len(sizes) == 0 or sizes[0] < 1:
        raise ValueError("sizes must be positive and ascending")
    rows = []
    for size in sizes:
        # radius with expected count ~ size: pi R^2 / scale^2 = size
        R = math.sqrt(size * SQUARE_SCALE ** 2 / math.pi)
        sec, norm, change, resid = _FftSection(R, w, kind, N), 0.0, 0.0, 0.0
        # a one-point section is the zero operator: its norm is exactly 0
        if sec.size > 1 and p == 2.0:
            norm, change, resid = _top_singular_value(sec, seed)
        elif sec.size > 1:
            norm = sec.abs_sum_max(p)
        rows.append((sec.size, norm, change, resid))
    actual, norms, stags, resids = zip(*rows)
    return OperatorNormReport(op=kind if kind != "M" else f"M({N})", p=p,
                              sizes=actual, norms=norms, stagnations=stags,
                              residuals=resids)


# ---------------------------------------------------------------------------
# Kernel identity
# ---------------------------------------------------------------------------

def taylor_kernel_check(z: complex, L: complex, n: int) -> float:
    """Absolute discrepancy of the geometric-remainder identity

        1/(z-L) + 1/L + z/L^2 + ... + z^(n-1)/L^n = z^n / (L^n (z-L))

    (at perturbed points L = lambda - lambda').  Exact algebra, so the
    return value is pure rounding."""
    L, z = complex(L), complex(z)
    if L == 0:
        raise ValueError("L must be nonzero")
    if z == L:
        raise ValueError("z must differ from L")
    lhs = 1.0 / (z - L)
    zp = 1.0
    for j in range(1, n + 1):
        lhs += zp / L ** j
        zp *= z
    rhs = z ** n / (L ** n * (z - L))
    return abs(lhs - rhs)
