"""Principal-value summation engine and the discrete lattice transforms.

A principal value here always means the limit of partial sums over
|lambda| < R, realised as shell-by-shell accumulation in ascending shell
order with compensated (Kahan) carries: the sums are cancellation-heavy
(odd kernels vanish per shell on the square lattice) and may run over 1e5
terms.  Convergence at finite truncation is a verdict, not a certainty:
the last CAUCHY_WINDOW shell partials must agree to the relative tolerance
`rtol` (PV_RTOL unless the caller passes another), and one test,
`_window_test`, decides that on every path.

Which path runs follows from the lattice, with no knob:

* The shell path (`_shell_kernel`) turns a (rows x shells) matrix of
  per-shell sums into compensated partial-sum trajectories.  Lattice
  indices run in ascending radius order (`Lattice` enforces it), so the
  per-shell sums of a term matrix are one `np.add.reduceat` over the shell
  starts.  It serves explicit lattices, the scalar transforms that return
  whole `PvResult` trajectories, and the reconstruction sums of
  `interpolate`; the tests use it as the oracle.
* On the square lattice `batch_higher` and `batch_modified_inf` take the
  whole-disc total at every centre from one 2-D FFT correlation of the
  grid-embedded d with the order-n kernel (K(0) = 0), O(R^2 log R) instead
  of the O(R^4) term matrix.  The verdict needs only the last
  CAUCHY_WINDOW partials, and partial k is the total minus the sums over
  the shells beyond k.  Those few outer shells (a few dozen points) are
  summed directly, so the tail partials are exact up to rounding of the
  same order as the shell path's, and the window test sees the same
  numbers.  The modified p = inf kernel is the order-1 correlation minus
  sum_{lambda != 0} d_lambda/lambda plus d_lambda'/lambda'.

The same zero-padded FFT convolution (`_SquareGrid`) applies the operator
sections of the norm probes.  Its transforms skip the zero padding (only
the rows that hold data are transformed forward, only the output rows
backward), and real kernels (L, M(N), |K|) take real transforms on the
half spectrum.

Transforms acting on weighted sequences d (normally d = c/g'):

    higher n:  sum d_lambda / (lambda - lambda')^n   (n = 1 the discrete
               Cauchy transform, n = 2 the Beurling-Ahlfors one)
    modified:  -d_0/lambda' + sum d_lambda (1/(lambda-lambda') - 1/lambda)

plus the positive-kernel potentials L and M(N) and matrix-free operator
norm probes of their boundedness.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NumericalError
from .lattice import Lattice, ShellSchedule, grid_coords, shells_for, SQUARE_SCALE
from .weights import WeightProfile, phi, quasirandom, rho_many

__all__ = [
    "PV_RTOL",
    "PvResult",
    "SequenceData",
    "OperatorNormReport",
    "NecessityReport",
    "loglog_fit",
    "pv_sum",
    "higher_transform",
    "modified_cauchy_inf",
    "batch_higher",
    "batch_modified_inf",
    "potential_LM",
    "operator_matrix",
    "operator_norm_estimate",
    "taylor_kernel_check",
    "necessity_probe",
]

# terms per row block of the batch transforms (64 MB of complex terms)
_CHUNK_TERMS = 4_000_000
# inner centres lambda' of the trace conditions and the necessity probe lie
# in |lambda'| <= OUTER_GUARD_FRACTION * R, away from the truncation edge
OUTER_GUARD_FRACTION = 0.5


# The window test: a p.v. sum converged when its last CAUCHY_WINDOW shell
# partials lie within rtol times their largest modulus plus PV_ATOL.  Shells
# are always those of |lambda|: the limit definition sums over |lambda| < R
# even for transforms centred elsewhere.
PV_RTOL = 1e-9
PV_ATOL = 1e-15
CAUCHY_WINDOW = 5


def _shell_kernel(shell_sums: np.ndarray, rtol: float):
    """Compensated running totals of a (rows x shells) matrix of per-shell
    sums, written into that matrix in place.

    Returns (partials, converged, spread): partials is the overwritten
    matrix; converged and spread are `_window_test` of it.
    """
    total = np.zeros(shell_sums.shape[0], dtype=shell_sums.dtype)
    comp = np.zeros_like(total)
    for s in range(shell_sums.shape[1]):
        y = shell_sums[:, s] - comp
        t = total + y
        comp = (t - total) - y
        total = t
        shell_sums[:, s] = total
    return (shell_sums,) + _window_test(shell_sums, rtol)


def _window_test(partials: np.ndarray, rtol: float):
    """Cauchy test on the last CAUCHY_WINDOW columns of (rows x partials):
    (converged, spread), where a row converged when the largest pairwise
    gap `spread` of those partials is at most rtol times their largest
    modulus plus PV_ATOL."""
    tail = partials[:, -CAUCHY_WINDOW:]
    spread = np.max(np.abs(tail[:, :, None] - tail[:, None, :]), axis=(1, 2))
    scale = np.max(np.abs(tail), axis=1)
    return spread <= rtol * scale + PV_ATOL, spread


def loglog_fit(radii, values):
    """Least-squares slope of log(values) against log(radii), with its R^2,
    over the positive entries in the last decade of radii; None when fewer
    than four entries remain."""
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = (r >= r[-1] / 10.0) & (r > 0) & (v > 0)
    if keep.sum() < 4:
        return None
    x, y = np.log(r[keep]), np.log(v[keep])
    slope, icpt = np.polyfit(x, y, 1)
    res = y - (slope * x + icpt)
    ss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(res ** 2)) / ss if ss > 0 else 0.0
    return float(slope), r2


class PvResult:
    """Value and convergence diagnostics of one shell-ordered sum."""

    def __init__(self, value: complex, shell_partials: np.ndarray,
                 shell_radii: np.ndarray, converged: bool):
        self.value = value
        self.shell_partials = shell_partials
        self.shell_radii = shell_radii
        self.converged = converged

    def growth_exponent(self):
        """Fitted log-log slope of |partial| against shell radius over the
        last decade of radii, with its R^2; None when the data cannot
        support a fit.  Used to tell divergence from boundedness."""
        return loglog_fit(self.shell_radii, np.abs(self.shell_partials))


def pv_sum(schedule: ShellSchedule, terms: np.ndarray,
           rtol: float = PV_RTOL) -> PvResult:
    """Shell-ordered principal value of the sum of `terms`, an array over
    all lattice indices.  Non-convergence is a reported state, never an
    error."""
    values = np.asarray(terms, dtype=complex)
    partials, conv, _ = _shell_kernel(
        np.add.reduceat(values[None, :], schedule.starts, axis=1), rtol)
    return PvResult(value=complex(partials[0, -1]), shell_partials=partials[0],
                    shell_radii=schedule.radii, converged=bool(conv[0]))


class SequenceData:
    """A weighted sequence d over lattice indices with cached norms."""

    def __init__(self, lattice: Lattice, values: np.ndarray):
        self.lattice = lattice
        self.values = np.asarray(values, dtype=complex)
        self._norms = {}
        if self.values.shape != (len(lattice),):
            raise ValueError("sequence must cover every lattice index")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sequence entries must be finite")

    def norm(self, p: float, alpha: float = -1.0) -> float:
        """l^p norm of d_lambda * rho(lambda)^alpha."""
        key = (p, alpha)
        if key not in self._norms:
            wvals = np.abs(self.values) * self.lattice.rho_values ** alpha
            if math.isinf(p):
                self._norms[key] = float(wvals.max()) if len(wvals) else 0.0
            else:
                self._norms[key] = float(np.sum(wvals ** p) ** (1.0 / p))
        return self._norms[key]


def _zero_self(terms: np.ndarray, blk: np.ndarray, first: int):
    # terms spans the indices first.. ; zero each centre's own term
    rows = np.nonzero(blk >= first)[0]
    terms[rows, blk[rows] - first] = 0.0


def _higher_terms(lat: Lattice, d: SequenceData, blk, n: int, first: int = 0):
    """Rows d_lambda / (lambda - lambda')^n over the indices first.. for the
    centres lambda' = blk, with the centre's own term 0."""
    if n < 1:
        raise ValueError(f"transform order n={n} out of range")
    blk = np.asarray(blk, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = d.values[None, first:] / (lat.points[None, first:]
                                          - lat.points[blk, None]) ** n
    _zero_self(terms, blk, first)
    return terms


def _modified_terms(lat: Lattice, d: SequenceData, blk, first: int = 0):
    """Rows of the modified Cauchy kernel over the indices first.. for the
    nonzero centres blk."""
    blk = np.asarray(blk, dtype=int)
    centers = lat.points[blk]
    if np.any(centers == 0.0):
        raise ValueError("modified transform requires lambda' != 0")
    inv_lam = np.zeros(len(lat), dtype=complex)
    inv_lam[1:] = 1.0 / lat.points[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = d.values[None, first:] * (
            1.0 / (lat.points[None, first:] - centers[:, None]) - inv_lam[None, first:])
    _zero_self(terms, blk, first)
    if first == 0:
        terms[:, 0] = -d.values[0] / centers
    return terms


def _batch_values(lat: Lattice, indices, rtol: float, terms_of, totals):
    """Values and convergence flags of the p.v. sums with term rows
    terms_of(block, first) (over the indices first..) at the centres: from
    `_tail_partials` on the square lattice, and on explicit lattices
    through the shell kernel in blocks of at most _CHUNK_TERMS terms."""
    indices = np.asarray(indices, dtype=int)
    if lat.kind == "square":
        partials = _tail_partials(lat, indices, terms_of, totals)
        return partials[:, -1], _window_test(partials, rtol)[0]
    values = np.empty(len(indices), dtype=complex)
    converged = np.empty(len(indices), dtype=bool)
    starts = shells_for(lat).starts
    rows = max(1, _CHUNK_TERMS // len(lat))
    for i in range(0, len(indices), rows):
        shell_sums = np.add.reduceat(terms_of(indices[i:i + rows]), starts, axis=1)
        partials, conv, _ = _shell_kernel(shell_sums, rtol)
        values[i:i + rows], converged[i:i + rows] = partials[:, -1], conv
    return values, converged


def _tail_partials(lat: Lattice, indices: np.ndarray, terms_of,
                   totals) -> np.ndarray:
    """The last CAUCHY_WINDOW shell partials at the centres: the totals
    (from totals(indices), an FFT correlation) less the direct sums over
    the outer shells beyond each partial."""
    sched = shells_for(lat)
    k = min(CAUCHY_WINDOW, sched.n_shells) - 1
    first = int(sched.starts[-k]) if k > 0 else len(lat)
    outer = np.empty((len(indices), k), dtype=complex)
    rows = max(1, _CHUNK_TERMS // max(1, len(lat) - first))
    for i in range(0, len(indices), rows):
        # runs even without outer shells: terms_of validates its arguments
        terms = terms_of(indices[i:i + rows], first)
        if k > 0:
            outer[i:i + rows] = np.add.reduceat(terms, sched.starts[-k:] - first,
                                                axis=1)
    total = totals(indices)[:, None]
    beyond = np.cumsum(outer[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([total - beyond, total], axis=1)


def _correlate(lat: Lattice, d: SequenceData, n: int, indices) -> np.ndarray:
    """sum over lambda != lambda' of d_lambda / (lambda - lambda')^n at the
    centres lambda' = points[indices] of a square lattice: one FFT
    correlation of the grid-embedded d."""
    grid = _SquareGrid(lat.truncation_radius, lat.scale)
    ii, jj = (c.astype(int) + grid.M for c in grid_coords(lat.points, grid.scale))
    x = np.zeros(grid.points.shape, dtype=complex)
    x[ii, jj] = d.values
    # the kernel at offset lambda' - lambda
    kf = grid.fft(grid.kernel(lambda off: 1.0 / (-off) ** n))
    return grid.conv(kf, x)[ii[indices], jj[indices]]


def higher_transform(lat: Lattice, d: SequenceData, index: int, n: int,
                     rtol: float = PV_RTOL) -> PvResult:
    """p.v. sum of d_lambda / (lambda - lambda')^n at lambda' = points[index]:
    the discrete Cauchy transform for n = 1, Beurling-Ahlfors for n = 2.
    The rho(lambda')^(n-1) prefactor of the trace conditions is applied by
    the caller."""
    return pv_sum(shells_for(lat), _higher_terms(lat, d, [index], n)[0], rtol)


def modified_cauchy_inf(lat: Lattice, d: SequenceData, index: int,
                        rtol: float = PV_RTOL) -> PvResult:
    """-d_0/lambda' + p.v. sum over lambda not in {0, lambda'} of
    d_lambda (1/(lambda - lambda') - 1/lambda); the sup-norm counterpart of
    the Cauchy condition.  The kernel decays like |lambda'|/|lambda|^2, so
    bounded (rho^-1-weighted) data sums absolutely at fixed lambda'."""
    return pv_sum(shells_for(lat), _modified_terms(lat, d, [index])[0], rtol)


def batch_higher(lat: Lattice, d: SequenceData, indices: np.ndarray, n: int,
                 rtol: float = PV_RTOL):
    """Order-n transforms at many centers (vectorised higher_transform):
    arrays of values and convergence flags."""
    return _batch_values(lat, indices, rtol,
                         lambda blk, first=0: _higher_terms(lat, d, blk, n, first),
                         lambda idx: _correlate(lat, d, n, idx))


def batch_modified_inf(lat: Lattice, d: SequenceData, indices: np.ndarray,
                       rtol: float = PV_RTOL):
    """Vectorised modified_cauchy_inf over many nonzero centers."""
    def totals(idx):
        # the order-1 sum holds -d_0/lambda'; the -1/lambda halves of the
        # other terms are sum_{lambda != 0} d_lambda/lambda less the centre's
        c = np.sum(d.values[1:] / lat.points[1:])
        return _correlate(lat, d, 1, idx) - c + d.values[idx] / lat.points[idx]

    return _batch_values(lat, indices, rtol,
                         lambda blk, first=0: _modified_terms(lat, d, blk, first),
                         totals)


def potential_LM(lat: Lattice, d: SequenceData, mode: str, index: int,
                 N: Optional[int] = None, t: Optional[float] = None) -> complex:
    """Positive-kernel potentials (dense summation, no p.v. needed):

        L:    sum d~_lambda rho(lambda) rho(lambda')^2 / |lambda'-lambda|^3
        M(N): sum d~_lambda rho(lambda) rho(lambda')^N / |lambda'-lambda|^(N+1)

    Mode M enforces N > 1/t when the doubling exponent t is supplied.  The
    kernel is row `index` of `operator_matrix`.
    """
    if mode not in ("L", "M"):
        raise ValueError("mode must be 'L' or 'M'")
    if mode == "M":
        if N is None:
            raise ValueError("mode M needs the order N")
        if t is not None and N <= 1.0 / t:
            raise ValueError(f"mode M requires N > 1/t (N={N}, 1/t={1.0 / t:.3f})")
    mask = np.arange(len(lat)) != index
    out_w, in_w = _op_weights(mode, lat.rho_values, N)
    kern = out_w[index] * in_w[mask] * _op_kernel(mode, lat.points[mask] - lat.points[index], N)
    return complex(np.sum(d.values[mask] * kern))


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

    @property
    def growth_ratio(self) -> float:
        return self.norms[-1] / self.norms[0]


def _op_weights(kind: str, rho_vals: np.ndarray, N: int):
    # (output diagonal, input diagonal) of the weighted matrix form
    if kind == "B":
        return rho_vals, rho_vals
    if kind == "L":
        return rho_vals ** 2, rho_vals
    if kind == "M":
        return rho_vals ** N, rho_vals
    raise ValueError("operator must be 'B', 'L' or 'M'")


def _op_kernel(kind: str, diffs: np.ndarray, N: int) -> np.ndarray:
    if kind == "B":
        return 1.0 / diffs ** 2
    if kind == "L":
        return 1.0 / np.abs(diffs) ** 3
    return 1.0 / np.abs(diffs) ** (N + 1)


def operator_matrix(lat: Lattice, w: WeightProfile, kind: str,
                    N: int = 2) -> np.ndarray:
    """Dense weighted matrix of the operator section on the lattice
    (B carries the l^p(rho^-1) -> l^p(rho) conjugation; diagonal is 0)."""
    out_w, in_w = _op_weights(kind, lat.rho_values, N)
    diffs = lat.points[:, None] - lat.points[None, :]
    np.fill_diagonal(diffs, 1.0)
    K = _op_kernel(kind, diffs, N) * out_w[:, None] * in_w[None, :]
    np.fill_diagonal(K, 0.0)
    return K


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

    def conv(self, kf: np.ndarray, x: np.ndarray) -> np.ndarray:
        """K * x on the grid, for kf = fft(K); real when K and x are."""
        M, n = self.M, self._n
        real = kf.shape[1] != n          # a real K has the half spectrum
        if not real:
            x = np.asarray(x, dtype=complex)
        elif np.iscomplexobj(x):
            return self.conv(kf, x.real) + 1j * self.conv(kf, x.imag)
        rows = np.fft.ifft(kf * self.fft(x), axis=0)[2 * M:4 * M + 1]
        out = np.fft.irfft(rows, n=n, axis=1) if real else np.fft.ifft(rows, axis=1)
        return out[:, 2 * M:4 * M + 1]


class _FftSection:
    """Matrix-free section of a translation-invariant kernel with diagonal
    weights on a disc of the square lattice.  Every kernel (B, L, M(N) and
    |K|) is even on the offset grid and the weights are real, so the
    adjoint applies K itself.  Each kernel FFT is built on first use: p = 2
    reads K, p = 1 and inf only |K|.  The L and M(N) kernels are real
    (`real`), and so is their whole arithmetic on real vectors."""

    def __init__(self, R: float, w: WeightProfile, kind: str, N: int,
                 scale: float = SQUARE_SCALE):
        self.grid = _SquareGrid(R, scale)
        lam = self.grid.points
        self.mask = np.abs(lam) <= R
        self.size = int(self.mask.sum())
        # the weights vanish off the disc, where rho is never evaluated
        self.out_w, self.in_w = np.zeros((2,) + lam.shape)
        self.out_w[self.mask], self.in_w[self.mask] = _op_weights(
            kind, rho_many(w, lam[self.mask]), N)
        self._kern = self.grid.kernel(lambda d: _op_kernel(kind, d, N))
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


def _top_singular_value(sec: _FftSection, seed: int, steps: int = 50,
                        tol: float = 1e-8):
    """(theta, change): the section's largest singular value by one
    Golub-Kahan-Lanczos run (Golub & Van Loan, Matrix Computations, 10.4)
    and its last relative change.  The start is `quasirandom` offset by
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
    Stops at `steps`, residual <= tol theta or change <= tol; at the cap
    NumericalError if both exceed 1e-3."""
    start = quasirandom(sec.size, seed)
    v = np.zeros(sec.mask.shape, dtype=float if sec.real else complex)
    v[sec.mask] = start[:, 0] if sec.real else start[:, 0] + 1j * start[:, 1]
    v /= np.linalg.norm(v)
    # the weights vanish off the disc, so the iterates stay masked
    u, beta, theta, prev = 0.0, 0.0, 0.0, np.zeros(0)
    alphas, betas = [], []
    for _ in range(steps):
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
        if resid <= tol or change <= tol:
            return theta, change
        v /= beta
    if not (resid <= 1e-3 or change <= 1e-3):
        raise NumericalError(f"bidiagonalisation did not converge in {steps} "
                             f"steps (residual {resid:.1e}, change {change:.1e})")
    return theta, change


def operator_norm_estimate(kind: str, sizes: Sequence[int], p: float,
                           w: WeightProfile, N: int = 2,
                           seed: int = 0) -> OperatorNormReport:
    """Operator norms of B, L or M(N) across nested square-lattice sizes.

    p=1 and p=inf are the exact max weighted column/row sums.  p=2 is a
    lower bound on the largest singular value by Golub-Kahan-Lanczos from
    the quasirandom start offset by `seed` (`_top_singular_value`: at most
    50 steps, to a relative Ritz residual or change of 1e-8; that change is
    in `stagnations`).  Sections are matrix-free FFT convolutions."""
    if p not in (1.0, 2.0) and not math.isinf(p):
        raise ValueError("operator norms support p in {1, 2, inf}")
    sizes = sorted(int(s) for s in sizes)
    if len(sizes) == 0 or sizes[0] < 1:
        raise ValueError("sizes must be positive and ascending")
    rows = []
    for size in sizes:
        # radius with expected count ~ size: pi R^2 / scale^2 = size
        R = math.sqrt(size * SQUARE_SCALE ** 2 / math.pi)
        change = 0.0
        if size == 1:
            n_pts, norm = 1, 0.0
        else:
            sec = _FftSection(R, w, kind, N)
            n_pts = sec.size
            if p == 2.0:
                norm, change = _top_singular_value(sec, seed)
            else:
                norm = sec.abs_sum_max(p)
        rows.append((n_pts, norm, change))
    actual, norms, stags = zip(*rows)
    return OperatorNormReport(op=kind if kind != "M" else f"M({N})", p=p,
                              sizes=actual, norms=norms, stagnations=stags)


# ---------------------------------------------------------------------------
# Kernel identity and the perturbed-point probe
# ---------------------------------------------------------------------------

def taylor_kernel_check(z: complex, lam: complex, lam_prime: complex = 0.0,
                        n: int = 2) -> float:
    """Absolute discrepancy of the geometric-remainder identity

        1/(z-L) + 1/L + z/L^2 + ... + z^(n-1)/L^n = z^n / (L^n (z-L))

    with L = lam - lam_prime (the translated variant used at perturbed
    points).  Exact algebra, so the return value is pure rounding."""
    L = complex(lam) - complex(lam_prime)
    z = complex(z)
    if L == 0:
        raise ValueError("lambda must differ from lambda'")
    if z == L:
        raise ValueError("z must differ from lambda - lambda'")
    lhs = 1.0 / (z - L)
    zp = 1.0
    for j in range(1, n + 1):
        lhs += zp / L ** j
        zp *= z
    rhs = z ** n / (L ** n * (z - L))
    return abs(lhs - rhs)


class NecessityReport:
    """Comparison of condition sums recovered from perturbed-point samples
    against directly computed transforms."""

    def __init__(self, delta: float, N: int, indices: np.ndarray,
                 sample_norms: dict, recovered: dict, direct: dict,
                 max_discrepancy: dict):
        self.delta = delta
        self.N = N
        self.indices = indices
        self.sample_norms = sample_norms       # k -> l^p norm (or sup) of f/g samples
        self.recovered = recovered             # n -> complex array over indices
        self.direct = direct                   # n -> complex array over indices
        self.max_discrepancy = max_discrepancy # n -> float

    @property
    def worst(self) -> float:
        return max(self.max_discrepancy.values())


def necessity_probe(lat: Lattice, m, f: Callable, p: float, delta: float,
                    N: int, rtol: float = PV_RTOL) -> NecessityReport:
    """Sample f/g at the N rotated points lambda' + delta w_k rho(lambda')
    (w_k the N-th roots of unity) and reconstruct each condition-(n) sum
    from the sample family.

    The underlying identity (for f in the space, evaluated at z = z_k):

        sum_{n=1..N} zeta^(n-1) S_n(lambda')
            = d_lambda'/zeta + R_k(lambda') - f(z_k)/g(z_k),

    zeta = delta w_k rho(lambda'), S_n the p.v. transform of order n, and
    R_k the absolutely convergent N-th order remainder.  Averaging against
    w_k^-(n-1) isolates S_n; agreement with the directly computed
    transforms is reported per order.
    """
    if not (0.0 < delta < lat.delta_sep / 2.0):
        raise ValueError("delta must lie in (0, delta_sep/2)")
    if N < 1:
        raise ValueError("N must be at least 1")
    guard = OUTER_GUARD_FRACTION * lat.truncation_radius
    indices = np.nonzero(lat.radii <= guard)[0]
    pts = lat.points
    rho_v = lat.rho_values

    # trace data d = f|Lambda / g'
    f_lam = _eval_f(f, pts)
    d_vals = f_lam * np.exp(-phi(m.weight, pts)) / m.g_prime_weighted()
    d = SequenceData(lattice=lat, values=d_vals)

    direct = {n: batch_higher(lat, d, indices, n, rtol)[0] for n in range(1, N + 1)}

    omega = np.exp(2j * math.pi * np.arange(N) / N)
    A = np.zeros((N, len(indices)), dtype=complex)
    rows = max(1, _CHUNK_TERMS // len(lat))
    sample_norms = {}
    for k in range(N):
        zk = pts[indices] + delta * omega[k] * rho_v[indices]
        fg = _eval_f(f, zk) * np.exp(-m.log_g(zk))
        if math.isinf(p):
            sample_norms[k] = float(np.max(np.abs(fg)))
        else:
            sample_norms[k] = float(np.sum(np.abs(fg) ** p) ** (1.0 / p))
        zeta = delta * omega[k] * rho_v[indices]
        # remainder: sum over lambda != lambda' of
        # d_lambda zeta^N / ((lambda - lambda')^N (z_k - lambda))
        rem = np.empty(len(indices), dtype=complex)
        for i in range(0, len(indices), rows):
            sl = slice(i, i + rows)
            rem[sl] = np.sum(_higher_terms(lat, d, indices[sl], N)
                             * (zeta[sl, None] ** N / (zk[sl, None] - pts[None, :])),
                             axis=1)
        A[k] = d.values[indices] / zeta + rem - fg

    recovered = {}
    discrepancy = {}
    for n in range(1, N + 1):
        coef = np.mean(A * omega[:, None] ** (-(n - 1)), axis=0)
        recovered[n] = coef / (delta * rho_v[indices]) ** (n - 1)
        discrepancy[n] = float(np.max(np.abs(recovered[n] - direct[n])))
    return NecessityReport(delta=delta, N=N, indices=indices,
                           sample_norms=sample_norms, recovered=recovered,
                           direct=direct, max_discrepancy=discrepancy)


def _eval_f(f: Callable, z: np.ndarray) -> np.ndarray:
    """Evaluate a user function on an array, vectorised when it supports it."""
    try:
        out = np.asarray(f(z), dtype=complex)
        if out.shape == z.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.asarray([complex(f(zz)) for zz in z])
