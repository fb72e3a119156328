"""Reconstruction of the interpolating function from lattice values.

Finite p:    f(z) = g(z) * p.v. sum over lambda of d_lambda / (z - lambda)
p = inf:     f(z) = g(z) * [w0 + d_0/z
                            + p.v. sum_{lambda != 0} d_lambda (1/(z-lambda) + 1/lambda)]

with d = c/g'.  For p = 1 data the finite-p sum converges absolutely and
the principal value is vacuous.  The p = inf representation determines f
only modulo constant multiples of g: two choices of the free parameter w0
differ by (w0 - w0') g(z) exactly, and w0 itself is recoverable from a
function via w0 = f'(0)/g'(0) - g''(0)/(2 g'(0)).

Evaluation happens in weighted space (values times e^{-phi}) wherever
magnitudes can reach e^{phi}; raw outputs are restricted to the guard band.
Within 1e-3 rho of a lattice point the leading kernel term is folded into
the deflated factor g(z)/(z - lambda) to avoid 0/0 amplification.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .classifier import TraceData, shell_trajectory, trajectory_margins
from .errors import NumericalError
from .lattice import nearest_index, shells_for
from .multiplier import Multiplier
from .transforms import PV_RTOL, _shell_kernel, loglog_fit
# rho_many is unused here, but perfbench's tracer wraps it under this
# module's name (focklattice.interpolate:rho_many) and cannot install without it
from .weights import phi, rho_many

__all__ = [
    "Interpolant",
    "reconstruct",
    "reconstruct_inf",
    "make_interpolant",
    "w0_from",
    "verify_interpolation",
]

_NEAR_FACTOR = 1e-3
_ON_FACTOR = 1e-8


def _kernel_shell_sums(data: TraceData, z: np.ndarray, excl: np.ndarray,
                       mode: str, w0: complex):
    """(len(z) x shells) matrix of per-shell sums of the reconstruction
    kernel at each z, built shell by shell.

    The term of index excl[j] (-1: none) loses its 1/(z - lambda) half at
    z[j]; the deflated factor g(z)/(z - lambda) carries it instead.  In
    p = inf mode the +1/lambda half and w0 stay.
    """
    lat = data.lattice
    d = data.d.values
    pts = lat.points
    sched = shells_for(lat)
    out = np.empty((len(z), sched.n_shells), dtype=complex)
    bounds = np.append(sched.starts, len(lat))
    for s, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if mode == "inf" and s == 0:
            # the origin shell holds the origin alone
            out[:, 0] = w0 + np.where(excl == 0, 0.0, d[0] / z)
            continue
        lam, dm = pts[a:b], d[a:b]
        if mode == "finite":
            block = dm[None, :] / (z[:, None] - lam[None, :])
        else:
            block = dm[None, :] * (1.0 / (z[:, None] - lam[None, :]) + 1.0 / lam[None, :])
        rows = np.nonzero((excl >= a) & (excl < b))[0]
        k = excl[rows] - a
        block[rows, k] = 0.0 if mode == "finite" else dm[k] / lam[k]
        out[:, s] = np.sum(block, axis=1)
    return out


def _eval_core(data: TraceData, z, mode: str, w0: complex,
               rtol: float, weighted: bool):
    lat = data.lattice
    m = data.multiplier
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(zarr.shape, dtype=complex)

    # classify points: on-lattice / near-lattice / regular
    nearest, dmin = nearest_index(lat, zarr)
    on = dmin <= _ON_FACTOR * lat.scale
    near = (~on) & (dmin <= _NEAR_FACTOR * lat.rho_values[nearest])

    if on.any():
        cw = data.c_weighted[nearest[on]]
        if weighted:
            # c_lambda e^{-phi(z)} with z == lambda to rounding
            out[on] = cw
        else:
            out[on] = cw * np.exp(phi(data.weight, lat.points[nearest[on]]))

    off = ~on
    if off.any():
        zs = zarr[off]
        excl = np.where(near[off], nearest[off], -1)
        partials, conv, spread = _shell_kernel(
            _kernel_shell_sums(data, zs, excl, mode, w0), rtol)
        if not conv.all():
            _check_summable(data, zs, partials, spread)
        shift = phi(data.weight, zs) if weighted else np.zeros(zs.shape)
        vals = np.exp(m.log_g(zs) - shift) * partials[:, -1]
        nr = excl >= 0
        if nr.any():
            # the folded lead term d_lambda g(z)/(z - lambda)
            log_defl = m.log_g_deflated(zs[nr], excl[nr])
            vals[nr] += np.exp(log_defl - shift[nr]) * data.d.values[excl[nr]]
        out[off] = vals
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return complex(out[0])
    return out


def _check_summable(data: TraceData, zs: np.ndarray, partials: np.ndarray,
                    spread: np.ndarray):
    """Raise NumericalError for a failed Cauchy criterion unless
    sum |d_lambda| / |z - lambda| converges: the far-field kernel scales
    like 1/|lambda|, so the shell trajectory of |d|/(1+|lambda|) must
    flatten.  When it does, the failure is tolerance noise rather than
    divergence."""
    lat = data.lattice
    per = np.abs(data.d.values) / (1.0 + lat.radii)
    if trajectory_margins(*shell_trajectory(lat, per, 1.0)).verdict == "bounded":
        return
    worst = int(np.argmax(spread))
    fit = loglog_fit(shells_for(lat).radii, np.abs(partials[worst]))
    why = "trajectory too short to fit" if fit is None \
        else f"growth exponent ~ {fit[0]:.3f}"
    raise NumericalError("principal value did not converge at z = "
                         f"{complex(zs[worst]):.6g} ({why})")


def reconstruct(data: TraceData, z, rtol: float = PV_RTOL):
    """Value of the reconstructed interpolant at z (finite-p formula).

    On-lattice queries return c_lambda directly; points inside the guard
    band evaluate g(z) times the shell-ordered kernel sum, deflating the
    nearest factor within 1e-3 rho of the lattice.  Non-convergence of the
    principal value raises NumericalError carrying the fitted growth
    exponent."""
    return _eval_core(data, z, "finite", 0.0, rtol, weighted=False)


class Interpolant:
    """Evaluator for one reconstruction; immutable and shareable."""

    def __init__(self, data: TraceData, mode: str, w0: Optional[complex] = None,
                 rtol: float = PV_RTOL, representative_only: bool = False):
        self.data = data
        self.mode = mode                   # "finite_p" | "infinity"
        self.w0 = w0
        self.rtol = rtol
        # w0 defaulted: one member of f + C g
        self.representative_only = representative_only

    def eval(self, z):
        w0 = self.w0 if self.w0 is not None else 0.0
        kind = "finite" if self.mode == "finite_p" else "inf"
        return _eval_core(self.data, z, kind, w0, self.rtol, weighted=False)

    def eval_weighted(self, z):
        w0 = self.w0 if self.w0 is not None else 0.0
        kind = "finite" if self.mode == "finite_p" else "inf"
        return _eval_core(self.data, z, kind, w0, self.rtol, weighted=True)


def make_interpolant(data: TraceData, rtol: float = PV_RTOL) -> Interpolant:
    if math.isinf(data.p):
        raise ValueError("finite-p interpolant requested for p = inf data")
    return Interpolant(data=data, mode="finite_p", rtol=rtol)


def reconstruct_inf(data: TraceData, w0: Optional[complex] = None,
                    rtol: float = PV_RTOL) -> Interpolant:
    """Interpolant from the p = inf representation with free parameter w0.

    A missing w0 defaults to 0 and flags the output as one representative
    of the family f + C g."""
    if not math.isinf(data.p):
        raise ValueError("reconstruct_inf requires p = inf data")
    return Interpolant(data=data, mode="infinity",
                       w0=0.0 if w0 is None else complex(w0), rtol=rtol,
                       representative_only=w0 is None)


def w0_from(f: Callable, m: Multiplier) -> complex:
    """Free parameter of the p = inf representation for a concrete f:
    w0 = f'(0)/g'(0) - g''(0)/(2 g'(0)).

    f'(0) comes from Richardson-extrapolated central differences with step
    h = 1e-5 * rho(0); the extrapolation at two step sizes must agree
    or NumericalError is raised.  g''(0) must be known (0 for the builtin
    sigma by oddness); user tables without it cannot use this helper."""
    if m.g_double_prime0 is None:
        raise NumericalError("g''(0) unknown: w0 must be treated as a free "
                             "parameter for this multiplier")
    h = 1e-5 * float(m.lattice.rho_values[0])

    def central(hh: float) -> complex:
        return (complex(f(hh)) - complex(f(-hh))) / (2.0 * hh)

    def richardson(hh: float) -> complex:
        return (4.0 * central(hh / 2.0) - central(hh)) / 3.0

    r1, r2 = richardson(h), richardson(h / 2.0)
    scale = max(abs(r1), abs(r2), 1e-12)
    if abs(r1 - r2) > 1e-5 * scale:
        raise NumericalError(
            f"derivative estimate unstable: {abs(r1 - r2) / scale:.2e} relative")
    g1 = m.g_prime(0)
    return r2 / g1 - complex(m.g_double_prime0) / (2.0 * g1)


def verify_interpolation(I: Interpolant,
                         max_points: Optional[int] = None) -> float:
    """Max weighted interpolation residual over guard-band lattice points.

    The evaluator is sampled at lambda + 0.05 rho(lambda) in four directions
    and averaged, which cancels the first three Taylor terms and avoids the
    removable structure at the lattice point itself."""
    data = I.data
    lat = data.lattice
    idx = np.nonzero(lat.radii <= lat.guard_radius())[0]
    if max_points is not None and len(idx) > max_points:
        idx = idx[np.linspace(0, len(idx) - 1, max_points).astype(int)]
    if len(idx) == 0:
        return 0.0
    lam = lat.points[idx]
    zs = lam[:, None] + 0.05 * lat.rho_values[idx, None] * np.asarray([1.0, 1j, -1.0, -1j])
    vals = I.eval_weighted(zs.ravel()).reshape(zs.shape)
    # rescale each sample from e^{-phi(z)} to e^{-phi(lambda)}
    adj = np.exp(np.asarray(phi(data.weight, zs), dtype=float)
                 - np.asarray(phi(data.weight, lam), dtype=float)[:, None])
    avg = np.mean(vals * adj, axis=1)
    return float(np.max(np.abs(avg - data.c_weighted[idx])))
