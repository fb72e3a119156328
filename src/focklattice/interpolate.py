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
The kernel sums are the p.v. engine's own order-1 and modified rows of
the array d (`TraceData.d`), centred at z, each the total less its outer
shells (`transforms._tail_partials`); the engine has no other summation
path.  Every off-lattice z is deflated at its nearest lattice point: the
pole term joins g(z)/(z - lambda), which `Multiplier.log_g_deflated`
gives stably at any distance.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .classifier import TraceData, shell_trajectory, trajectory_margins
from .errors import NumericalError
from .lattice import nearest_index, shells_for
from .transforms import (PV_RTOL, _higher_terms, _modified_terms,
                         _tail_partials, _window_test)
# rho_many is unused here, but perfbench's tracer wraps it under this
# module's name (focklattice.interpolate:rho_many) and cannot install without it
from .weights import loglog_fit, phi, rho_many

__all__ = [
    "Interpolant",
    "reconstruct",
    "verify_interpolation",
]

_ON_FACTOR = 1e-8


def _eval_core(I: "Interpolant", z, weighted: bool):
    """f(z), or f(z) e^{-phi(z)} when weighted, deflated at the nearest
    lattice point lambda_k of every off-lattice z:

        f(z) = [g(z)/(z - lambda_k)] (d_k + (z - lambda_k) S_k),

    S_k the kernel sum without the pole term of lambda_k: minus the
    order-1 rows of `_higher_terms` at finite p, and w0 + d_k/lambda_k
    (0 for k = 0) minus the `_modified_terms` rows at p = inf."""
    data = I.data
    lat = data.lattice
    d = data.d
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(zarr.shape, dtype=complex)

    nearest, dmin = nearest_index(lat, zarr)
    on = dmin <= _ON_FACTOR * lat.scale
    if on.any():
        cw = data.c_weighted[nearest[on]]
        if weighted:
            # c_lambda e^{-phi(z)} with z == lambda to rounding
            out[on] = cw
        else:
            out[on] = cw * np.exp(phi(data.weight, lat.points[nearest[on]]))

    off = ~on
    if off.any():
        zs, k = zarr[off], nearest[off]
        if I.w0 is None:
            rows = lambda r, first: _higher_terms(lat, d, zs[r], k[r], 1, first)
        else:
            rows = lambda r, first: _modified_terms(lat, d, zs[r], k[r], first)
        partials = _tail_partials(lat, len(zs), rows)
        conv, spread = _window_test(partials, I.rtol)
        if not conv.all():
            _check_summable(data, zs, rows, spread)
        s = -partials[:, -1]
        if I.w0 is not None:
            s += I.w0 + np.divide(d[k], lat.points[k], out=np.zeros(len(k), complex),
                                  where=k > 0)
        shift = phi(data.weight, zs) if weighted else 0.0
        out[off] = (np.exp(data.multiplier.log_g_deflated(zs, k) - shift)
                    * (d[k] + (zs - lat.points[k]) * s))
    return complex(out[0]) if np.ndim(z) == 0 else out


def _check_summable(data: TraceData, zs: np.ndarray, rows, spread: np.ndarray):
    """Raise NumericalError for a failed Cauchy criterion unless
    sum |d_lambda| / |z - lambda| converges: the far-field kernel scales
    like 1/|lambda|, so the shell trajectory of |d|/(1+|lambda|) must
    flatten.  When it does, the failure is tolerance noise rather than
    divergence.  The error carries the growth exponent of the worst
    centre's trajectory: the running sums of its term row rows(r, 0) over
    the shells."""
    lat = data.lattice
    per = np.abs(data.d) / (1.0 + lat.radii)
    if trajectory_margins(*shell_trajectory(lat, per, 1.0)).verdict == "bounded":
        return
    worst = int(np.argmax(spread))
    sched = shells_for(lat)
    partials = np.cumsum(np.add.reduceat(rows(slice(worst, worst + 1), 0)[0],
                                         sched.starts))
    fit = loglog_fit(sched.radii, np.abs(partials))
    why = "trajectory too short to fit" if fit is None \
        else f"growth exponent ~ {fit[0]:.3f}"
    raise NumericalError("principal value did not converge at z = "
                         f"{complex(zs[worst]):.6g} ({why})")


def reconstruct(data: TraceData, z):
    """Value at z of the interpolant of `data` (w0 = 0 at p = inf; p.v.
    tolerance PV_RTOL, which `Interpolant` takes as rtol).

    On-lattice queries return c_lambda directly; other points inside the
    guard band evaluate the kernel sum deflated at the nearest lattice
    point.  Non-convergence of the principal value raises NumericalError
    carrying the fitted growth exponent."""
    return Interpolant(data).eval(z)


class Interpolant:
    """Evaluator for one reconstruction; immutable and shareable.

    The formula follows data.p.  The free parameter w0 belongs to the
    p = inf representation only (ValueError at finite p); a missing w0
    defaults to 0 and flags the output as one representative of the
    family f + C g."""

    def __init__(self, data: TraceData, w0: Optional[complex] = None,
                 rtol: float = PV_RTOL):
        inf = math.isinf(data.p)
        if w0 is not None and not inf:
            raise ValueError("w0 belongs to the p = inf representation")
        self.data = data
        self.mode = "infinity" if inf else "finite_p"
        self.w0 = (0.0 if w0 is None else complex(w0)) if inf else None
        self.rtol = rtol
        self.representative_only = inf and w0 is None

    def eval(self, z):
        return _eval_core(self, z, weighted=False)

    def eval_weighted(self, z):
        return _eval_core(self, z, weighted=True)


def verify_interpolation(I: Interpolant, max_points: int) -> float:
    """Max weighted interpolation residual over at most max_points
    guard-band lattice points, spread evenly over their index range.

    The evaluator is sampled at lambda + 0.05 rho(lambda) in four directions
    and averaged, which cancels the first three Taylor terms and avoids the
    removable structure at the lattice point itself."""
    data = I.data
    lat = data.lattice
    idx = np.nonzero(lat.radii <= lat.guard_radius())[0]
    if len(idx) > max_points:
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
