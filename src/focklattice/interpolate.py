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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .classifier import TraceData
from .errors import NumericalError
from .lattice import GridSpec, shells_for
from .multiplier import Multiplier
from .transforms import DEFAULT_PV, PvConfig
from .weights import phi, rho_many

__all__ = [
    "Interpolant",
    "NormEstimate",
    "reconstruct",
    "reconstruct_inf",
    "make_interpolant",
    "w0_from",
    "verify_interpolation",
    "weighted_norm",
]

_NEAR_FACTOR = 1e-3
_ON_FACTOR = 1e-8


def _pv_kernel_sum(data: TraceData, z: np.ndarray, mode: str,
                   w0: complex, cfg: PvConfig):
    """Shell-ordered compensated sum of the reconstruction kernel at each z.

    Returns (sums, converged, tail) without materialising the full shell
    trajectory; diagnosis of a non-convergent point is re-run separately.
    """
    lat = data.lattice
    d = data.d.values
    sched = shells_for(lat)
    pts = lat.points
    total = np.zeros(z.shape, dtype=complex)
    comp = np.zeros(z.shape, dtype=complex)
    window = []
    for members in sched.members:
        lam = pts[members]
        dm = d[members]
        if mode == "finite":
            contrib = np.sum(dm[None, :] / (z[:, None] - lam[None, :]), axis=1)
        else:
            orig = np.abs(lam) == 0.0
            if orig.any():
                contrib = w0 + dm[orig][0] / z
                lam2, dm2 = lam[~orig], dm[~orig]
            else:
                contrib = np.zeros(z.shape, dtype=complex)
                lam2, dm2 = lam, dm
            if len(lam2):
                contrib = contrib + np.sum(
                    dm2[None, :] * (1.0 / (z[:, None] - lam2[None, :])
                                    + 1.0 / lam2[None, :]), axis=1)
        y = contrib - comp
        t = total + y
        comp = (t - total) - y
        total = t
        window.append(total.copy())
        if len(window) > cfg.cauchy_window:
            window.pop(0)
    stack = np.stack(window)
    spread = np.max(np.abs(stack[:, None, :] - stack[None, :, :]), axis=(0, 1))
    scale = np.max(np.abs(stack), axis=0)
    converged = spread <= cfg.rtol * scale + cfg.atol
    return total, converged, spread


def _diagnose_growth(data: TraceData, z: complex, mode: str, w0: complex) -> str:
    lat = data.lattice
    sched = shells_for(lat)
    d = data.d.values
    partials, total = [], 0.0 + 0.0j
    for members in sched.members:
        lam = lat.points[members]
        dm = d[members]
        if mode == "finite":
            total += complex(np.sum(dm / (z - lam)))
        else:
            orig = np.abs(lam) == 0.0
            if orig.any():
                total += w0 + complex(dm[orig][0]) / z
                lam, dm = lam[~orig], dm[~orig]
            if len(lam):
                total += complex(np.sum(dm * (1.0 / (z - lam) + 1.0 / lam)))
        partials.append(abs(total))
    r = sched.radii
    a = np.asarray(partials)
    keep = (r >= r[-1] / 10.0) & (a > 0)
    if keep.sum() >= 4:
        slope = float(np.polyfit(np.log(r[keep]), np.log(a[keep]), 1)[0])
        return f"growth exponent ~ {slope:.3f}"
    return "trajectory too short to fit"


def _eval_core(data: TraceData, z, mode: str, w0: complex,
               cfg: PvConfig, weighted: bool, strict: bool = True):
    lat = data.lattice
    m = data.multiplier
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(zarr.shape, dtype=complex)

    # classify points: on-lattice / near-lattice / regular
    dmin = np.full(zarr.shape, np.inf)
    nearest = np.zeros(zarr.shape, dtype=int)
    for i in range(0, len(lat.points), 2048):
        blk = lat.points[i:i + 2048]
        dist = np.abs(zarr[:, None] - blk[None, :])
        j = np.argmin(dist, axis=1)
        better = dist[np.arange(len(zarr)), j] < dmin
        dmin[better] = dist[np.arange(len(zarr)), j][better]
        nearest[better] = i + j[better]
    rho_near = lat.rho_values[nearest]
    on = dmin <= _ON_FACTOR * lat.scale
    near = (~on) & (dmin <= _NEAR_FACTOR * rho_near)
    reg = ~(on | near)

    if on.any():
        cw = data.c_weighted[nearest[on]]
        if weighted:
            # c_lambda e^{-phi(z)} with z == lambda to rounding
            out[on] = cw
        else:
            out[on] = cw * np.exp(phi(data.weight, lat.points[nearest[on]]))

    if reg.any():
        zs = zarr[reg]
        sums, conv, spread = _pv_kernel_sum(data, zs, mode, w0, cfg)
        bad = ~conv
        if strict and bad.any() and not _absolutely_summable(data):
            zb = complex(zs[np.argmax(spread)])
            raise NumericalError(
                "principal value did not converge at z = "
                f"{zb:.6g} ({_diagnose_growth(data, zb, mode, w0)})")
        logg = m.log_g(zs)
        expo = logg - phi(data.weight, zs) if weighted else logg
        out[reg] = np.exp(expo) * sums

    if near.any():
        for k in np.nonzero(near)[0]:
            out[k] = _eval_deflated(data, complex(zarr[k]), int(nearest[k]),
                                    mode, w0, cfg, weighted)
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return complex(out[0])
    return out


def _absolutely_summable(data: TraceData) -> bool:
    """Whether sum |d_lambda| / |z - lambda| converges: the far-field kernel
    scales like 1/|lambda|, so the shell trajectory of |d|/(1+|lambda|) must
    flatten.  When it does, a failed Cauchy criterion on the principal value
    is tolerance noise rather than divergence."""
    from .classifier import trajectory_verdict
    lat = data.lattice
    sched = shells_for(lat)
    per = np.abs(data.d.values) / (1.0 + np.abs(lat.points))
    flat = sched.flat_indices()
    starts = np.concatenate([[0], sched.boundaries()[:-1]])
    cum = np.cumsum(np.add.reduceat(per[flat], starts))
    verdict, _ = trajectory_verdict(sched.radii, cum)
    return verdict == "bounded"


def _eval_deflated(data: TraceData, z: complex, idx: int, mode: str,
                   w0: complex, cfg: PvConfig, weighted: bool) -> complex:
    """Near lattice point idx: fold the singular kernel term into the
    deflated factor g(z)/(z - lambda)."""
    lat = data.lattice
    m = data.multiplier
    d = data.d.values
    lam = complex(lat.points[idx])
    zs = np.asarray([z], dtype=complex)
    log_defl = m.log_g_deflated(zs, idx)[0]
    logg = m.log_g(zs)[0]
    shift = phi(data.weight, z) if weighted else 0.0

    othr = np.arange(len(lat)) != idx
    pts, dm = lat.points[othr], d[othr]
    if mode == "finite":
        rest = complex(np.sum(dm / (z - pts)))
        lead = d[idx]
    else:
        if idx == 0:
            rest = w0 + complex(np.sum(dm[np.abs(pts) > 0]
                                       * (1.0 / (z - pts[np.abs(pts) > 0])
                                          + 1.0 / pts[np.abs(pts) > 0])))
            lead = d[0]
        else:
            orig = np.abs(pts) == 0.0
            rest = w0 + d[0] / z + complex(
                np.sum(dm[~orig] * (1.0 / (z - pts[~orig]) + 1.0 / pts[~orig])))
            rest += d[idx] / lam          # the +1/lambda half of the idx term
            lead = d[idx]
    return complex(np.exp(log_defl - shift) * lead
                   + np.exp(logg - shift) * rest)


def reconstruct(data: TraceData, z, cfg: PvConfig = DEFAULT_PV):
    """Value of the reconstructed interpolant at z (finite-p formula).

    On-lattice queries return c_lambda directly; points inside the guard
    band evaluate g(z) times the shell-ordered kernel sum, deflating the
    nearest factor within 1e-3 rho of the lattice.  Non-convergence of the
    principal value raises NumericalError carrying the fitted growth
    exponent."""
    return _eval_core(data, z, "finite", 0.0, cfg, weighted=False)


def reconstruct_weighted(data: TraceData, z, cfg: PvConfig = DEFAULT_PV):
    """Same as reconstruct but returns f(z) e^{-phi(z)} (safe at any radius)."""
    return _eval_core(data, z, "finite", 0.0, cfg, weighted=True)


@dataclass(eq=False)
class Interpolant:
    """Evaluator for one reconstruction; immutable and shareable."""

    data: TraceData
    mode: str                      # "finite_p" | "infinity"
    w0: Optional[complex] = None
    cfg: PvConfig = DEFAULT_PV
    representative_only: bool = False   # w0 defaulted: one member of f + C g

    def eval(self, z):
        w0 = self.w0 if self.w0 is not None else 0.0
        kind = "finite" if self.mode == "finite_p" else "inf"
        return _eval_core(self.data, z, kind, w0, self.cfg, weighted=False)

    def eval_weighted(self, z):
        w0 = self.w0 if self.w0 is not None else 0.0
        kind = "finite" if self.mode == "finite_p" else "inf"
        return _eval_core(self.data, z, kind, w0, self.cfg, weighted=True)


def make_interpolant(data: TraceData, cfg: PvConfig = DEFAULT_PV) -> Interpolant:
    if math.isinf(data.p):
        raise ValueError("finite-p interpolant requested for p = inf data")
    return Interpolant(data=data, mode="finite_p", cfg=cfg)


def reconstruct_inf(data: TraceData, w0: Optional[complex] = None,
                    cfg: PvConfig = DEFAULT_PV) -> Interpolant:
    """Interpolant from the p = inf representation with free parameter w0.

    A missing w0 defaults to 0 and flags the output as one representative
    of the family f + C g."""
    if not math.isinf(data.p):
        raise ValueError("reconstruct_inf requires p = inf data")
    return Interpolant(data=data, mode="infinity",
                       w0=0.0 if w0 is None else complex(w0), cfg=cfg,
                       representative_only=w0 is None)


def w0_from(f: Callable, m: Multiplier, h_factor: float = 1e-5) -> complex:
    """Free parameter of the p = inf representation for a concrete f:
    w0 = f'(0)/g'(0) - g''(0)/(2 g'(0)).

    f'(0) comes from Richardson-extrapolated central differences with step
    h = h_factor * rho(0); the extrapolation at two step sizes must agree
    or NumericalError is raised.  g''(0) must be known (0 for the builtin
    sigma by oddness); user tables without it cannot use this helper."""
    if m.g_double_prime0 is None:
        raise NumericalError("g''(0) unknown: w0 must be treated as a free "
                             "parameter for this multiplier")
    rho0 = float(m.lattice.rho_values[0])
    h = h_factor * rho0

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


def verify_interpolation(I: Interpolant, h: float = 0.05,
                         max_points: Optional[int] = None) -> float:
    """Max weighted interpolation residual over guard-band lattice points.

    The evaluator is sampled at lambda + h*rho(lambda) in four directions
    and averaged, which cancels the first three Taylor terms and avoids the
    removable structure at the lattice point itself."""
    data = I.data
    lat = data.lattice
    idx = np.nonzero(lat.radii <= lat.guard_radius())[0]
    if max_points is not None and len(idx) > max_points:
        idx = idx[np.linspace(0, len(idx) - 1, max_points).astype(int)]
    worst = 0.0
    dirs = np.asarray([1.0, 1j, -1.0, -1j])
    for i in idx:
        lam = complex(lat.points[i])
        rr = float(lat.rho_values[i])
        zs = lam + h * rr * dirs
        vals = I.eval_weighted(zs)
        # rescale each sample from e^{-phi(z)} to e^{-phi(lambda)}
        adj = np.exp(np.asarray(phi(data.weight, zs), dtype=float)
                     - float(phi(data.weight, lam)))
        avg = complex(np.mean(vals * adj))
        worst = max(worst, abs(avg - complex(data.c_weighted[i])))
    return worst


@dataclass(frozen=True, eq=False)
class NormEstimate:
    """Riemann estimate of the weighted p-norm over a disc region."""

    p: float
    value: float
    region_radius: float
    cell_contributions: dict

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norm must be nonnegative")


def weighted_norm(I: Interpolant, p: float, region_radius: float,
                  grid_density: float = 20.0,
                  chunk: int = 16384) -> NormEstimate:
    """Weighted norm of the interpolant over |z| <= region_radius.

    Finite p: midpoint Riemann sum of |f|^p e^{-p phi} / rho^2 on a grid
    with at least grid_density points per rho; p = inf: the grid maximum of
    |f| e^{-phi}.  Contributions are accumulated per lattice cell (nearest
    point in |z - lambda|/rho(lambda))."""
    data = I.data
    lat = data.lattice
    if region_radius > lat.guard_radius():
        raise ValueError("region extends beyond the guard band")
    rho_min = float(np.min(rho_many(data.weight,
                                    np.asarray([0.0, region_radius], dtype=complex))))
    spacing = rho_min / grid_density
    n = max(8, int(math.ceil(2.0 * region_radius / spacing)))
    grid = GridSpec(-region_radius, region_radius,
                    -region_radius, region_radius, n, n)
    pts = grid.points().ravel()
    pts = pts[np.abs(pts) <= region_radius]
    area = grid.cell_area
    contrib: dict = {}
    total = 0.0
    for i in range(0, len(pts), chunk):
        zs = pts[i:i + chunk]
        vals = np.abs(I.eval_weighted(zs))
        near = _nearest_cell(lat, zs)
        if math.isinf(p):
            for cell in np.unique(near):
                mx = float(vals[near == cell].max())
                contrib[int(cell)] = max(contrib.get(int(cell), 0.0), mx)
            total = max(total, float(vals.max()) if len(vals) else 0.0)
        else:
            rz = rho_many(data.weight, zs)
            dens = vals ** p / rz ** 2 * area
            for cell in np.unique(near):
                contrib[int(cell)] = contrib.get(int(cell), 0.0) \
                    + float(dens[near == cell].sum())
            total += float(dens.sum())
    value = total if math.isinf(p) else total ** (1.0 / p)
    return NormEstimate(p=p, value=value, region_radius=region_radius,
                        cell_contributions=contrib)


def _nearest_cell(lat, zs: np.ndarray) -> np.ndarray:
    best = np.full(zs.shape, np.inf)
    cell = np.zeros(zs.shape, dtype=int)
    for i in range(0, len(lat.points), 2048):
        blk = lat.points[i:i + 2048]
        sur = np.abs(zs[:, None] - blk[None, :]) / lat.rho_values[None, i:i + 2048]
        j = np.argmin(sur, axis=1)
        v = sur[np.arange(len(zs)), j]
        better = v < best
        best[better] = v[better]
        cell[better] = i + j[better]
    return cell
