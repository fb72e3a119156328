"""Radial subharmonic weights and their induced geometry.

A weight is phi(z) = C|z|^gamma (the classical case is gamma=2, C=1, i.e.
phi(z)=|z|^2).  Its Laplacian density C*gamma^2*|z|^(gamma-2) defines a
measure mu, and rho(z) is the radius normalised by mu(D(z, rho(z))) = 1.
Everything downstream (separation, cells, transform weights, trace
conditions) is phrased in terms of rho.

The module also hosts the two empirical probes attached to a weight: the
Muckenhoupt disc-ratio probe for rho^(p-2) and the doubling-exponent fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericalError, SchemaError

__all__ = [
    "WeightProfile",
    "ApReport",
    "DoublingExponent",
    "classical_weight",
    "power_weight",
    "c_gamma_for_rho_origin",
    "phi",
    "laplacian_phi",
    "mu_disc",
    "mu_disc_many",
    "rho",
    "rho_many",
    "ap_probe",
    "default_ap_radii",
    "estimate_t",
    "default_t_pairs",
    "effective_t",
    "choose_N",
]

# Quadrature tooling: one 24-point Gauss-Legendre rule on geometric panels
# toward an integrable endpoint singularity, applied to whole arrays of
# discs at once.  Every disc integral is taken with 2 * _PSI_PANELS panels
# and checked against the _PSI_PANELS rule.
_GL_ORDER = 24
_PSI_PANELS = 12
_PSI_FIRST = 1e-14       # innermost psi panel is [0, pi * _PSI_FIRST]
_CHECK_RTOL = 1e-6
_CHUNK = 128             # discs per array expression (~0.6 MB per temporary)


@dataclass(frozen=True)
class WeightProfile:
    """Immutable description of the weight phi.

    kind "classical" behaves identically to kind "power" with gamma=2,
    c_gamma=1; rho_origin caches rho(0).
    """

    kind: str
    gamma: float = 2.0
    c_gamma: float = 1.0
    rho_origin: float = field(default=0.0)

    def __post_init__(self):
        if self.kind not in ("classical", "power"):
            raise SchemaError(f"unknown weight kind {self.kind!r}")
        if self.kind == "classical":
            object.__setattr__(self, "gamma", 2.0)
            object.__setattr__(self, "c_gamma", 1.0)
        if not (self.gamma > 0 and self.c_gamma > 0):
            raise SchemaError("gamma and c_gamma must be positive")
        r0 = (2.0 * math.pi * self.c_gamma * self.gamma) ** (-1.0 / self.gamma)
        object.__setattr__(self, "rho_origin", r0)

    @property
    def is_classical_like(self) -> bool:
        return self.kind == "classical" or (self.gamma == 2.0 and self.c_gamma == 1.0)

    @staticmethod
    def from_json(obj: dict) -> "WeightProfile":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise SchemaError("weight must be an object with a 'kind'")
        kind = obj["kind"]
        if kind == "classical":
            return classical_weight()
        if kind == "power":
            gamma = float(obj["gamma"])
            if "c_gamma" in obj:
                return power_weight(gamma, c_gamma=float(obj["c_gamma"]))
            if "rho_origin" in obj:
                return power_weight(gamma, rho_origin=float(obj["rho_origin"]))
            raise SchemaError("power weight needs c_gamma or rho_origin")
        raise SchemaError(f"unknown weight kind {kind!r}")


def classical_weight() -> WeightProfile:
    return WeightProfile(kind="classical")


def power_weight(gamma: float, c_gamma: Optional[float] = None,
                 rho_origin: Optional[float] = None) -> WeightProfile:
    """Power weight phi = C|z|^gamma, with C given directly or solved from
    a target rho(0) via C = 1/(2*pi*gamma*rho0^gamma)."""
    if c_gamma is None:
        if rho_origin is None:
            raise SchemaError("specify c_gamma or rho_origin")
        c_gamma = c_gamma_for_rho_origin(gamma, rho_origin)
    return WeightProfile(kind="power", gamma=float(gamma), c_gamma=float(c_gamma))


def c_gamma_for_rho_origin(gamma: float, rho0: float) -> float:
    """Normalisation making rho(0) equal rho0: mu(D(0,r)) = 2*pi*C*gamma*r^gamma."""
    return 1.0 / (2.0 * math.pi * gamma * rho0 ** gamma)


def phi(w: WeightProfile, z) -> np.ndarray | float:
    """Weight value phi(z) = C|z|^gamma (|z|^2 for classical)."""
    a = np.abs(z)
    if w.is_classical_like:
        return a * a
    return w.c_gamma * a ** w.gamma


def laplacian_phi(w: WeightProfile, z) -> np.ndarray | float:
    """Laplacian density C*gamma^2*|z|^(gamma-2); equals 4 for classical."""
    a = np.abs(z)
    if w.is_classical_like:
        return 4.0 * np.ones_like(a) if isinstance(a, np.ndarray) else 4.0
    if w.gamma < 2.0 and np.any(np.asarray(a) == 0.0):
        raise ValueError("Laplacian is singular at the origin for gamma < 2")
    return w.c_gamma * w.gamma ** 2 * a ** (w.gamma - 2.0)


@lru_cache(maxsize=None)
def _geometric_rule(first: float, npanels: int):
    """Nodes and weights on [0, 1]: the panel [0, first], then npanels - 1
    geometric panels from first up to 1, each with the Gauss-Legendre rule."""
    x, wt = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.concatenate([[0.0], np.geomspace(first, 1.0, npanels)])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * wt).ravel()


def _radial_disc_integral(f: Callable[[np.ndarray], np.ndarray],
                          full_part: Callable[[np.ndarray], np.ndarray],
                          a, r, npanels: int = 2 * _PSI_PANELS) -> np.ndarray:
    """Integrals of a radial density f(|w|) over the discs D(c, r), |c| = a.

    a and r are broadcast against each other.  Reduction to one dimension:
    slicing by circles |w| = u, the disc meets the circle over an angle
    2*alpha, alpha = atan2(r*sin(psi), a - r*cos(psi)), where u^2 =
    (a - r)^2 + 4*a*r*sin^2(psi/2) (the form of a^2 + r^2 - 2*a*r*cos(psi)
    that does not cancel near psi = 0).  In the psi variable the integrand
    is analytic except at u -> 0, so geometric panels toward psi = 0 make
    the rule uniformly robust.  full_part(umax) supplies the closed-form
    (or separately integrated) full-circle contribution over |w| <= umax;
    it is called with umax = 0 where the disc misses the origin and must
    return 0 there.  Every panel of a chunk of discs is one array
    expression; f and full_part must accept arrays of any shape.
    """
    a, r = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(r, dtype=float))
    t, wt = _geometric_rule(_PSI_FIRST, npanels)
    psi, wpsi = math.pi * t, math.pi * wt
    sin_psi, cos_psi, sin_half = np.sin(psi), np.cos(psi), np.sin(0.5 * psi)
    af, rf = a.ravel(), r.ravel()
    out = np.empty(af.shape)
    for lo in range(0, af.size, _CHUNK):
        ac, rc = af[lo:lo + _CHUNK, None], rf[lo:lo + _CHUNK, None]
        u = np.hypot(ac - rc, 2.0 * np.sqrt(ac * rc) * sin_half)
        alpha = np.arctan2(rc * sin_psi, ac - rc * cos_psi)
        arcs = (f(u) * (2.0 * alpha * sin_psi)) @ wpsi
        out[lo:lo + _CHUNK] = full_part(np.maximum(rc - ac, 0.0))[:, 0] \
            + ac[:, 0] * rc[:, 0] * arcs
    return out.reshape(a.shape)


def _check_refinement(ref, coarse, a, r, what: str) -> None:
    """The refinement self-check: raise NumericalError, naming the discs
    D(c, r), |c| = a, where the 2 * _PSI_PANELS value `ref` is not finite
    or the _PSI_PANELS value `coarse` differs from it by more than
    _CHECK_RTOL relative."""
    with np.errstate(invalid="ignore"):
        bad = ~(np.isfinite(ref) & (np.abs(coarse - ref) <= _CHECK_RTOL * np.abs(ref)))
    if np.any(bad):
        with np.errstate(invalid="ignore", divide="ignore"):
            gap = np.abs(coarse - ref) / np.abs(ref)
        ab, rb = np.broadcast_to(a, bad.shape), np.broadcast_to(r, bad.shape)
        raise NumericalError(
            f"{what} quadrature did not converge at {int(bad.sum())} disc(s), "
            f"first |c| = {ab[bad][:4].tolist()}, r = {rb[bad][:4].tolist()}: "
            f"achieved {gap[bad][:4].tolist()} relative")


def _mu_power(w: WeightProfile, a, r, npanels: int = 2 * _PSI_PANELS) -> np.ndarray:
    """mu(D(c, r)), |c| = a, for a power weight.  The density
    C*gamma^2*|w|^(gamma-2) is homogeneous, so mu(D(c, r)) = r^gamma *
    mu(D(c/r, 1)): the quadrature runs on unit discs, which keeps tiny and
    huge discs in floating-point range.  mu(D(0, u)) = 2*pi*C*gamma*u^gamma
    is the exact full-circle part."""
    lap = lambda u: w.c_gamma * w.gamma ** 2 * np.power(u, w.gamma - 2.0)
    full = lambda umax: 2.0 * math.pi * w.c_gamma * w.gamma * np.power(umax, w.gamma)
    return np.power(r, w.gamma) * _radial_disc_integral(lap, full, a / r, 1.0, npanels)


def mu_disc_many(w: WeightProfile, centers, radii) -> np.ndarray:
    """mu(D(c, r)) with mu = Laplacian of phi, over broadcast arrays of
    centres and radii.

    Classical kind uses the exact value 4*pi*r^2.  Power kinds evaluate the
    one-dimensional arc quadrature for every disc in one array expression;
    the full-circle part (which carries the origin singularity for
    gamma < 2) is closed form.  Raises NumericalError, naming the discs,
    where the value is not finite or the refinement self-check fails.
    """
    a = np.abs(np.asarray(centers, dtype=complex))
    r = np.asarray(radii, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radius must be positive")
    if w.is_classical_like:
        return np.full(np.broadcast_shapes(a.shape, r.shape), 4.0 * math.pi) * r * r
    ref = _mu_power(w, a, r)
    _check_refinement(ref, _mu_power(w, a, r, _PSI_PANELS), a, r, "mu_disc")
    return ref


def mu_disc(w: WeightProfile, center, radius: float) -> float:
    """mu(D(center, radius)): the single-disc case of mu_disc_many."""
    return float(mu_disc_many(w, complex(center), float(radius)))


# Root-finding for rho: the stopping rule of scipy's find_root defaults.
# An element stops when |mu - 1| <= _FATOL or its bracket is narrower than
# |x| * _XRTOL + _XATOL; _ROOT_ITERS = log2(max / tiny) steps would bisect
# across the whole double range.
_TINY = np.finfo(float).tiny
_XATOL, _XRTOL, _FATOL = 4.0 * _TINY, 8.9e-16, _TINY
_BRACKET_ITERS = 1000
_ROOT_ITERS = 2046


def _bracket(f, a: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Brackets [lo, hi] with a sign change of the increasing f(., a).

    Where f > 0 at both ends, lo moves toward 0 by factors of 4 (hi takes
    its old value); where f < 0 at both ends, hi moves away from the
    initial lo by 4 times its distance (lo takes its old value).  These
    are the moves of scipy's bracket_root with xmin = 0 and factor = 4.
    Returns (lo, hi, f(lo), f(hi)).  Raises NumericalError, naming the
    moduli a, for a non-finite value, lo reaching 0, or no sign change
    within _BRACKET_ITERS moves.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo, fhi = f(lo, a), f(hi, a)
    x0, d = lo.copy(), hi - lo
    for _ in range(_BRACKET_ITERS):
        down, up = (flo > 0) & (fhi > 0), (flo < 0) & (fhi < 0)
        bad = ~(np.isfinite(flo) & np.isfinite(fhi) & (lo < hi)) | (down & (lo == 0.0))
        if np.any(bad):
            break
        move = down | up
        if not np.any(move):
            return lo, hi, flo, fhi
        hi[down], fhi[down] = lo[down], flo[down]
        lo[down] /= 4.0
        lo[up], flo[up] = hi[up], fhi[up]
        d[up] *= 4.0
        hi[up] = x0[up] + d[up]
        fx = f(np.where(down, lo, hi)[move], a[move])
        flo[down], fhi[up] = fx[down[move]], fx[up[move]]
    else:
        bad = (flo > 0) & (fhi > 0) | (flo < 0) & (fhi < 0)
    raise NumericalError(f"rho bracket failure at |z| = {a[bad][:4].tolist()}")


def _chandrupatla(f, a: np.ndarray, x1: np.ndarray, x2: np.ndarray,
                  f1: np.ndarray, f2: np.ndarray):
    """Roots of f(., a) in the brackets [x1, x2] with f-values f1, f2 of
    opposite signs, by Chandrupatla's hybrid of inverse quadratic
    interpolation and bisection (Chandrupatla 1997), all elements at once.

    The steps, the stopping rule and the order of operations are those of
    scipy's find_root, and converged elements leave the active set after
    every step, so the roots agree with it.  Returns (x, f(x)), x being
    the end of the final bracket with the smaller |f|.  Raises
    NumericalError, naming the moduli a, at a non-finite value, a lost
    sign change or after _ROOT_ITERS steps without convergence.
    """
    x_out, f_out = np.empty(a.shape), np.empty(a.shape)
    act = np.arange(a.size)
    x3 = f3 = None
    t = 0.5
    for it in range(_ROOT_ITERS + 1):
        near = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(near, x1, x2), np.where(near, f1, f2)
        dx = np.abs(x2 - x1)
        tol = np.abs(xm) * _XRTOL + _XATOL
        small_f = np.abs(fm) <= _FATOL
        finite = np.isfinite(f1) & np.isfinite(f2)
        if not np.all(finite):
            raise NumericalError("rho root-find met a non-finite value at "
                                 f"|z| = {a[~finite][:4].tolist()}")
        lost = ~small_f & (np.sign(f1) == np.sign(f2))
        if np.any(lost):
            raise NumericalError("rho root-find lost its bracket at "
                                 f"|z| = {a[lost][:4].tolist()}")
        done = small_f | (dx < tol)
        x_out[act[done]], f_out[act[done]] = xm[done], fm[done]
        keep = ~done
        if not np.any(keep):
            return x_out, f_out
        if it == _ROOT_ITERS:
            raise NumericalError("rho root-find did not converge at "
                                 f"|z| = {a[keep][:4].tolist()}")
        act, a, x1, x2, f1, f2 = act[keep], a[keep], x1[keep], x2[keep], f1[keep], f2[keep]
        dx, tol = dx[keep], tol[keep]
        if it > 0:
            x3, f3 = x3[keep], f3[keep]
            with np.errstate(divide="ignore", invalid="ignore"):
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                quad = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(quad, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)
        x = x1 + t * (x2 - x1)
        fx = f(x, a)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx


def _solve_rho(w: WeightProfile, a: np.ndarray) -> np.ndarray:
    """rho at the moduli a > 0 of a power weight, all roots found together.

    mu(D(a, .)) is strictly increasing, so each root is unique.  The guess
    is the radius of unit mass at the local density, clipped into
    [rho(0) - a, rho(0) + a], where the 1-Lipschitz rho must lie.
    `_bracket` grows brackets by factors of 4 from guess/8 and guess*8,
    `_chandrupatla` solves all elements to 8.9e-16 relative, and the
    refinement self-check runs at every root.  Any element that fails to
    bracket, converge or pass the check raises NumericalError naming its
    radii.  numpy only: the roots match scipy's bracket_root + find_root.
    """
    excess = lambda r, aa: _mu_power(w, aa, r) - 1.0
    with np.errstate(divide="ignore", over="ignore"):
        local = (math.pi * w.c_gamma * w.gamma ** 2 * a ** (w.gamma - 2.0)) ** -0.5
    guess = np.clip(local, w.rho_origin - a, w.rho_origin + a)
    x, fx = _chandrupatla(excess, a, *_bracket(excess, a, guess / 8.0, guess * 8.0))
    _check_refinement(fx + 1.0, _mu_power(w, a, x, _PSI_PANELS), a, x, "rho")
    return x


def rho(w: WeightProfile, z) -> float:
    """The radius with mu(D(z, rho)) = 1: the single-point case of the
    batched root-find behind the radial spline of rho_many.

    Classical: 4*pi*rho^2 = 1 gives rho = (4*pi)^(-1/2) everywhere.
    """
    if w.is_classical_like:
        return (4.0 * math.pi) ** -0.5
    a = abs(complex(z))
    if a == 0.0:
        return w.rho_origin
    return float(_solve_rho(w, np.array([a]))[0])


def _not_a_knot_spline(x: np.ndarray, y: np.ndarray):
    """The C^2 cubic spline through (x, y) whose third derivative is
    continuous at x[1] and x[-2] (not-a-knot ends), as a vectorised
    callable that extends the end pieces beyond [x[0], x[-1]].

    The slopes at the nodes solve one tridiagonal system (set up as in
    scipy's CubicSpline), by O(n) elimination without pivoting: every pivot
    stays positive, as the interior rows are diagonally dominant.  Each
    piece is a cubic in u - x[i], evaluated by Horner's rule after a
    searchsorted.
    """
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # row i: lo[i] s[i-1] + mid[i] s[i] + up[i] s[i+1] = b[i]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lo = np.concatenate([[0.0], dx[1:], [d1]]).tolist()
    mid = np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]]).tolist()
    up = np.concatenate([[d0], dx[:-1], [0.0]]).tolist()
    b = np.concatenate([
        [((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
        3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
        [(dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1]]).tolist()
    for i in range(1, n):
        m = lo[i] / mid[i - 1]
        mid[i] -= m * up[i - 1]
        b[i] -= m * b[i - 1]
    b[-1] /= mid[-1]
    for i in range(n - 2, -1, -1):
        b[i] = (b[i] - up[i] * b[i + 1]) / mid[i]
    s = np.array(b)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    c3, c2, c1, c0 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]

    def spline(u):
        u = np.asarray(u, dtype=float)
        k = np.clip(np.searchsorted(x, u, side="right") - 1, 0, n - 2)
        h = u - x[k]
        return ((c3[k] * h + c2[k]) * h + c1[k]) * h + c0[k]

    return spline


@lru_cache(maxsize=16)
def _radial_rho_spline(w: WeightProfile, umax: float):
    """Cached radial profile u -> rho(u) on [0, umax]: the not-a-knot
    cubic spline through rho(0) and 420 geometric nodes solved in one
    batch by `_solve_rho`.

    Measured against mpmath, it is good to 1.8e-7 at gamma = 5, |z| = 200,
    but only to 1e-6 .. 1e-5 at gamma = 0.5, |z| = 7 (1.1e-6 with umax = 8,
    3.7e-6 with 64, 9.3e-6 with 32768): there rho(u) ~ u, and d mu / d r
    is unbounded for gamma < 1.
    """
    us = np.geomspace(max(umax * 1e-6, 1e-9), umax, 420)
    return _not_a_knot_spline(np.concatenate([[0.0], us]),
                              np.concatenate([[w.rho_origin], _solve_rho(w, us)]))


def rho_many(w: WeightProfile, z) -> np.ndarray:
    """Vectorised rho over an array of points (radial cache for power kinds).

    The power-weight values come from the cached cubic spline, not from the
    root-find behind `rho`: near rho(u) = u for gamma < 1 they are good to
    only 1e-6 .. 1e-5 relative (see `_radial_rho_spline`).
    """
    a = np.abs(np.asarray(z, dtype=complex))
    if w.is_classical_like:
        return np.full(a.shape, (4.0 * math.pi) ** -0.5)
    umax = float(np.max(a)) if a.size else 1.0
    return np.asarray(_radial_rho_spline(w, _bucket(umax))(a))


def _bucket(umax: float) -> float:
    # Quantise cache keys so nearby requests share one spline.
    return float(2.0 ** math.ceil(math.log2(max(umax, 1.0)) + 1e-12))


# ---------------------------------------------------------------------------
# Muckenhoupt probe for rho^(p-2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApReport:
    """Disc-ratio probe of the Muckenhoupt condition for rho^(p-2).

    ratios[i] is the supremum over the sampled centers, at disc radius
    disc_radii[i], of

        (1/|D|) * (int_D rho^p dnu)^(1/p) * (int_D rho^q dnu)^(1/q),

    with dnu = dm/rho^2 and q the conjugate exponent.  Failure of the
    condition manifests as power-law growth of the ratio in the radius, so
    the verdict is the fitted log-log slope over the largest decade.
    """

    p: float
    disc_radii: tuple
    ratios: tuple
    fitted_exponent: float
    is_ap: bool
    exponent_tolerance: float = 0.05

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


def default_ap_radii(w: WeightProfile, decades: float = 3.2, n: int = 12) -> list:
    """Radii spanning >= `decades` decades, starting just above rho(0)."""
    r0 = 2.0 * w.rho_origin
    return list(np.geomspace(r0, r0 * 10.0 ** decades, n))


def _disc_ratios(rho_f, a: np.ndarray, R: np.ndarray, p: float) -> np.ndarray:
    """The A_p disc ratio at every disc D(c, R), |c| = a (broadcast)."""
    q = p / (p - 1.0)
    a, R = np.broadcast_arrays(a, R)
    ratios = np.ones(a.shape)
    # Small-disc shortcut: rho is 1-Lipschitz, hence nearly constant on D,
    # and the ratio collapses to 1.
    big = R > rho_f(a) / 4.0
    t, wt = _geometric_rule(1e-8, 30)

    def integral(expo: float) -> np.ndarray:
        f = lambda u: rho_f(u) ** expo

        def full(umax: np.ndarray) -> np.ndarray:
            u = umax[..., None] * t
            return 2.0 * math.pi * umax * ((f(u) * u) @ wt)

        return _radial_disc_integral(f, full, a[big], R[big])

    ratios[big] = integral(p - 2.0) ** (1.0 / p) * integral(q - 2.0) ** (1.0 / q) \
        / (math.pi * R[big] ** 2)
    return ratios


def ap_probe(w: WeightProfile, p: float, radii: Sequence[float],
             centers: Optional[Sequence[complex]] = None) -> ApReport:
    """Probe whether rho^(p-2) satisfies the A_p disc condition.

    For each radius the ratio is maximised over the origin-centred disc and
    (by default) eight centers on the ring |c| = radius.  A fitted slope
    <= 0.05 over the largest decade of radii declares the condition
    satisfied; the p = 2 case gives ratio exactly 1 for every disc.  All
    discs of all radii go through the disc quadrature as one batch.

    Unlike mu and rho there is no 12- versus 24-panel self-check: the
    integrand rho_spline^(p-2) is only C^2 at the spline knots, and the two
    rules differ by 2.0e-6 relative at gamma = 0.5, |c| = R = 7.8, above
    the 1e-6 that guards mu.  A sound check needs knot-aligned panels or a
    tolerance argued for the ratio; the 24-panel value is used unchecked.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie in (1, inf)")
    radii = [float(r) for r in radii]
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be ascending")
    if w.is_classical_like:
        rho_f = lambda u: np.full_like(np.asarray(u, dtype=float), (4 * math.pi) ** -0.5)
    else:
        rho_f = _radial_rho_spline(w, _bucket(2.2 * max(radii)))

    R = np.asarray(radii)[:, None]
    if centers is None:
        ring = R * np.exp(2j * math.pi * np.arange(8) / 8.0)
        discs = np.concatenate([np.zeros_like(ring[:, :1]), ring], axis=1)
    else:
        discs = np.asarray(centers, dtype=complex)[None, :]
    vals = _disc_ratios(rho_f, np.abs(discs), R, p)
    bad = ~np.all(np.isfinite(vals) & (vals > 0.0), axis=1)
    if np.any(bad):
        raise NumericalError(f"ap_probe quadrature failed at radius "
                             f"{np.asarray(radii)[bad].tolist()}")
    sup_ratios = [float(v) for v in vals.max(axis=1)]

    top = np.asarray(radii) >= max(radii) / 10.0
    if top.sum() < 2:
        top[:] = True
    slope = float(np.polyfit(np.log(radii)[top], np.log(sup_ratios)[top], 1)[0])
    return ApReport(p=p, disc_radii=tuple(radii), ratios=tuple(sup_ratios),
                    fitted_exponent=slope, is_ap=bool(slope <= 0.05))


# ---------------------------------------------------------------------------
# Doubling exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoublingExponent:
    """Empirical exponent t in rho(z)/rho(zeta) <= C (|z-zeta|/rho(zeta))^(1-t).

    t_fit comes from an envelope regression over sampled pairs; t_bound is
    the analytic bound gamma/2 available for power weights.  The effective
    value used for choosing the transform order is min(t_fit, t_bound).
    """

    t_fit: float
    t_bound: Optional[float]
    sample_count: int
    fit_slack: float = 0.02


def effective_t(t: DoublingExponent) -> float:
    if t.t_bound is None:
        return t.t_fit
    return min(t.t_fit, t.t_bound)


def default_t_pairs(w: WeightProfile, count: int = 20000, seed: int = 0,
                    span: float = 1e4):
    """Sample pairs (z, zeta) with zeta outside D(z): a log-uniform sweep of
    |z| against small |zeta| (which traces the envelope for radial weights)
    plus random pairs for coverage."""
    rng = np.random.default_rng(seed)
    r0 = w.rho_origin
    n1 = count // 2
    z1 = r0 * 10.0 ** rng.uniform(0.3, math.log10(span), n1)
    ze1 = r0 * rng.uniform(0.0, 0.5, n1)
    n2 = count - n1
    z2 = r0 * 10.0 ** rng.uniform(0.0, math.log10(span), n2)
    ze2 = r0 * 10.0 ** rng.uniform(0.0, math.log10(span) * rng.uniform(0.2, 1.0, n2), n2)
    z = np.concatenate([z1, z2]) * np.exp(2j * math.pi * rng.uniform(0, 1, count))
    zeta = np.concatenate([ze1, ze2]) * np.exp(2j * math.pi * rng.uniform(0, 1, count))
    return z, zeta


def estimate_t(w: WeightProfile, pairs=None, *, nbins: int = 28,
               fit_slack: float = 0.02, window_decades: float = 2.0) -> DoublingExponent:
    """Fit the doubling exponent from the ratio envelope.

    Pairs violating |z - zeta| > rho(z) are dropped.  log(rho(z)/rho(zeta))
    is binned against log(|z-zeta|/rho(zeta)); the per-bin maxima over the
    top `window_decades` decades (the asymptotic regime -- small-separation
    pairs still feel the rho(0) plateau of power weights) are fit by least
    squares, and t_fit = 1 - slope, clamped into (0, 1 - fit_slack).
    Requires at least two decades of spread in |z-zeta|/rho(zeta).
    """
    if pairs is None:
        z, zeta = default_t_pairs(w)
    else:
        z, zeta = pairs
        z = np.asarray(z, dtype=complex)
        zeta = np.asarray(zeta, dtype=complex)
    rz = rho_many(w, z)
    rzeta = rho_many(w, zeta)
    sep = np.abs(z - zeta)
    keep = sep > rz
    if keep.sum() < 16:
        raise ValueError("insufficient admissible pairs (need zeta outside D(z))")
    x = np.log10(sep[keep] / rzeta[keep])
    y = np.log10(rz[keep] / rzeta[keep])
    if x.max() - x.min() < 2.0:
        raise ValueError("insufficient sample spread: need >= 2 decades of "
                         "|z-zeta|/rho(zeta)")
    lo = x.max() - max(window_decades, 2.0)
    inwin = x >= lo
    edges = np.linspace(lo, x.max(), nbins + 1)
    idx = np.clip(np.digitize(x[inwin], edges) - 1, 0, nbins - 1)
    bx, by = [], []
    for b in range(nbins):
        m = idx == b
        if m.any():
            bx.append(0.5 * (edges[b] + edges[b + 1]))
            by.append(y[inwin][m].max())
    slope = float(np.polyfit(np.asarray(bx), np.asarray(by), 1)[0])
    t_fit = min(max(1.0 - slope, fit_slack), 1.0 - fit_slack)
    t_bound = None if w.kind == "classical" else w.gamma / 2.0
    return DoublingExponent(t_fit=t_fit, t_bound=t_bound,
                            sample_count=int(keep.sum()), fit_slack=fit_slack)


def choose_N(t: DoublingExponent) -> int:
    """Smallest integer strictly greater than 1/t (t = effective exponent)."""
    te = effective_t(t)
    if not (0.0 < te < 1.0):
        raise ValueError("effective t must lie in (0, 1)")
    return math.floor(1.0 / te) + 1
