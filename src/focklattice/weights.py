"""Radial subharmonic weights and their induced geometry.

A weight is phi(z) = C|z|^gamma (the classical case is gamma=2, C=1, i.e.
phi(z)=|z|^2).  Its Laplacian density C*gamma^2*|z|^(gamma-2) defines a
measure mu, and rho(z) is the radius normalised by mu(D(z, rho(z))) = 1.
Everything downstream (separation, cells, transform weights, trace
conditions) is phrased in terms of rho.

The module also hosts what the trace conditions read off a weight: the
closed-form A_p range and verdict of rho^(p-2), the Muckenhoupt disc-ratio
probe that measures it, and the closed-form doubling exponent.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NumericalError, SchemaError

__all__ = [
    "WeightProfile",
    "ApRange",
    "ApReport",
    "classical_weight",
    "power_weight",
    "c_gamma_for_rho_origin",
    "phi",
    "mu_disc_many",
    "rho_many",
    "ap_range",
    "ap_probe",
    "default_ap_radii",
    "loglog_fit",
    "estimate_t",
    "quasirandom",
    "choose_N",
]

# Quadrature tooling: one 24-point Gauss-Legendre rule on geometric panels
# toward an integrable endpoint singularity, applied to whole arrays of
# discs at once.
_GL_ORDER = 24
_PSI_PANELS = 12
_PSI_FIRST = 1e-14       # innermost psi panel is [0, pi * _PSI_FIRST]
_CHECK_RTOL = 1e-6
_AP_CHECK_RTOL = 1e-4    # ap_probe ratios: 500 x below criterion 7's 0.05 slope bound
# discs per array expression: 16 x 864 nodes (both psi rules) make 110 KB per
# density temporary, under glibc's 128 KB mmap threshold, so the heap reuses them
_CHUNK = 16


class WeightProfile:
    """The weight phi = c_gamma |z|^gamma; treat it as immutable, since
    rho_origin is derived from the other fields once.

    gamma = 2, c_gamma = 1 is the classical weight |z|^2; rho_origin caches
    rho(0) and is derived, never passed.
    """

    __slots__ = ("gamma", "c_gamma", "rho_origin")

    def __init__(self, gamma: float, c_gamma: float):
        if not (gamma > 0 and c_gamma > 0):
            raise SchemaError("gamma and c_gamma must be positive")
        self.gamma, self.c_gamma = gamma, c_gamma
        self.rho_origin = (2.0 * math.pi * c_gamma * gamma) ** (-1.0 / gamma)

    def __repr__(self):
        return f"WeightProfile(gamma={self.gamma!r}, c_gamma={self.c_gamma!r})"

    @property
    def is_classical_like(self) -> bool:
        # a few ulps of C: C = 1/(2 pi gamma rho0^gamma) at rho0 = (4 pi)^(-1/2),
        # rho of |z|^2, rounds to 1 + 2^-52
        return self.gamma == 2.0 and abs(self.c_gamma - 1.0) <= 4.0 * math.ulp(1.0)


def classical_weight() -> WeightProfile:
    return WeightProfile(2.0, 1.0)


def power_weight(gamma: float, c_gamma: Optional[float] = None,
                 rho_origin: Optional[float] = None) -> WeightProfile:
    """Power weight phi = C|z|^gamma, with C given directly or solved from
    a target rho(0) via C = 1/(2*pi*gamma*rho0^gamma)."""
    if c_gamma is None:
        if rho_origin is None:
            raise SchemaError("specify c_gamma or rho_origin")
        c_gamma = c_gamma_for_rho_origin(gamma, rho_origin)
    return WeightProfile(float(gamma), float(c_gamma))


def c_gamma_for_rho_origin(gamma: float, rho0: float) -> float:
    """Normalisation making rho(0) equal rho0: mu(D(0,r)) = 2*pi*C*gamma*r^gamma."""
    return 1.0 / (2.0 * math.pi * gamma * rho0 ** gamma)


def phi(w: WeightProfile, z) -> np.ndarray | float:
    """Weight value phi(z) = C|z|^gamma (|z|^2 for classical)."""
    a = np.abs(z)
    if w.is_classical_like:
        return a * a
    return w.c_gamma * a ** w.gamma


@lru_cache(maxsize=None)
def _geometric_rule(first: float, panels: int):
    """Nodes and weights on [0, 1]: the panel [0, first], then panels - 1
    geometric panels from first up to 1, each with the Gauss-Legendre rule."""
    x, wt = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.concatenate([[0.0], np.geomspace(first, 1.0, panels)])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * wt).ravel()


def _radial_disc_integral(f: Callable[[np.ndarray], np.ndarray],
                          full_part: Callable[[np.ndarray], np.ndarray],
                          a, r) -> np.ndarray:
    """Integrals of a radial density f(|w|) over the discs D(c, r), |c| = a, by
    the 2 * _PSI_PANELS and the _PSI_PANELS psi rule, stacked (fine, coarse).

    a and r are broadcast against each other.  Reduction to one dimension:
    slicing by circles |w| = u, the disc meets the circle over an angle
    2*alpha, alpha = atan2(r*sin(psi), a - r*cos(psi)), where u^2 =
    (a - r)^2 + 4*a*r*sin^2(psi/2) (the form of a^2 + r^2 - 2*a*r*cos(psi)
    that does not cancel near psi = 0).  In the psi variable the integrand
    is analytic except at u -> 0, so geometric panels toward psi = 0 make
    the rule uniformly robust.  full_part(u_full) supplies the closed-form
    (or separately integrated) full-circle contribution over |w| <= u_full,
    u_full = r - a, once for both rules and only for the discs that hold
    the origin (r > a).  Each chunk of discs is one array expression over
    the nodes of both rules; f and full_part must accept arrays of any
    shape.  f may return several densities stacked on a new leading axis
    (full_part then stacks their parts the same way), and the result
    carries that axis second.
    """
    a, r = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(r, dtype=float))
    (tf, wf), (tc, wc) = (_geometric_rule(_PSI_FIRST, n) for n in (2 * _PSI_PANELS, _PSI_PANELS))
    nf, psi, wf, wc = tf.size, math.pi * np.concatenate([tf, tc]), math.pi * wf, math.pi * wc
    sin_psi, cos_psi, sin_half = np.sin(psi), np.cos(psi), np.sin(0.5 * psi)
    af, rf = a.ravel(), r.ravel()
    parts = []
    for lo in range(0, af.size, _CHUNK):
        ac, rc = af[lo:lo + _CHUNK, None], rf[lo:lo + _CHUNK, None]
        u = np.hypot(ac - rc, 2.0 * np.sqrt(ac * rc) * sin_half)
        alpha = np.arctan2(rc * sin_psi, ac - rc * cos_psi)
        g = f(u) * (2.0 * alpha * sin_psi)
        part = ac[:, 0] * rc[:, 0] * np.stack([g[..., :nf] @ wf, g[..., nf:] @ wc])
        holds = rc[:, 0] > ac[:, 0]
        part[..., holds] += full_part((rc - ac)[holds])[..., 0]
        parts.append(part)
    out = np.concatenate(parts, axis=-1) if parts else np.empty((2, 0))
    return out.reshape(out.shape[:-1] + a.shape)


def _check_refinement(ref, coarse, a, r, what: str, rtol: float = _CHECK_RTOL) -> np.ndarray:
    """The refinement self-check, returning `ref`: raise NumericalError,
    naming the discs D(c, r), |c| = a, where the 2 * _PSI_PANELS value `ref`
    is not finite or the _PSI_PANELS value `coarse` differs from it by more
    than rtol relative."""
    with np.errstate(invalid="ignore"):
        bad = ~(np.isfinite(ref) & (np.abs(coarse - ref) <= rtol * np.abs(ref)))
    if np.any(bad):
        with np.errstate(invalid="ignore", divide="ignore"):
            gap = np.abs(coarse - ref) / np.abs(ref)
        ab, rb = np.broadcast_to(a, bad.shape), np.broadcast_to(r, bad.shape)
        raise NumericalError(
            f"{what} quadrature did not converge at {int(bad.sum())} disc(s), "
            f"first |c| = {ab[bad][:4].tolist()}, r = {rb[bad][:4].tolist()}: "
            f"achieved {gap[bad][:4].tolist()} relative")
    return ref


def _mu_power(w: WeightProfile, a, r) -> np.ndarray:
    """mu(D(c, r)), |c| = a, for a power weight, as the (fine, coarse) pair
    of `_radial_disc_integral`.  The density C*gamma^2*|w|^(gamma-2) is
    homogeneous, so mu(D(c, r)) = r^gamma * mu(D(c/r, 1)): the quadrature
    runs on unit discs, which keeps tiny and huge discs in floating-point
    range.  mu(D(0, u)) = 2*pi*C*gamma*u^gamma is the exact full-circle part."""
    lap = lambda u: w.c_gamma * w.gamma ** 2 * np.power(u, w.gamma - 2.0)
    full = lambda u_full: 2.0 * math.pi * w.c_gamma * w.gamma * np.power(u_full, w.gamma)
    return np.power(r, w.gamma) * _radial_disc_integral(lap, full, a / r, 1.0)


def mu_disc_many(w: WeightProfile, centers, radii) -> np.ndarray:
    """mu(D(c, r)) with mu = Laplacian of phi, over broadcast arrays of
    centres and radii.

    The classical weight takes the exact value 4*pi*r^2.  Power weights run
    the one-dimensional arc quadrature for every disc in one array expression;
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
    return _check_refinement(*_mu_power(w, a, r), a, r, "mu_disc")


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


@lru_cache(maxsize=None)
def _unit_rho_table(gamma: float):
    """Cached log u -> log rho_1(u), rho_1 the rho of |z|^gamma (C = 1),
    from the scaling law.

    mu is homogeneous of degree gamma, so mu(D(a, a*s)) = a^gamma * M(s)
    with M(s) = mu(D(1, s)), and each quadrature of M gives an exact point
    of the profile: log a(s) = -log M(s) / gamma, rho(a(s)) = a(s)*s,
    kept as logs so that nothing overflows at small gamma.  The 421 values
    of s are 90 geometric ones from 1e-4 up to 0.5, 160 toward 1 (1 - s
    geometric from 0.5 down to 1e-7), s = 1 itself (the kink rho(a*) = a*,
    where d mu / d r is unbounded for gamma <= 1) and 170 with s - 1
    geometric from 1e-7 up to 1e4.  All of M is one checked quadrature
    batch.  The inner branch, up to the node s = 1 + 1e-7, is the
    not-a-knot cubic through (0, rho(0)) and the nodes in (u, rho); the
    outer one, from the node s = 1 - 1e-7, is the not-a-knot cubic in
    (log u, log rho).  Between those two nodes log rho = log u + log s,
    with log s linear in log u through the three nodes (log a*, 0
    included): there |log s| <= 1e-7, so this is as good at every gamma,
    while at small gamma, where M(s) moves by about |s - 1|^gamma, the
    two nodes lie far from a* and a cubic across them would ring.  Beyond
    the outermost node (s = 1e-4) the local-density radius
    (pi*gamma^2*u^(gamma-2))^(-1/2) takes over; its relative error there
    is (gamma-2)^2*s^2/16, 2.3e-8 at gamma = 8.
    Raises NumericalError if the a(s) are not strictly decreasing.
    """
    w = WeightProfile(gamma, 1.0)
    s = np.concatenate([np.geomspace(1e-4, 0.5, 90, endpoint=False),
                        1.0 - np.geomspace(0.5, 1e-7, 160), [1.0],
                        1.0 + np.geomspace(1e-7, 1e4, 170)])
    m = _check_refinement(*_mu_power(w, 1.0, s), 1.0, s, "rho")
    log_a = -np.log(m) / gamma
    falls = np.diff(log_a) < 0.0
    if not np.all(falls):
        raise NumericalError(f"rho table not monotone: a(s) = M(s)^(-1/gamma) does not "
                             f"fall toward s = {s[1:][~falls][:4].tolist()}")
    k = 250                                     # s[k] = 1, a[k] = a*
    log_s = np.log(s)
    a = np.exp(log_a[k + 1:])
    inner = _not_a_knot_spline(np.concatenate([[0.0], a[::-1]]),
                               np.concatenate([[w.rho_origin], (a * s[k + 1:])[::-1]]))
    outer = _not_a_knot_spline(log_a[:k][::-1], (log_a + log_s)[:k][::-1])
    # log a (ascending) and log s at the nodes s = 1 + 1e-7, 1 and 1 - 1e-7
    gap_a, gap_s = log_a[k + 1:k - 2:-1], log_s[k + 1:k - 2:-1]
    log_lap = math.log(math.pi * gamma * gamma)

    def log_rho(log_u):
        out = np.empty(log_u.shape)
        near, tail = log_u <= gap_a[0], log_u > log_a[0]
        gap = ~near & (log_u < gap_a[2])
        mid = ~(near | gap | tail)
        out[near] = np.log(inner(np.exp(log_u[near])))
        out[gap] = log_u[gap] + np.interp(log_u[gap], gap_a, gap_s)
        out[mid] = outer(log_u[mid])
        out[tail] = -0.5 * (log_lap + (gamma - 2.0) * log_u[tail])
        return out

    return log_rho


def _rho_radial(w: WeightProfile, a) -> np.ndarray:
    """rho at the moduli a, from one C = 1 table per gamma.

    mu_C = C*mu_1 is homogeneous of degree gamma, so rho_C(a) =
    rho_1(c*a)/c with c = C^(1/gamma); `_unit_rho_table` gives rho_1 for
    every C and every modulus.
    """
    a = np.asarray(a, dtype=float)
    if w.is_classical_like:
        return np.full(a.shape, (4.0 * math.pi) ** -0.5)
    log_c = math.log(w.c_gamma) / w.gamma
    with np.errstate(divide="ignore"):
        return np.exp(_unit_rho_table(w.gamma)(np.log(a) + log_c) - log_c)


def rho_many(w: WeightProfile, z) -> np.ndarray:
    """Vectorised rho over an array of points.

    The power-weight values come from the cached per-gamma table of
    `_rho_radial`.  Measured against the root of mu(D(z, r)) = 1 solved to
    rounding on `mu_disc_many`, for gamma from 0.2 to 8, C from 1e-3 to
    1e3 and |z| from 1e-6 to 1e6, points within 1e-9 of rho(u) = u
    included, they are good to 2.8e-7 relative, and to 1.2e-7 at gamma =
    0.02, 0.05 and 0.1 (rho(0) = 2, |z| from 1e-3 to 1e6).
    """
    return _rho_radial(w, np.abs(np.asarray(z, dtype=complex)))


# ---------------------------------------------------------------------------
# Muckenhoupt condition for rho^(p-2)
# ---------------------------------------------------------------------------

class ApRange(NamedTuple):
    """rho^(p-2) behaves like (1 + |z|)^beta, beta = (1 - gamma/2)(p - 2),
    as rho is about rho(0) near the origin and like |z|^(1 - gamma/2) at
    infinity; such a weight is in A_p(R^2) exactly when beta lies strictly
    between lo = -2 and hi = 2(p - 1) (Grafakos, Classical Fourier
    Analysis, 7.1).  On an end of the range the disc ratio grows like
    log R, outside it like R^e, e = dist(beta, [lo, hi])/p: the slope
    `ap_probe` fits."""

    beta: float
    lo: float
    hi: float

    @property
    def is_ap(self) -> bool:                   # the package's one A_p rule
        return self.lo < self.beta < self.hi


def ap_range(w: WeightProfile, p: float) -> ApRange:
    """The `ApRange` of rho^(p-2); no rho is evaluated."""
    return ApRange((1.0 - w.gamma / 2.0) * (p - 2.0), -2.0, 2.0 * (p - 1.0))


class ApReport(NamedTuple):
    """Disc-ratio probe of the Muckenhoupt condition for rho^(p-2).

    ratios[i] is the larger of the values at the two sampled centres
    (|c| = 0 and |c| = disc_radii[i]), at disc radius disc_radii[i], of

        (1/|D|) * (int_D rho^p dnu)^(1/p) * (int_D rho^q dnu)^(1/q),

    with dnu = dm/rho^2 and q the conjugate exponent.  fitted_exponent, the
    log-log slope over the largest decade (`loglog_fit`), measures its growth
    R^e, e = dist(beta, [lo, hi])/p; is_ap is the verdict of `ap_range`.
    """

    p: float
    disc_radii: tuple
    ratios: tuple
    fitted_exponent: float
    is_ap: bool


def loglog_fit(radii, values):
    """Least-squares slope of log(values) against log(radii), with its R^2,
    over the positive entries in the last decade of (ascending) radii; None
    when fewer than four entries remain.  The package's one slope fit."""
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


def default_ap_radii(w: WeightProfile) -> list:
    """12 radii spanning 3.2 decades, starting at 2 rho(0)."""
    r0 = 2.0 * w.rho_origin
    return list(np.geomspace(r0, r0 * 10.0 ** 3.2, 12))


def _disc_ratios(w: WeightProfile, a: np.ndarray, R: np.ndarray, p: float) -> np.ndarray:
    """The A_p disc ratio at every disc D(c, R), |c| = a (broadcast), as the
    (fine, coarse) pair of `_radial_disc_integral`."""
    q = p / (p - 1.0)
    a, R = np.broadcast_arrays(a, R)
    ratios = np.ones((2,) + a.shape)
    # Small-disc shortcut: rho is 1-Lipschitz, hence nearly constant on D,
    # and the ratio collapses to 1.
    big = R > _rho_radial(w, a) / 4.0
    if not np.any(big):
        return ratios
    t, wt = _geometric_rule(1e-8, 30)
    # rho^(p-2) and rho^(q-2) stacked: one rho evaluation serves both
    f = lambda u: _rho_radial(w, u) ** np.reshape([p - 2.0, q - 2.0], (2,) + (1,) * np.ndim(u))

    def full(u_full: np.ndarray) -> np.ndarray:
        u = u_full[..., None] * t
        return 2.0 * math.pi * u_full * ((f(u) * u) @ wt)

    ip, iq = _radial_disc_integral(f, full, a[big], R[big]).swapaxes(0, 1)
    ratios[:, big] = ip ** (1.0 / p) * iq ** (1.0 / q) / (math.pi * R[big] ** 2)
    return ratios


def ap_probe(w: WeightProfile, p: float, radii: Sequence[float]) -> ApReport:
    """Probe whether rho^(p-2) satisfies the A_p disc condition.

    For each radius the ratio is the larger of those of two discs: the
    origin-centred one and one centred at distance radius, whose edge
    passes through the origin.  The weight is radial, so every centre on
    the circle |c| = radius gives the same disc up to rotation.  The
    slope is a `loglog_fit`, so at least 4 of the ascending, positive
    `radii` must lie within a factor 10 of the largest (ValueError naming
    `radii`, before any quadrature); the p = 2 case gives ratio exactly 1
    for every disc.  All discs of all radii go through the disc quadrature
    as one batch; is_ap is `ap_range`'s verdict, whatever the slope.

    The ratios pass the 12- versus 24-panel self-check at _AP_CHECK_RTOL =
    1e-4 relative, not the 1e-6 that guards mu: the integrand
    rho^(p-2) from the table is only C^2 at its knots, and the two rules
    differ by up to 1.4e-5 (gamma = 1, p = 3).  A relative ratio error eps
    moves the slope fitted over a decade by about eps at most, so the
    bound sits 500 times below criterion 7's 0.05 bound on the slope.
    Raises NumericalError naming the discs and radii that fail it.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie in (1, inf)")
    radii = [float(r) for r in radii]
    if not (all(map(math.isfinite, radii)) and sum(r >= radii[-1] / 10.0 for r in radii) >= 4
            and radii[0] > 0.0 and all(r1 < r2 for r1, r2 in zip(radii, radii[1:]))):
        raise ValueError(f"radii must be finite, positive and ascending, with at "
                         f"least 4 within a factor 10 of the largest, not {radii}")
    R = np.asarray(radii)[:, None]
    a = R * [0.0, 1.0]                          # the centre distances |c|
    vals, coarse = _disc_ratios(w, a, R, p)
    bad = ~np.all(np.isfinite(vals) & (vals > 0.0), axis=1)
    if np.any(bad):
        raise NumericalError(f"ap_probe quadrature failed at radius "
                             f"{np.asarray(radii)[bad].tolist()}")
    _check_refinement(vals, coarse, a, R, "ap_probe", _AP_CHECK_RTOL)
    sup_ratios = [float(v) for v in vals.max(axis=1)]
    return ApReport(p=p, disc_radii=tuple(radii), ratios=tuple(sup_ratios),
                    fitted_exponent=loglog_fit(radii, sup_ratios)[0],
                    is_ap=ap_range(w, p).is_ap)


# ---------------------------------------------------------------------------
# Doubling exponent
# ---------------------------------------------------------------------------

def estimate_t(w: WeightProfile) -> float:
    """The doubling exponent t of the weight: the largest t in (0, 1] with

        rho(z)/rho(zeta) <= C (|z - zeta|/rho(zeta))^(1 - t),

    as min(gamma/2, 2/gamma).

    For phi = C|z|^gamma, rho is about rho(0) near the origin and behaves
    like |z|^(1 - gamma/2) at infinity.  For gamma < 2 the ratio is largest with
    zeta near the origin and |z| = a large, where it grows like
    (a/rho(0))^(1 - gamma/2), so t = gamma/2.  For gamma > 2 rho falls, the
    ratio is largest with z near the origin and |zeta| = a large, where it
    grows like a^(gamma/2 - 1) and |z - zeta|/rho(zeta) like a^(gamma/2),
    so 1 - t = (gamma/2 - 1)/(gamma/2) and t = 2/gamma.  The classical
    weight (rho constant, gamma = 2) has t = 1.  No rho is evaluated.
    """
    return min(w.gamma / 2.0, 2.0 / w.gamma)


def choose_N(t: float) -> int:
    """Smallest integer strictly greater than 1/t (t = the doubling exponent)."""
    if not (0.0 < t <= 1.0):
        raise ValueError("the doubling exponent t must lie in (0, 1]")
    return math.floor(1.0 / t) + 1


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

def quasirandom(count: int, offset: int) -> np.ndarray:
    """Points k = offset + 1 .. offset + count of the additive R_6 sequence
    frac(1/2 + k alpha) in [0, 1)^6, alpha_j = g^-j with g^7 = g + 1
    (Roberts, "The unreasonable effectiveness of quasirandom sequences",
    2018): the package's one sampler, as a (count x 6) array."""
    alpha = 1.1127756842787055 ** -np.arange(1.0, 7.0)
    return (0.5 + np.arange(offset + 1, offset + count + 1)[:, None] * alpha) % 1.0
