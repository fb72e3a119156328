"""Finite lattice truncations, shell schedules, and nearest-point lookups.

The working set is always a finite truncation |lambda| <= R of either the
critical square lattice sqrt(pi/2)*(Z+iZ) or a user-supplied point set.
The origin is point index 0 throughout.  A lattice is given its weight
once and owns it: rho per point, the density surrogate, the multiplier's
weighted g' and the weighted trace values all read `Lattice.weight`.

Shell schedules order principal value sums (partial sums over |lambda| < R
with R growing through the distinct point radii): lattice indices run in
ascending radius order, so every shell is a contiguous index range.

Euclidean nearest-point lookups and the separation constant (in the
metric |lambda - mu| / max(rho_lambda, rho_mu)) are one exact search
(`_search`): the points are binned once into a bucket grid, one point per
bucket on the square lattice, and each query scans rings of buckets until
no farther ring can win.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, SchemaError, SeparationError
from .weights import WeightProfile, mu_disc_many, rho_many

__all__ = [
    "Lattice",
    "ShellSchedule",
    "SQUARE_SCALE",
    "square_lattice",
    "explicit_lattice",
    "upper_density",
    "shells_for",
    "nearest_index",
    "grid_coords",
    "scatter_indexed",
]

SQUARE_SCALE = math.sqrt(math.pi / 2.0)

_MIN_DELTA_SEP = 1e-6
# (query, bin) pairs gathered per step of the search: about 0.5 MB of
# temporaries on the square lattice, one point per bin
_RING_PAIRS = 1 << 12
# radii within this relative gap (floor 1) are one shell
_SHELL_RTOL = 1e-9


class Lattice:
    """A finite, rho-separated point set containing the origin at index 0,
    indexed in ascending radius order (ValueError otherwise), and the weight
    it is measured against: the one weight that the multiplier and the trace
    data read.  rho per point is computed from that weight, so the two
    cannot disagree.  The point and rho arrays are read-only.  `delta_sep`
    and `inv_points` are computed on first read, so a job that never reads
    them never pays for them."""

    def __init__(self, points, scale: float, truncation_radius: float,
                 weight: WeightProfile, kind: str):
        self.points = np.asarray(points, dtype=complex)   # index 0 is the origin
        self.scale = scale                 # sqrt(pi/2) for square kind
        self.truncation_radius = truncation_radius
        self.weight = weight
        self.rho_values = rho_many(weight, self.points)   # rho per point
        self.kind = kind                   # "square" | "explicit"
        self.points.setflags(write=False)
        self.rho_values.setflags(write=False)
        r = self.radii
        if np.any(np.diff(r) < -_SHELL_RTOL * np.maximum(1.0, r[1:])):
            raise ValueError("lattice points must be in ascending radius order")

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def radii(self) -> np.ndarray:
        return np.abs(self.points)

    @functools.cached_property
    def delta_sep(self) -> float:
        """min |l - l'| / max(rho(l), rho(l')) over distinct points, by the
        exact search over each point's neighbours; inf below two points."""
        h = self.scale if self.kind == "square" else None
        return float(_search(self.points, self.rho_values, self.points,
                             self.rho_values, h, exclude=True)[1].min())

    @functools.cached_property
    def inv_points(self) -> np.ndarray:
        """1/lambda per point, 0 at the origin (read-only)."""
        inv = np.zeros(len(self), dtype=complex)
        inv[1:] = 1.0 / self.points[1:]
        inv.setflags(write=False)
        return inv

    @property
    def max_rho(self) -> float:
        return float(self.rho_values.max())

    def guard_radius(self) -> float:
        """Inner radius unaffected by truncation-edge bias: R - 5 max rho."""
        return self.truncation_radius - 5.0 * self.max_rho


def _order_points(points: np.ndarray) -> np.ndarray:
    # Deterministic ordering: ascending |p|, ties by (Re, Im); origin first.
    r = np.abs(points)
    order = np.lexsort((points.imag, points.real, np.round(r, 12)))
    return points[order]


def scatter_indexed(n: int, indices, values, what: str):
    """(table, seen): the values placed at their indices in a length-n
    complex array (0 elsewhere), and which indices were given.

    Indices are truncated toward zero, like int().  The first one outside
    [0, n) raises SchemaError("<what> index k out of range"), and a
    repeated index keeps its last value."""
    idx = np.trunc(np.asarray(indices, dtype=float))
    values = np.asarray(values, dtype=complex)
    bad = ~((idx >= 0) & (idx < n))
    if bad.any():
        raise SchemaError(f"{what} index {idx[np.argmax(bad)]:.0f} out of range")
    # the position of each index's last entry; np.maximum is order-free,
    # where a fancy assignment would leave the order of repeats unspecified
    last = np.full(n, -1)
    np.maximum.at(last, idx.astype(np.intp), np.arange(len(idx)))
    seen = last >= 0
    table = np.zeros(n, dtype=complex)
    table[seen] = values[last[seen]]
    return table, seen


def grid_coords(z, scale: float):
    """(m, n) of the grid point scale*(m + in) nearest to each z, as
    integer-valued floats: the one rounding behind every square-lattice
    lookup (nearest points, sigma's reduction to the fundamental cell, the
    FFT grid)."""
    z = np.asarray(z)
    return np.rint(z.real / scale), np.rint(z.imag / scale)


def _search(points: np.ndarray, rho: np.ndarray, z: np.ndarray,
            r_z: np.ndarray, h: Optional[float] = None,
            exclude: bool = False):
    """Index and value of the exact argmin over the points lambda of
    |z - lambda| / max(r_z, rho_lambda), for each z (exclude: not z's own
    index, with z the points themselves).

    Bentley, Stanat & Williams' cell technique: the points are binned once
    by `grid_coords(points, h)` into a CSR table; h defaults to the
    bounding-box side over ceil(sqrt(N)), so the table has O(N) bins.  Each
    query scans rings of bins around its bin, clipped into the table.  A
    point beyond ring k is at least hypot(gap, k h) from z, gap being z's
    distance to the points' bounding box (projection onto the box shortens
    no distance to a point inside it), so the query stops once that reaches
    best * max(r_z, max rho).
    """
    x, y = points.real, points.imag
    if h is None:
        side = max(np.ptp(x), np.ptp(y))
        h = side / math.ceil(math.sqrt(points.size)) if side > 0 else 1.0
    pi, pj = (c.astype(np.intp) for c in grid_coords(points, h))
    i0, j0 = pi.min(), pj.min()
    ni, nj = pi.max() - i0 + 1, pj.max() - j0 + 1
    key = (pi - i0) * nj + (pj - j0)
    order = np.argsort(key, kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(key, minlength=ni * nj))])
    proj = np.clip(z.real, x.min(), x.max()) + 1j * np.clip(z.imag, y.min(), y.max())
    gap = np.abs(z - proj)
    ci, cj = (c.astype(np.intp) for c in grid_coords(proj, h))
    ci, cj = ci - i0, cj - j0
    last = np.maximum.reduce([ci, ni - 1 - ci, cj, nj - 1 - cj])
    reach = np.maximum(r_z, rho.max())
    best, arg = np.full(z.size, np.inf), np.zeros(z.size, dtype=np.intp)
    active, k = np.arange(z.size), 0
    while active.size:
        d = np.arange(-k, k + 1)
        di, dj = np.meshgrid(d, d, indexing="ij")
        ring = np.maximum(np.abs(di), np.abs(dj)) == k
        di, dj = di[ring], dj[ring]
        step = max(1, _RING_PAIRS // di.size)
        for q in (active[s:s + step] for s in range(0, active.size, step)):
            bi, bj = ci[q, None] + di, cj[q, None] + dj
            ok = (bi >= 0) & (bi < ni) & (bj >= 0) & (bj < nj)
            b = np.where(ok, bi * nj + bj, 0).ravel()
            n = np.where(ok.ravel(), starts[b + 1] - starts[b], 0)
            # position in `order` of each gathered point: bin start + rank
            pos = np.repeat(starts[b] - np.cumsum(n) + n, n) + np.arange(n.sum())
            lam, row = order[pos], np.repeat(np.repeat(q, di.size), n)
            val = np.abs(z[row] - points[lam]) / np.maximum(r_z[row], rho[lam])
            if exclude:
                val[lam == row] = np.inf
            np.minimum.at(best, row, val)
            win = val == best[row]
            arg[row[win]] = lam[win]
        cover = np.hypot(gap[active], k * h) >= best[active] * reach[active]
        active = active[~(cover | (k >= last[active]))]
        k += 1
    return arg, best


def square_lattice(R: float, w: WeightProfile) -> Lattice:
    """All points sqrt(pi/2)*(m+in) with |point| <= R, origin at index 0."""
    s = SQUARE_SCALE
    if R < 3.0 * s:
        raise ValueError(f"R must be at least 3*scale = {3 * s:.3f}")
    M = int(math.ceil(R / s)) + 1
    m, n = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1), indexing="ij")
    pts = (s * (m + 1j * n)).ravel()
    pts = _order_points(pts[np.abs(pts) <= R])
    return Lattice(points=pts, scale=s, truncation_radius=float(R), weight=w,
                   kind="square")


def explicit_lattice(points: Sequence[complex], w: WeightProfile) -> Lattice:
    """Wrap user-supplied points; rejects duplicates, a missing origin, and
    sets that are not rho-separated."""
    pts = np.asarray(list(points), dtype=complex)
    if pts.size == 0 or np.min(np.abs(pts)) > 0.0:
        raise SeparationError("lattice must contain the origin")
    pts = _order_points(pts)
    R = float(np.max(np.abs(pts)))
    scale = float(np.min(np.abs(pts[1:]))) if pts.size > 1 else 1.0
    lat = Lattice(points=pts, scale=scale, truncation_radius=R, weight=w,
                  kind="explicit")
    if lat.delta_sep < _MIN_DELTA_SEP:
        raise SeparationError(
            f"points are not rho-separated (delta_sep = {lat.delta_sep:.3e})")
    return lat


def upper_density(lat: Lattice, r: float,
                  centers: Optional[Sequence[complex]] = None) -> float:
    """Counting surrogate for the upper uniform density.

    For each sampled center z the ratio #(Lambda on the closed disc
    D(z, r*rho(z))) / mu(D(z, r*rho(z))) is formed, in the lattice's weight;
    the value returned is the maximum over centers (the limsup surrogate at
    radius factor r).  The critical square lattice gives 1/(2*pi).  The
    default centers are the points nearest the origin, at most nine in
    index order (radius order), whose discs lie inside the truncation.
    NumericalError when no default center qualifies, when a given center's
    disc reaches past the truncation, or when a disc mass is not a
    positive finite number (a radius so small that it underflows).
    """
    w, R = lat.weight, lat.truncation_radius
    if centers is None:
        inside = np.abs(lat.points) + float(r) * lat.rho_values <= R
        centers = lat.points[inside][:9]
    centers = np.asarray(centers, dtype=complex)
    rad = float(r) * rho_many(w, centers)
    if centers.size == 0 or np.any(np.abs(centers) + rad > R):
        raise NumericalError("radius factor exceeds the safe truncation margin")
    counts = [np.count_nonzero(np.abs(lat.points - c) <= rc + 1e-12)
              for c, rc in zip(centers, rad)]
    mass = mu_disc_many(w, centers, rad)
    bad = ~(np.isfinite(mass) & (mass > 0.0))
    if np.any(bad):
        raise NumericalError(f"disc mass at radius factor {r} is not a positive "
                             f"finite number: {mass[bad][:4].tolist()}")
    return float(np.max(np.asarray(counts) / mass))


class ShellSchedule:
    """Grouping of lattice indices into shells of equal |lambda|.

    Partial sums grow through values of |lambda| < R wherever a transform
    is centred.  Index order is radius order, so shell k is the index range
    starts[k] .. starts[k+1] - 1 (the last shell ends at n_points - 1);
    shell radii are strictly ascending.
    """

    def __init__(self, radii: np.ndarray, starts: np.ndarray, n_points: int):
        self.radii = radii             # strictly ascending shell radii
        self.starts = starts           # first index of each shell
        self.n_points = n_points

    @property
    def n_shells(self) -> int:
        return len(self.starts)


def shells_for(lat: Lattice) -> ShellSchedule:
    """Split the (radius-ordered) indices into shells of equal |lambda|.

    Points of equal radius are inseparable and always share a shell, so a
    principal value is well-defined regardless of within-shell order.
    """
    r = lat.radii
    # lattice radii are genuinely discrete, so chained drift is not a concern
    gaps = np.diff(r) > _SHELL_RTOL * np.maximum(1.0, r[1:])
    starts = np.concatenate([[0], np.nonzero(gaps)[0] + 1])
    return ShellSchedule(radii=np.maximum.reduceat(r, starts), starts=starts,
                         n_points=len(r))


def nearest_index(lat: Lattice, z):
    """Index of the lattice point nearest to each z, and the distance: the
    exact argmin over every lattice point (`_search`), for z anywhere in
    the plane."""
    z = np.asarray(z, dtype=complex).ravel()
    return _search(lat.points, np.ones(len(lat)), z, np.zeros(z.size),
                   lat.scale if lat.kind == "square" else None)
