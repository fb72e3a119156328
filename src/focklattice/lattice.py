"""Finite lattice truncations, shell schedules, and cell geometry.

The working set is always a finite truncation |lambda| <= R of either the
critical square lattice sqrt(pi/2)*(Z+iZ) or a user-supplied point set.
The origin is point index 0 throughout.  Shell schedules order principal
value sums (partial sums over |lambda| < R with R growing through the
distinct point radii): lattice indices run in ascending radius order, so
every shell is a contiguous index range.

Nearest-point lookups, Euclidean or in the surrogate metric
|z - lambda| / rho(lambda) that assigns grid points to cells, and the
separation constant rank a few candidates per point.  On the square
lattice the candidates are the grid block around z/scale rounded to
integers (`grid_coords`), looked up in an (m, n) -> index table of the
truncation built per call.  Explicit lattices, and square-lattice queries
that round outside the truncation, take their candidates from a KD-tree
(scipy, imported on first use).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, SeparationError
from .weights import WeightProfile, mu_disc_many, rho_many

__all__ = [
    "Lattice",
    "ShellSchedule",
    "GridSpec",
    "CellGeometry",
    "SQUARE_SCALE",
    "square_lattice",
    "explicit_lattice",
    "upper_density",
    "shells_for",
    "nearest_index",
    "grid_coords",
    "cell_geometry",
]

SQUARE_SCALE = math.sqrt(math.pi / 2.0)

_MIN_DELTA_SEP = 1e-6
# Cell lookups and the separation on the square lattice rank the 5 x 5 grid
# block around the rounded point.  It holds the nine Euclidean-nearest
# points of any z (the KD-tree candidates of cells) and the 11 nearest
# neighbours of a lattice point (those of the separation).
_BLOCK = 2
# radii within this relative gap (floor 1) are one shell
_SHELL_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class Lattice:
    """A finite, rho-separated point set containing the origin at index 0,
    indexed in ascending radius order (ValueError otherwise)."""

    points: np.ndarray          # complex, index 0 is the origin
    scale: float                # sqrt(pi/2) for square kind
    truncation_radius: float
    rho_values: np.ndarray      # rho(lambda) per point
    kind: str                   # "square" | "explicit"
    delta_sep: float            # min |l-l'| / max(rho(l), rho(l'))

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=complex))
        object.__setattr__(self, "rho_values", np.asarray(self.rho_values, dtype=float))
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

    @property
    def max_rho(self) -> float:
        return float(self.rho_values.max())

    def guard_radius(self, factor: float = 5.0) -> float:
        """Inner radius unaffected by truncation-edge bias."""
        return self.truncation_radius - factor * self.max_rho


def _order_points(points: np.ndarray) -> np.ndarray:
    # Deterministic ordering: ascending |p|, ties by (Re, Im); origin first.
    r = np.abs(points)
    order = np.lexsort((points.imag, points.real, np.round(r, 12)))
    return points[order]


def grid_coords(z, scale: float):
    """(m, n) of the grid point scale*(m + in) nearest to each z, as
    integer-valued floats: the one rounding behind every square-lattice
    lookup (nearest points, sigma's reduction to the fundamental cell, the
    FFT grid)."""
    z = np.asarray(z)
    return np.rint(z.real / scale), np.rint(z.imag / scale)


def _kd_candidates(points: np.ndarray, z: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k points Euclidean-nearest to each z, shape
    (len(z), k).  scipy loads on first use."""
    from scipy.spatial import cKDTree
    tree = cKDTree(np.column_stack([points.real, points.imag]))
    idx = tree.query(np.column_stack([z.real, z.imag]), k=k)[1]
    return np.asarray(idx, dtype=np.intp).reshape(len(z), k)


def _candidates(points: np.ndarray, z: np.ndarray, k: int,
                scale: Optional[float] = None, block: int = 0) -> np.ndarray:
    """Candidate indices per z, shape (len(z), c), -1 marking none.

    Square lattice (scale given): the (2 block + 1)^2 grid block around z
    rounded by `grid_coords`, looked up in an (m, n) -> index table of the
    truncation.  Explicit lattices, and rows whose rounded point lies
    outside the truncation, get the k Euclidean-nearest points instead.
    """
    k = min(k, points.size)
    if scale is None:
        return _kd_candidates(points, z, k)
    pm, pn = (c.astype(np.intp) for c in grid_coords(points, scale))
    M = int(max(np.abs(pm).max(), np.abs(pn).max()))
    pad = M + block             # blocks around |m|, |n| <= M stay on the table
    table = np.full((2 * pad + 1, 2 * pad + 1), -1, dtype=np.intp)
    table[pm + pad, pn + pad] = np.arange(points.size)
    m, n = grid_coords(z, scale)
    out = ~((np.abs(m) <= M) & (np.abs(n) <= M))
    m, n = (np.where(out, 0, c).astype(np.intp) + pad for c in (m, n))
    off = np.arange(-block, block + 1)
    cand = table[(m[:, None] + off)[:, :, None],
                 (n[:, None] + off)[:, None, :]].reshape(len(z), off.size ** 2)
    out |= cand[:, off.size ** 2 // 2] < 0
    if out.any():
        cand[out] = -1
        cand[out, :k] = _kd_candidates(points, z[out], k)
    return cand


def _separation(points: np.ndarray, rho_vals: np.ndarray,
                scale: Optional[float] = None) -> float:
    """The separation constant min |l - l'| / max(rho(l), rho(l')).  rho is
    1-Lipschitz, so the minimiser is a pair of near neighbours: the grid
    block of the square lattice (scale given), else each point's 11 nearest
    neighbours."""
    if points.size < 2:
        return math.inf
    own = np.arange(points.size)
    best = math.inf
    # one candidate column at a time keeps the temporaries O(points)
    for j in _candidates(points, points, 12, scale, _BLOCK).T:
        i = own[(j >= 0) & (j != own)]
        if i.size:
            d = np.abs(points[i] - points[j[i]])
            best = min(best, float(np.min(d / np.maximum(rho_vals[i], rho_vals[j[i]]))))
    return best


def square_lattice(R: float, w: WeightProfile) -> Lattice:
    """All points sqrt(pi/2)*(m+in) with |point| <= R, origin at index 0."""
    s = SQUARE_SCALE
    if R < 3.0 * s:
        raise ValueError(f"R must be at least 3*scale = {3 * s:.3f}")
    M = int(math.ceil(R / s)) + 1
    m, n = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1), indexing="ij")
    pts = (s * (m + 1j * n)).ravel()
    pts = _order_points(pts[np.abs(pts) <= R])
    rv = rho_many(w, pts)
    return Lattice(points=pts, scale=s, truncation_radius=float(R),
                   rho_values=rv, kind="square",
                   delta_sep=_separation(pts, rv, s))


def explicit_lattice(points: Sequence[complex], w: WeightProfile) -> Lattice:
    """Wrap user-supplied points; rejects duplicates, a missing origin, and
    sets that are not rho-separated."""
    pts = np.asarray(list(points), dtype=complex)
    if pts.size == 0 or np.min(np.abs(pts)) > 0.0:
        raise SeparationError("lattice must contain the origin")
    pts = _order_points(pts)
    rv = rho_many(w, pts)
    delta = _separation(pts, rv)
    if delta < _MIN_DELTA_SEP:
        raise SeparationError(
            f"points are not rho-separated (delta_sep = {delta:.3e})")
    R = float(np.max(np.abs(pts)))
    scale = float(np.min(np.abs(pts[1:]))) if pts.size > 1 else 1.0
    return Lattice(points=pts, scale=scale, truncation_radius=R,
                   rho_values=rv, kind="explicit", delta_sep=delta)


def upper_density(lat: Lattice, w: WeightProfile, r_schedule: Sequence[float],
                  centers: Optional[Sequence[complex]] = None) -> float:
    """Counting surrogate for the upper uniform density.

    For each sampled center z and each r in the schedule, the ratio
    #(Lambda on the closed disc D(z, r*rho(z))) / mu(D(z, r*rho(z))) is
    formed; the value returned is the maximum over centers at the largest r
    (the limsup surrogate).  The critical square lattice gives 1/(2*pi).
    NumericalError when the largest disc reaches past the truncation.
    """
    rs = sorted(float(r) for r in r_schedule)
    if not rs:
        raise ValueError("empty schedule")
    # by default the nine points nearest the origin (index order is radius order)
    centers = np.asarray(lat.points[:9] if centers is None else centers, dtype=complex)
    rho_c = rho_many(w, centers)
    reach = np.abs(centers) + rs[-1] * rho_c
    if np.any(reach > lat.truncation_radius):
        raise NumericalError("schedule exceeds the safe truncation margin")
    rad = rs[-1] * rho_c
    counts = [np.count_nonzero(np.abs(lat.points - c) <= rc + 1e-12)
              for c, rc in zip(centers, rad)]
    return float(np.max(np.asarray(counts) / mu_disc_many(w, centers, rad)))


@dataclass(frozen=True, eq=False)
class ShellSchedule:
    """Grouping of lattice indices into shells of equal |lambda|.

    Partial sums grow through values of |lambda| < R wherever a transform
    is centred.  Index order is radius order, so shell k is the index range
    starts[k] .. starts[k+1] - 1 (the last shell ends at n_points - 1);
    shell radii are strictly ascending.
    """

    radii: np.ndarray              # strictly ascending shell radii
    starts: np.ndarray             # first index of each shell
    n_points: int

    @property
    def n_shells(self) -> int:
        return len(self.starts)

    @property
    def members(self) -> tuple:
        """Index array of each shell; together they partition the indices."""
        return tuple(np.split(np.arange(self.n_points), self.starts[1:]))


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


@dataclass(frozen=True)
class GridSpec:
    """Rectangular midpoint grid: nx-by-ny cells covering [x0,x1]x[y0,y1]."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def points(self) -> np.ndarray:
        xs = self.x0 + (np.arange(self.nx) + 0.5) * (self.x1 - self.x0) / self.nx
        ys = self.y0 + (np.arange(self.ny) + 0.5) * (self.y1 - self.y0) / self.ny
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return X + 1j * Y

    @property
    def cell_area(self) -> float:
        return (self.x1 - self.x0) / self.nx * (self.y1 - self.y0) / self.ny

    @property
    def corner_radius(self) -> float:
        return max(abs(complex(x, y))
                   for x in (self.x0, self.x1) for y in (self.y0, self.y1))


@dataclass(frozen=True, eq=False)
class CellGeometry:
    """Nearest-cell assignment under |z - lambda| / rho(lambda).

    cell_of maps each grid point to a lattice index; cell_measure[i] is the
    Riemann sum of dm/rho(z)^2 over the points assigned to cell i (a
    uniformly bounded quantity across cells).
    """

    grid: GridSpec
    cell_of: np.ndarray          # int array, shape (nx, ny)
    cell_measure: dict           # lattice index -> float
    max_diameter_over_rho: float # empirical cell-size diagnostic

    def to_csv_rows(self):
        pts = self.grid.points()
        for i in range(self.grid.nx):
            for j in range(self.grid.ny):
                z = pts[i, j]
                yield (z.real, z.imag, int(self.cell_of[i, j]))


def nearest_index(lat: Lattice, z, cell: bool = False):
    """Index of the lattice point nearest to each z, and the distance.

    With cell=True nearness is the surrogate |z - lambda| / rho(lambda),
    minimised over nearby candidates (rho is 1-Lipschitz and varies little
    between neighbours): the 5 x 5 grid block around the rounded point on
    the square lattice, else the nine Euclidean-nearest points; the
    distance returned is that surrogate.
    """
    z = np.asarray(z, dtype=complex).ravel()
    square = lat.kind == "square"
    cand = _candidates(lat.points, z, 9 if cell else 1,
                       lat.scale if square else None, _BLOCK if cell else 0)
    valid = cand >= 0
    safe = np.where(valid, cand, 0)
    dist = np.abs(z[:, None] - lat.points[safe])
    if cell:
        dist = dist / lat.rho_values[safe]
    dist = np.where(valid, dist, np.inf)
    best = np.argmin(dist, axis=1)
    rows = np.arange(len(z))
    return cand[rows, best], dist[rows, best]


def cell_geometry(lat: Lattice, grid: GridSpec, w: WeightProfile) -> CellGeometry:
    """Assign grid points to cells and accumulate the cell measures."""
    if grid.corner_radius > lat.truncation_radius - 2.0 * lat.max_rho:
        raise ValueError("grid extends outside the safe lattice region")
    flat = grid.points().ravel()
    assign, sur_best = nearest_index(lat, flat, cell=True)

    rho_z = rho_many(w, flat)
    dens = grid.cell_area / rho_z ** 2
    measure = {}
    for idx in np.unique(assign):
        measure[int(idx)] = float(dens[assign == idx].sum())
    return CellGeometry(grid=grid,
                        cell_of=assign.reshape(grid.nx, grid.ny),
                        cell_measure=measure,
                        max_diameter_over_rho=2.0 * float(sur_best.max()))
