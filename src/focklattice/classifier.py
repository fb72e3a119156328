"""Regime-by-regime decision procedure for the trace problem.

Given lattice values c, a multiplier, and an exponent p, the classifier
evaluates exactly the condition set prescribed for that regime (the
lattice, and the weight it carries, are the multiplier's):

    p = 1        size condition (a) plus absolutely convergent Cauchy (b)
                 and rho-weighted second-order (c) sums;
    p = 2        (a) and the p.v. Cauchy condition (b);
    1 < p < 2    (a), (b), plus (c) when rho^(p-2) is not A_p, read in
                 closed form from the power its growth follows (`ap_range`);
    2 < p < inf  as above while the doubling exponent t exceeds 1/2,
                 otherwise (a) plus the higher-order family (b') up to the
                 smallest integer N > 1/t;
    p = inf      sup-norm variants: size, the modified Cauchy sum anchored
                 at the origin, and orders 2..N.

Finiteness of an infinite sum is undecidable at finite truncation, so each
condition yields a tri-state verdict read off the partial-sum trajectory:
flattening (last-decade growth <= 1%) is bounded, a clean power law
(fitted exponent >= 0.05 with R^2 >= 0.9) is diverging, anything else is
undetermined.  A bounded verdict on inner p.v. sums is demoted to
undetermined when more than 10% of them did not converge.  Each report
carries the numbers its verdict was read from (`Margins`).  `select_branch`
names the conditions by id, and `condition(data, cid)` evaluates any id.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .lattice import Lattice, shells_for
from .multiplier import Multiplier
from .transforms import (OUTER_GUARD_FRACTION, PV_RTOL, _sequence,
                         batch_higher, batch_modified_inf)
# ap_probe is unused here, but perfbench's tracer wraps it under this
# module's name (focklattice.classifier:ap_probe) and cannot install without it
from .weights import (WeightProfile, ap_probe, ap_range, choose_N, estimate_t,
                      loglog_fit, phi)

__all__ = [
    "TraceData",
    "ConditionReport",
    "BranchInfo",
    "TraceVerdict",
    "Margins",
    "trajectory_margins",
    "shell_trajectory",
    "condition_a",
    "condition",
    "select_branch",
    "classify",
]

FLATTEN_TOL = 0.01          # last-decade relative growth for "bounded"
DIVERGE_MIN_EXPONENT = 0.05
DIVERGE_MIN_R2 = 0.9
UNCONVERGED_MAX_SHARE = 0.1 # of inner sums, above which bounded is demoted


def _phi_at_points(multiplier: Multiplier) -> np.ndarray:
    """phi at every lattice point, in the lattice's weight."""
    return np.asarray(phi(multiplier.weight, multiplier.lattice.points), dtype=float)


class TraceData:
    """Lattice values with their multiplier and target exponent.

    The lattice and the weight are the multiplier's (`lattice`, `weight`),
    so the values, g' and rho are all measured against the one weight the
    lattice carries.  Values are stored in weighted form c_lambda
    e^{-phi(lambda)} (raw traces of space functions overflow doubles once
    phi(lambda) > ~700); the derived sequence d = c/g' is what every
    transform consumes.
    """

    def __init__(self, multiplier: Multiplier, p: float, c_weighted: np.ndarray):
        self.multiplier = multiplier
        self.lattice = multiplier.lattice
        self.weight = multiplier.weight
        self.p = p
        self.c_weighted = np.asarray(c_weighted, dtype=complex)
        self._d = None
        if self.c_weighted.shape != (len(self.lattice),):
            raise ValueError("values must cover every lattice index")
        if not (p == math.inf or p >= 1.0):
            raise ValueError("p must lie in [1, inf]")

    @property
    def d(self) -> np.ndarray:
        """d = c/g' over the lattice's indices: a complex array, every
        entry finite (ValueError otherwise), computed once."""
        if self._d is None:
            # d = c/g' where c is nonzero (weighted traces underflow to 0
            # far out), and 0 elsewhere
            vals = np.zeros(len(self.lattice), dtype=complex)
            nz = np.nonzero(self.c_weighted != 0)[0]
            if len(nz):
                gw = self.multiplier.g_prime_weighted(nz)
                vals[nz] = self.c_weighted[nz] / gw
            self._d = _sequence(self.lattice, vals)
        return self._d

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_weighted(cls, multiplier, p, values) -> "TraceData":
        return cls(multiplier, float(p), np.asarray(values, dtype=complex))

    @classmethod
    def from_raw(cls, multiplier, p, values) -> "TraceData":
        vals = np.asarray(values, dtype=complex) * np.exp(-_phi_at_points(multiplier))
        return cls.from_weighted(multiplier, p, vals)

    @classmethod
    def gaussian(cls, multiplier, p, w: complex) -> "TraceData":
        """Trace of f_w(z) = exp(2 conj(w) z - |w|^2); its weighted values
        e^{-|lambda - w|^2 + i Im(...)} never overflow."""
        lam = multiplier.lattice.points
        expo = 2.0 * np.conj(w) * lam - abs(w) ** 2 - _phi_at_points(multiplier)
        return cls.from_weighted(multiplier, p, np.exp(expo))

    @classmethod
    def constant(cls, multiplier, p, v: complex) -> "TraceData":
        vals = v * np.exp(-_phi_at_points(multiplier))
        return cls.from_weighted(multiplier, p, vals)

    @classmethod
    def zero(cls, multiplier, p) -> "TraceData":
        return cls.from_weighted(multiplier, p,
                                 np.zeros(len(multiplier.lattice), dtype=complex))


class Margins(NamedTuple):
    """The numbers a trajectory verdict is read from, to be held against
    FLATTEN_TOL, DIVERGE_MIN_EXPONENT and DIVERGE_MIN_R2.

    growth is the relative increase over the last decade of radii (0 for an
    all-zero trajectory, None when the decade starts at 0); slope and r2
    come from the log-log fit over that decade (None when too short, or
    when growth reads bounded: a fit to a flat trajectory fits rounding)."""

    growth: Optional[float]
    slope: Optional[float] = None
    r2: Optional[float] = None

    @property
    def verdict(self) -> str:
        if self.growth is not None and self.growth <= FLATTEN_TOL:
            return "bounded"
        if self.slope is None:
            return "undetermined"
        if self.slope >= DIVERGE_MIN_EXPONENT and self.r2 >= DIVERGE_MIN_R2:
            return "diverging"
        return "undetermined"


class ConditionReport(NamedTuple):
    """One trace condition's partial-sum trajectory and verdict."""

    condition_id: str
    partial_trajectory: Tuple[Tuple[float, float], ...]
    verdict: str                       # bounded | diverging | undetermined
    margins: Margins                   # what the trajectory verdict read
    inner_unconverged: int = 0
    inner_total: int = 0


def trajectory_margins(radii, values) -> Margins:
    """Last-decade growth, and the log-log slope and R^2 unless growth
    reads bounded, of a nondecreasing trajectory of positive sums."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(values) == 0 or values[-1] == 0.0:
        return Margins(0.0)
    base = values[int(np.argmax(radii >= radii[-1] / 10.0))]
    growth = float(values[-1] / base - 1.0) if base > 0 else None
    if growth is not None and growth <= FLATTEN_TOL:
        return Margins(growth)
    fit = loglog_fit(radii, values)
    return Margins(growth) if fit is None else Margins(growth, *fit)


def shell_trajectory(lat: Lattice, per_index: np.ndarray, p: float,
                     indices: Optional[np.ndarray] = None):
    """Cumulative l^p mass (running sup for p = inf) of per-index terms over
    the shells of |lambda|: (shell radii, cumulative values).

    per_index covers every lattice index, or only `indices` when given;
    then only the shells holding one of them are reported.
    """
    sched = shells_for(lat)
    if indices is None:
        indices = np.arange(len(lat))
    terms = np.zeros(len(lat))
    terms[indices] = per_index
    held = np.zeros(len(lat), dtype=bool)
    held[indices] = True
    keep = np.logical_or.reduceat(held, sched.starts)
    if math.isinf(p):
        cum = np.maximum.accumulate(np.maximum.reduceat(terms, sched.starts))
    else:
        cum = np.cumsum(np.add.reduceat(terms, sched.starts))
    return sched.radii[keep], cum[keep]


def condition_a(data: TraceData) -> ConditionReport:
    """Size condition: cumulative sum of |c|^p e^{-p phi} (running sup of
    |c| e^{-phi} for p = inf) over ascending shells."""
    mags = np.abs(data.c_weighted)
    p = data.p
    per = mags if math.isinf(p) else mags ** p
    radii, vals = shell_trajectory(data.lattice, per, p)
    margins = trajectory_margins(radii, vals)
    cid = "inf_a" if math.isinf(p) else "a"
    traj = tuple(zip(radii.tolist(), vals.tolist()))
    return ConditionReport(cid, traj, margins.verdict, margins)


def _outer_indices(lat: Lattice, exclude_origin: bool = False) -> np.ndarray:
    guard = OUTER_GUARD_FRACTION * lat.truncation_radius
    idx = np.nonzero(lat.radii <= guard)[0]
    if exclude_origin:
        idx = idx[np.abs(lat.points[idx]) > 0]
    return idx


def _aggregate(data: TraceData, inner_values: np.ndarray, indices: np.ndarray,
               cid: str, unconverged: int) -> ConditionReport:
    """Outer aggregation of per-lambda' magnitudes into a trajectory."""
    p = data.p
    mags = np.abs(inner_values)
    radii, vals = shell_trajectory(data.lattice, mags if math.isinf(p) else mags ** p,
                                   p, indices)
    margins = trajectory_margins(radii, vals)
    verdict = margins.verdict
    if verdict == "bounded" and unconverged > UNCONVERGED_MAX_SHARE * max(len(indices), 1):
        verdict = "undetermined"
    return ConditionReport(cid, tuple(zip(radii.tolist(), vals.tolist())), verdict,
                           margins, inner_unconverged=unconverged,
                           inner_total=len(indices))


def _order_n(data: TraceData, n: int, cid: str, rtol: float,
             advisory: bool = False) -> ConditionReport:
    """rho(lambda')^(n-1)-weighted order-n p.v. transforms at the inner
    centres, aggregated in l^p.  The inner convergence flags are not
    counted when `advisory` (the inner sums converge absolutely)."""
    lat = data.lattice
    idx = _outer_indices(lat)
    vals, conv = batch_higher(lat, data.d, idx, n, rtol)
    bad = 0 if advisory else int(np.sum(~conv))
    return _aggregate(data, vals * lat.rho_values[idx] ** (n - 1), idx, cid, bad)


def condition(data: TraceData, cid: str,
              rtol: float = PV_RTOL) -> ConditionReport:
    """The trace condition named cid: a and inf_a by `condition_a`; inf_b
    the sup over lambda' != 0 of the origin-anchored modified Cauchy sum;
    b, c, bprime(n) and inf_c(n) the order-n transform of `_order_n`, n = 1
    for the Cauchy sums (b), which converge absolutely at p = 1, and n = 2
    for Beurling-Ahlfors (c), absolute for any l^2(rho^-1) data."""
    if cid in ("a", "inf_a"):
        return condition_a(data)
    if cid == "b":
        return _order_n(data, 1, cid, rtol, advisory=data.p == 1.0)
    if cid == "c":
        return _order_n(data, 2, cid, rtol, advisory=True)
    if cid == "inf_b":
        if not math.isinf(data.p):
            raise ValueError("the modified Cauchy condition applies to p = inf only")
        lat = data.lattice
        idx = _outer_indices(lat, exclude_origin=True)
        vals, conv = batch_modified_inf(lat, data.d, idx, rtol)
        return _aggregate(data, vals, idx, cid, int(np.sum(~conv)))
    family, _, arg = cid.partition("(")
    n = arg[:-1]
    if family not in ("bprime", "inf_c") or not arg.endswith(")") \
            or not n.isdecimal() or int(n) < 1:
        raise ValueError(f"unknown condition id {cid!r}")
    return _order_n(data, int(n), cid, rtol)


class BranchInfo(NamedTuple):
    """Which regime of the characterisation applied; on the A_p branch
    `ap_margin` holds the (beta, lo, hi) of `ap_range` its verdict read."""

    case: str                  # "p=1" | "p=2" | "1<p<2" | "2<p<inf" | "p=inf"
    p: float
    is_ap: Optional[bool]
    t_effective: Optional[float]
    n_max: Optional[int]
    condition_ids: Tuple[str, ...]
    ap_margin: Optional[Tuple[float, float, float]] = None


class TraceVerdict(NamedTuple):
    branch: BranchInfo
    reports: Tuple[ConditionReport, ...]
    overall: str


def select_branch(p: float, w: WeightProfile) -> BranchInfo:
    """Branch selection from p, the weight's A_p status and its doubling
    exponent t, both closed form (`ap_range`, `estimate_t`): rho^(p-2) is
    A_p when `ApRange.is_ap`, and at 2 < p < inf the A_p branch
    holds while t > 1/2, else orders up to N = `choose_N(t)`, the smallest
    integer above 1/t, as at p = inf."""
    if p == 1.0:
        return BranchInfo("p=1", p, None, None, None, ("a", "b", "c"))
    if p == 2.0:
        return BranchInfo("p=2", p, None, None, None, ("a", "b"))
    if math.isinf(p):
        t = estimate_t(w)
        N = choose_N(t)
        ids = ("inf_a", "inf_b") + tuple(f"inf_c({n})" for n in range(2, N + 1))
        return BranchInfo("p=inf", p, None, t, N, ids)
    t = None if p < 2.0 else estimate_t(w)
    if t is None or t > 0.5:
        ap = ap_range(w, p)
        ids = ("a", "b") if ap.is_ap else ("a", "b", "c")
        return BranchInfo("1<p<2" if t is None else "2<p<inf", p, ap.is_ap, t, None,
                          ids, ap)
    N = choose_N(t)
    ids = ("a",) + tuple(f"bprime({n})" for n in range(1, N + 1))
    return BranchInfo("2<p<inf", p, None, t, N, ids)


def classify(data: TraceData, rtol: float = PV_RTOL) -> TraceVerdict:
    """Evaluate the condition set for data.p and fold the verdicts.

    Overall is bounded only if every selected condition is bounded;
    any divergence wins, and undetermined propagates otherwise."""
    branch = select_branch(data.p, data.weight)
    reports = tuple(condition(data, cid, rtol) for cid in branch.condition_ids)
    verdicts = {r.verdict for r in reports}
    if "diverging" in verdicts:
        overall = "diverging"
    elif "undetermined" in verdicts:
        overall = "undetermined"
    else:
        overall = "bounded"
    return TraceVerdict(branch=branch, reports=reports, overall=overall)
