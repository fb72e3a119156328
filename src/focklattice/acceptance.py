"""Desk-scale acceptance suite.

Each criterion is a self-contained check returning a CriterionResult with
the measured quantities and a pass flag; `run_acceptance` executes a
selection and prints one PASS/FAIL line per criterion.  Tolerances are
fixed here, not configurable: they are the contract.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .classifier import TraceData, classify, select_branch, cached_t
from .interpolate import (Interpolant, reconstruct, verify_interpolation,
                          w0_from)
from .lattice import SQUARE_SCALE, nearest_index, shells_for, square_lattice
from .multiplier import builtin_sigma_multiplier, sigma_weighted_mag
from .transforms import batch_higher, operator_norm_estimate, taylor_kernel_check
from .weights import (ap_probe, choose_N, classical_weight, default_ap_radii,
                      power_weight)

__all__ = ["CriterionResult", "run_acceptance", "CRITERIA", "extrapolated_norm",
           "extrapolated_growth", "OP_NORM_SIZES", "OP_NORM_GROWTH_BUDGET"]


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: Dict[str, object] = field(default_factory=dict)
    elapsed_s: float = 0.0
    # the measured objects behind the details, for tests; not printed
    reports: Dict[object, object] = field(default_factory=dict)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        info = "  ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"{tag}  criterion {self.number}: {self.title}  [{info}]"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_fmt(x) for x in v) + "]"
    return str(v)


@lru_cache(maxsize=4)
def _lattice(R: float):
    return square_lattice(R, classical_weight())


@lru_cache(maxsize=4)
def _multiplier(R: float):
    return builtin_sigma_multiplier(_lattice(R))


def _offgrid_points(lat, count: int, radius: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = rng.uniform(-radius, radius, 4 * count) \
            + 1j * rng.uniform(-radius, radius, 4 * count)
        z = z[np.abs(z) <= radius]
        z = z[nearest_index(lat, z)[1] > 1e-3 * lat.scale]
        out.extend(z.tolist())
    return np.asarray(out[:count])


# --------------------------------------------------------------------------


def criterion_1() -> CriterionResult:
    """Sigma estimate envelope and lattice periodicity of the weighted
    magnitude on the fundamental cell (lattice truncated at R=30;
    envelope spread < 50, periodicity within 1e-6 relative).

    The evaluator reduces every point to the fundamental cell, so the
    periodicity holds by construction; the independent check of sigma is
    the mpmath theta-function test in tests/test_multiplier.py."""
    t0 = time.perf_counter()
    s = SQUARE_SCALE
    lat = _lattice(30.0)
    n = 200
    xs = (np.arange(n) + 0.5) / n * s - s / 2.0
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    Z = (X + 1j * Y).ravel()
    keep = np.abs(Z) > 1e-6
    Z = Z[keep]
    W = sigma_weighted_mag(lat, Z)
    ratio = W / np.minimum(1.0, nearest_index(lat, Z)[1])
    spread = float(ratio.max() / ratio.min())
    W_shift = sigma_weighted_mag(lat, Z + s)
    rel = np.abs(W - W_shift) / np.maximum(W, W_shift)
    periodicity = float(rel.max())
    ok = spread < 50.0 and periodicity <= 1e-6
    return CriterionResult(1, "sigma envelope + periodicity", ok,
                           {"envelope_spread": spread,
                            "periodicity_rel": periodicity,
                            "grid": f"{n}x{n}"},
                           time.perf_counter() - t0)


def criterion_2() -> CriterionResult:
    """Finite-p representation formula: Gaussian traces reconstruct to
    1e-3 weighted error at 100 random points (tail 25), and the constant
    trace reconstructs to 1 within 1e-4.

    The raw 1e-4 check samples |z| <= 4.5: the kernel sum cancels down to
    e^{-|z|^2} from O(1) terms, so beyond |z|^2 ~ 27 the target sits below
    the double-precision cancellation floor of the formula itself."""
    t0 = time.perf_counter()
    lat = _lattice(25.0)
    m = _multiplier(25.0)
    zs = _offgrid_points(lat, 100, 6.0, seed=11)
    worst = 0.0
    for wv in (0.0, 0.7 - 0.2j, 1.0 + 1.0j):
        data = TraceData.gaussian(m, 2.0, wv)
        rec = reconstruct(data, zs)
        ref = np.exp(2.0 * np.conj(wv) * zs - abs(wv) ** 2)
        err = float(np.max(np.abs(rec - ref) * np.exp(-np.abs(zs) ** 2)))
        worst = max(worst, err)
    ones = TraceData.constant(m, 2.0, 1.0)
    zs_raw = _offgrid_points(lat, 100, 4.5, seed=12)
    rec1 = reconstruct(ones, zs_raw)
    err1 = float(np.max(np.abs(rec1 - 1.0)))
    ok = worst <= 1e-3 and err1 <= 1e-4
    return CriterionResult(2, "representation formula round trip", ok,
                           {"gaussian_weighted_err": worst,
                            "constant_err": err1},
                           time.perf_counter() - t0)


def criterion_3() -> CriterionResult:
    """p=inf uniqueness modulo g: interpolants with w0 = 0 and w0 = 1
    differ by exactly g(z) (1e-10 relative at 50 points)."""
    t0 = time.perf_counter()
    lat = _lattice(25.0)
    m = _multiplier(25.0)
    data = TraceData.gaussian(m, math.inf, 0.4 + 0.3j)
    I0 = Interpolant(data, 0.0)
    I1 = Interpolant(data, 1.0)
    zs = _offgrid_points(lat, 50, 5.0, seed=21)
    diff = I1.eval(zs) - I0.eval(zs)
    g = np.exp(m.log_g(zs))
    rel = float(np.max(np.abs(diff - g) / np.abs(g)))
    ok = rel <= 1e-10
    return CriterionResult(3, "uniqueness modulo g", ok,
                           {"max_rel_dev": rel}, time.perf_counter() - t0)


def criterion_4() -> CriterionResult:
    """Necessity of the trace conditions: Gaussian-family traces produce
    flattening trajectories (last-decade growth <= 1%) in every condition
    selected by the p=1, p=2 and p=inf branches on the classical weight.

    The p=1 conditions aggregate absolute values, whose lambda'-tails decay
    like the trace itself, so their last decade must start beyond the
    Gaussian bulk: they run on a radius-68 lattice (outer radius 34)."""
    t0 = time.perf_counter()
    m30, m68 = _multiplier(30.0), _multiplier(68.0)
    cases = [(m68, 1.0, 0.0), (m68, 1.0, 0.3 + 0.1j),
             (m30, 2.0, 0.25), (m30, 2.0, 0.2 - 0.15j),
             (m30, math.inf, 0.3 + 0.1j), (m30, math.inf, 0.15 - 0.2j)]
    worst_growth = 0.0
    all_bounded = True
    branches = set()
    for m, p, wv in cases:
        data = TraceData.gaussian(m, p, wv)
        verdict = classify(data)
        branches.add(verdict.branch.case)
        for rep in verdict.reports:
            worst_growth = max(worst_growth, rep.margins.growth or 0.0)
            if rep.verdict != "bounded":
                all_bounded = False
    ok = all_bounded and worst_growth <= 0.01
    return CriterionResult(4, "necessity trajectories flatten", ok,
                           {"worst_last_decade_growth": worst_growth,
                            "branches": sorted(branches)},
                           time.perf_counter() - t0)


def criterion_5() -> CriterionResult:
    """Transform engine exactness: odd-symmetric kernels vanish per shell,
    and so do their running sums, to 1e-12; on absolutely convergent data
    the engine that the classifier runs (`batch_higher`) agrees with the
    dense sums to 1e-12; the kernel remainder identity holds to 1e-12
    relative on 1e4 random inputs."""
    t0 = time.perf_counter()
    lat = _lattice(30.0)
    starts = shells_for(lat).starts
    worst_shell = 0.0
    for power in (2, 3):
        terms = np.zeros(len(lat), dtype=complex)
        nz = np.abs(lat.points) > 0
        terms[nz] = lat.points[nz] ** (-float(power))
        shell_sums = np.add.reduceat(terms, starts)
        worst_shell = max(worst_shell, float(np.max(np.abs(shell_sums))),
                          float(np.max(np.abs(np.cumsum(shell_sums)))))
    # dense sums against the engine on a Gaussian-decaying sequence
    rng = np.random.default_rng(5)
    decay = np.exp(-np.abs(lat.points) ** 2 / 4.0)
    d = decay * np.exp(2j * math.pi * rng.uniform(size=len(lat)))
    centres = np.array([0, 3, 11])
    worst_dense = 0.0
    for n in (1, 2):
        engine = batch_higher(lat, d, centres, n)[0]
        for idx, value in zip(centres, engine):
            mask = np.arange(len(lat)) != idx
            dense = complex(np.sum(d[mask] / (lat.points[mask] - lat.points[idx]) ** n))
            worst_dense = max(worst_dense, abs(dense - value))
    # kernel remainder identity, discrepancy relative to the computation
    # scale (the remainder itself vanishes like (z/lambda)^n, so it cannot
    # serve as the denominator at small z)
    worst_tayl = 0.0
    zs = rng.uniform(-3, 3, 10000) + 1j * rng.uniform(-3, 3, 10000)
    lams = rng.uniform(1, 4, 10000) * np.exp(2j * math.pi * rng.uniform(size=10000))
    lams = np.where(np.abs(zs / lams) > 0.9, lams * 4.0, lams)
    for n in (2, 3, 4, 5, 6):
        sel = slice(None, None, 5)
        for z, lam in zip(zs[sel], lams[sel]):
            scale = max(abs(z ** n / (lam ** n * (z - lam))),
                        1.0 / abs(z - lam), 1.0 / abs(lam))
            disc = taylor_kernel_check(z, lam, 0.0, n)
            worst_tayl = max(worst_tayl, disc / scale)
    ok = worst_shell <= 1e-12 and worst_dense <= 1e-12 and worst_tayl <= 1e-12
    return CriterionResult(5, "p.v. engine exactness", ok,
                           {"shell_cancellation": worst_shell,
                            "dense_vs_shell": worst_dense,
                            "taylor_identity_rel": worst_tayl},
                           time.perf_counter() - t0)


OP_NORM_SIZES = (200, 400, 800, 1600, 3200, 5000)
OP_NORM_GROWTH_BUDGET = 1.1


def extrapolated_norm(kind: str, size: int, p: float, w, N: int = 2) -> float:
    """First-order finite-section (Richardson) estimate E(n) of the l^p
    norm of operator `kind` on the whole lattice, built from the n-point
    section norm a_n and its inner-quarter section norm a_m (m = n // 4
    points, disc radius R_n / 2) alone.

    A finite section falls short of the operator norm by a truncation
    deficit of order 1/R: the kernel tail beyond the disc at p = 1 and
    inf, the |xi| cusp of the kernel's symbol at xi = 0 at p = 2.  With
    a(R) = E - c/R + O(R^-2), eliminating c between the two radii gives
    E(n) = (R_n a_n - R_m a_m) / (R_n - R_m), about 2 a_n - a_m.
    """
    m = size // 4
    a_m, a_n = operator_norm_estimate(kind, [m, size], p, w, N=N).norms
    # the section radius is proportional to sqrt(size)
    r_m, r_n = math.sqrt(m), math.sqrt(size)
    return (r_n * a_n - r_m * a_m) / (r_n - r_m)


def extrapolated_growth(kind: str, p: float, w, N: int = 2) -> float:
    """Growth E(5000) / E(200) of `extrapolated_norm` across OP_NORM_SIZES:
    the quantity criterion 6 holds to OP_NORM_GROWTH_BUDGET."""
    return (extrapolated_norm(kind, OP_NORM_SIZES[-1], p, w, N)
            / extrapolated_norm(kind, OP_NORM_SIZES[0], p, w, N))


def criterion_6() -> CriterionResult:
    """Operator boundedness probes across 200 -> 5000 points: growth of
    the estimated norms at most 1.1 for B (p=2), L (p=1,2), M(N) (p=1,inf),
    and the interpolation echo norm(p=2) <= 1.1 * max(norm(p=1), norm(inf)).

    The estimated norm at n points is `extrapolated_norm`, and the gated
    growth is `extrapolated_growth`, E(5000) / E(200).  The raw section
    norms are lower bounds whose 1/R deficit alone makes the p=2 growth of
    L about 1.15 for a bounded operator; their growth is reported as
    `<item>_raw`, ungated.  The echo compares raw 5000-point section
    norms."""
    t0 = time.perf_counter()
    w = classical_weight()
    N = choose_N(cached_t(w))
    reports = {}
    for op, ps in (("B", (2.0,)), ("L", (1.0, 2.0, math.inf)),
                   ("M", (1.0, 2.0, math.inf))):
        for p in ps:
            reports[(op, p)] = operator_norm_estimate(op, OP_NORM_SIZES, p,
                                                      w, N=N)
    # growth budgeted only for the regimes where boundedness is expected
    budgeted = [("B", 2.0), ("L", 1.0), ("L", 2.0), ("M", 1.0), ("M", math.inf)]
    details = {}
    ok = True
    for op, p in budgeted:
        key = f"{op}_p{p:g}"
        growth = extrapolated_growth(op, p, w, N)
        ok = ok and growth <= OP_NORM_GROWTH_BUDGET
        details[key] = growth
        details[key + "_raw"] = reports[(op, p)].growth_ratio
    rt_ok = True
    for op in ("L", "M"):
        p2 = reports[(op, 2.0)].norms[-1]
        cap = 1.1 * max(reports[(op, 1.0)].norms[-1],
                        reports[(op, math.inf)].norms[-1])
        rt_ok = rt_ok and p2 <= cap
    ok = ok and rt_ok
    details["riesz_thorin_echo"] = rt_ok
    details["N"] = N
    return CriterionResult(6, "operator norm growth probes", ok, details,
                           time.perf_counter() - t0, reports)


def criterion_7() -> CriterionResult:
    """Muckenhoupt probe: gamma=5, p=4/3 reproduces the fitted disc-ratio
    exponent 0.25 within 0.05 (verdict not-A_p); the classical weight has
    |slope| <= 0.02 and verdict A_p."""
    t0 = time.perf_counter()
    pw = power_weight(5.0, rho_origin=2.0)
    rep = ap_probe(pw, 4.0 / 3.0, default_ap_radii(pw))
    target = -1.0 - 5.0 / 2.0 + 5.0 / (4.0 / 3.0)
    cw = classical_weight()
    rep_c = ap_probe(cw, 4.0 / 3.0, default_ap_radii(cw))
    ok = (abs(rep.fitted_exponent - target) <= 0.05 and not rep.is_ap
          and abs(rep_c.fitted_exponent) <= 0.02 and rep_c.is_ap)
    return CriterionResult(7, "A_p probe exponents", ok,
                           {"power_slope": rep.fitted_exponent,
                            "target": target,
                            "classical_slope": rep_c.fitted_exponent},
                           time.perf_counter() - t0)


_BRANCH_TABLE = {
    # (p, weight): expected condition ids
    (1.0, "classical"): ("a", "b", "c"),
    (1.5, "classical"): ("a", "b"),
    (2.0, "classical"): ("a", "b"),
    (3.0, "classical"): ("a", "b"),
    (5.0, "classical"): ("a", "b"),
    (math.inf, "classical"): ("inf_a", "inf_b", "inf_c(2)"),
    (1.0, "power05"): ("a", "b", "c"),
    (1.5, "power05"): ("a", "b"),
    (2.0, "power05"): ("a", "b"),
    (3.0, "power05"): ("a", "bprime(1)", "bprime(2)", "bprime(3)",
                       "bprime(4)", "bprime(5)"),
    (5.0, "power05"): ("a", "bprime(1)", "bprime(2)", "bprime(3)",
                       "bprime(4)", "bprime(5)"),
    (math.inf, "power05"): ("inf_a", "inf_b", "inf_c(2)", "inf_c(3)",
                            "inf_c(4)", "inf_c(5)"),
}


def criterion_8() -> CriterionResult:
    """Branch logic: classical t_fit >= 0.9; gamma=0.5 gives the analytic
    bound 0.25 and transform order 5; the twelve-case branch matrix
    matches the regime table."""
    t0 = time.perf_counter()
    cw = classical_weight()
    pw = power_weight(0.5, rho_origin=2.0)
    t_c = cached_t(cw)
    t_p = cached_t(pw)
    ok = t_c.t_fit >= 0.9
    ok = ok and t_p.t_bound == 0.25 and choose_N(t_p) == 5
    mismatches = []
    for (p, wname), expect in _BRANCH_TABLE.items():
        w = cw if wname == "classical" else pw
        br = select_branch(p, w)
        if tuple(br.condition_ids) != expect:
            mismatches.append((wname, p, br.condition_ids, expect))
    ok = ok and not mismatches
    return CriterionResult(8, "doubling exponent + branch table", ok,
                           {"t_fit_classical": t_c.t_fit,
                            "t_bound_power05": t_p.t_bound,
                            "N_power05": choose_N(t_p),
                            "branch_mismatches": len(mismatches)},
                           time.perf_counter() - t0)


def criterion_9() -> CriterionResult:
    """Round-trip residuals: every acceptance interpolant verifies its
    own trace to 1e-3 weighted, and the zero trace reconstructs to 0."""
    t0 = time.perf_counter()
    lat = _lattice(25.0)
    m = _multiplier(25.0)
    worst = 0.0
    for wv in (0.0, 0.7 - 0.2j, 1.0 + 1.0j):
        data = TraceData.gaussian(m, 2.0, wv)
        I = Interpolant(data)
        worst = max(worst, verify_interpolation(I, max_points=60))
    dinf = TraceData.gaussian(m, math.inf, 0.4 + 0.3j)
    Iinf = Interpolant(dinf, w0_from(
        lambda z: np.exp(2.0 * np.conj(0.4 + 0.3j) * z - abs(0.4 + 0.3j) ** 2), m))
    worst = max(worst, verify_interpolation(Iinf, max_points=60))
    zero = TraceData.zero(m, 2.0)
    zs = _offgrid_points(lat, 40, 8.0, seed=31)
    zmax = float(np.max(np.abs(reconstruct(zero, zs))))
    ok = worst <= 1e-3 and zmax == 0.0
    return CriterionResult(9, "interpolation round-trip residuals", ok,
                           {"max_weighted_residual": worst,
                            "zero_trace_max": zmax},
                           time.perf_counter() - t0)


CRITERIA: Dict[int, Callable[[], CriterionResult]] = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9,
}


def run_acceptance(numbers: Optional[Sequence[int]] = None) -> List[CriterionResult]:
    chosen = sorted(set(numbers or CRITERIA))
    if not CRITERIA.keys() >= set(chosen):
        raise ValueError(f"--criteria {chosen}: the criteria are 1-9")
    results = []
    for k in chosen:
        res = CRITERIA[k]()
        print(res.line())
        results.append(res)
    return results
