"""Batch command-line front end.

One JSON job in, one JSON report out (grids go to CSV).  `main` loads and
checks each job once (`_load_job`, `JOB_KEYS`), runs its command and writes
the report, which echoes the configuration, tolerances, seed, version and
the SHA-256 of the job file.  The job's arrays (a user g' table, a value
list, explicit lattice points) are echoed by length; the digest identifies
their contents.

Exit codes: 0 success, 2 schema error, 3 numerical failure, 4 acceptance
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from operator import itemgetter
from typing import Optional

try:  # CPython's own SHA-256; hashlib's would load OpenSSL, about 3.6 MB RSS
    from _sha2 import sha256
except ImportError:  # Python < 3.12
    from _sha256 import sha256

import numpy as np

from . import __version__
from .classifier import (DIVERGE_MIN_EXPONENT, DIVERGE_MIN_R2, FLATTEN_TOL,
                         UNCONVERGED_MAX_SHARE, TraceData, classify)
from .errors import FockLatticeError, NumericalError, SchemaError
from .interpolate import Interpolant, verify_interpolation
from .lattice import (Lattice, explicit_lattice, scatter_indexed, shells_for,
                      square_lattice, upper_density)
from .multiplier import (Multiplier, builtin_sigma_multiplier, sigma_weighted_mag,
                         user_multiplier)
from .transforms import PV_RTOL, operator_norm_estimate
from .weights import (WeightProfile, ap_probe, choose_N, classical_weight,
                      default_ap_radii, estimate_t, phi, power_weight)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4


# The keys the job commands read.  A top-level key maps to None (a value), to
# the keys of an object section, or to a section's kinds, each with its keys
# besides "kind".  One table serves every command, since jobs are shared: a
# key that another command reads is accepted.  Table entries are left to
# their readers, which ignore fields other than index, re and im, so no
# Python loop walks a 10^4-entry table.  No option turns the check off.
JOB_KEYS = {
    "weight": {"classical": (), "power": ("gamma", "c_gamma", "rho_origin")},
    "lattice": {"square": ("R",), "explicit": ("points",)},
    "multiplier": {"builtin_sigma": (),
                   "user_table": ("g_prime", "weighted")},
    "values": {"zero": (), "constant": ("v",), "gaussian_trace": ("w",),
               "list": ("items", "weighted")},
    "pv": ("tolerance",),
    "grid": ("half_width", "n"),
    "p": None, "density_r_max": None, "verify_points": None, "w0": None,
    "radii": None, "op": None, "sizes": None, "N": None,
}


def _check_keys(job: dict):
    """Schema error on a section that is not an object, an unknown kind, or
    keys that JOB_KEYS does not hold, naming each such key by its path."""
    unread = [key for key in job if key not in JOB_KEYS]
    for key, spec in job.items():
        keys = JOB_KEYS.get(key)
        if keys is None:
            continue
        if not isinstance(spec, dict):
            raise SchemaError(f"{key} must be an object, not {spec!r:.40}")
        if isinstance(keys, dict):
            kind = spec.get("kind")
            if not isinstance(kind, str) or kind not in keys:
                raise SchemaError(f"{key}.kind must be one of {', '.join(keys)}, "
                                  f"not {kind!r:.40}")
            keys = ("kind", *keys[kind])
        unread += [f"{key}.{sub}" for sub in spec if sub not in keys]
    if unread:
        raise SchemaError(f"no command reads {', '.join(map(repr, unread))}")


def _reject_constant(name: str):
    raise SchemaError(f"job files may not hold {name}")


def _load_job(path: str) -> tuple:
    """The parsed job, checked against JOB_KEYS, and the SHA-256 hex digest
    of the file's bytes.  The non-standard JSON literals NaN, Infinity and
    -Infinity are refused.  Numbers are checked where they are read
    (`_number`, `_entries`): json reads 1e400 as inf, and a 401-digit
    integer as a Python int."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        job = json.loads(raw, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read job file: {exc}")
    if not isinstance(job, dict):
        raise SchemaError("job must be a JSON object")
    _check_keys(job)
    return job, sha256(raw).hexdigest()


def _echo(job: dict) -> dict:
    """The job with its arrays replaced by {"length": n}."""
    out = dict(job)
    for section, key in (("multiplier", "g_prime"), ("values", "items"),
                         ("lattice", "points")):
        spec = job.get(section, {})
        if isinstance(spec.get(key), list):
            out[section] = {**spec, key: {"length": len(spec[key])}}
    return out


def _number(value, what: str, positive: bool = False) -> float:
    """A job number as a finite double (> 0 if `positive`); anything else,
    a string, a bool or a number beyond double range, is a schema error
    naming `what`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:      # an integer beyond 1.8e308
            x = math.inf
        if math.isfinite(x) and (x > 0.0 or not positive):
            return x
    raise SchemaError(f"{what} must be a finite double{' > 0' if positive else ''}, "
                      f"not {value!r:.40}")


def _flag(spec: dict, key: str, what: str) -> bool:
    """spec[key] as a JSON true or false (false when absent); anything
    else is a schema error naming `what`."""
    value = spec.get(key, False)
    if not isinstance(value, bool):
        raise SchemaError(f"{what} must be true or false, not {value!r:.40}")
    return value


def _complex_of(obj, what: str) -> complex:
    if isinstance(obj, list) and len(obj) == 2:
        return complex(_number(obj[0], what), _number(obj[1], what))
    if isinstance(obj, (int, float)):
        return complex(_number(obj, what))
    raise SchemaError(f"{what} must be a number or [re, im] pair")


def _entries(entries: list, what: str) -> tuple:
    """Index and complex value arrays of a list of {"index", "re", "im"}
    objects, one numpy conversion per field; anything but a list is a
    schema error naming `what`."""
    if not isinstance(entries, list):
        raise SchemaError(f"{what} must be a list of table entries, "
                          f"not {entries!r:.40}")
    n = len(entries)
    bad = SchemaError("table entries need a finite index, re and im, each a double")
    try:
        idx, re, im = (np.fromiter(map(itemgetter(key), entries), float, n)
                       for key in ("index", "re", "im"))
    except (KeyError, TypeError, OverflowError):   # OverflowError: a 401-digit int
        raise bad from None
    # numpy reads a JSON null as NaN, where float() would have refused it
    if not (np.isfinite(idx).all() and np.isfinite(re).all()
            and np.isfinite(im).all()):
        raise bad
    values = np.empty(n, dtype=complex)
    values.real, values.imag = re, im
    return idx, values


def _build_weight(job: dict) -> WeightProfile:
    spec = job.get("weight", {"kind": "classical"})
    if spec["kind"] == "classical":
        return classical_weight()
    scale = [key for key in ("c_gamma", "rho_origin") if key in spec]
    if "gamma" not in spec or len(scale) != 1:
        raise SchemaError("a power weight needs gamma and one of c_gamma "
                          "and rho_origin")
    return power_weight(_number(spec["gamma"], "weight.gamma", positive=True),
                        **{scale[0]: _number(spec[scale[0]], f"weight.{scale[0]}",
                                             positive=True)})


def _build_lattice(job: dict, w: WeightProfile) -> Lattice:
    if "lattice" not in job:
        raise SchemaError("this command needs a lattice")
    spec = job["lattice"]
    if spec["kind"] == "explicit":
        pts = spec.get("points", [])
        if not isinstance(pts, list):
            raise SchemaError("lattice.points must be a list of [x, y] pairs")
        return explicit_lattice([_complex_of(p, "lattice.points") for p in pts], w)
    if "R" not in spec:
        raise SchemaError("a square lattice needs R")
    return square_lattice(_number(spec["R"], "lattice.R"), w)


def _build_multiplier(job: dict, lat: Lattice) -> Multiplier:
    spec = job.get("multiplier", {"kind": "builtin_sigma"})
    if spec["kind"] == "builtin_sigma":
        return builtin_sigma_multiplier(lat)
    indices, values = _entries(spec.get("g_prime", []), "multiplier.g_prime")
    return user_multiplier(lat, values, indices=indices,
                           weighted=_flag(spec, "weighted", "multiplier.weighted"))


def _build_values(job: dict, m: Multiplier, p) -> TraceData:
    spec = job.get("values", {"kind": "zero"})
    kind = spec["kind"]
    if kind == "zero":
        return TraceData.zero(m, p)
    if kind == "constant":
        return TraceData.constant(m, p, _complex_of(spec.get("v", 1.0), "values.v"))
    if kind == "gaussian_trace":
        return TraceData.gaussian(m, p, _complex_of(spec.get("w", 0.0), "values.w"))
    vals, _ = scatter_indexed(len(m.lattice),
                              *_entries(spec.get("items", []), "values.items"),
                              "value")
    if _flag(spec, "weighted", "values.weighted"):
        return TraceData.from_weighted(m, p, vals)
    return TraceData.from_raw(m, p, vals)


def _parse_p(job: dict):
    p = job.get("p", 2)
    if p == "inf":
        return math.inf
    p = _number(p, "p")
    if not p >= 1.0:
        raise SchemaError("p must be >= 1 or 'inf'")
    return p


def _count(value, what: str) -> int:
    _number(value, what)      # names a literal beyond double range as such
    if type(value) is not int or value < 1:
        raise SchemaError(f"{what} must be an integer >= 1, not {value!r}")
    return value


def _grid(job: dict, default_half: float, default_n: int) -> tuple:
    """(points, corner radius) of the midpoint grid of n x n cells on
    [-half_width, half_width]^2 of the job's "grid" object: an integer
    n >= 1 and a finite half_width > 0; y varies fastest along the points."""
    g = job.get("grid", {})
    half = _number(g.get("half_width", default_half), "grid.half_width", positive=True)
    n = _count(g.get("n", default_n), "grid.n")
    xs = -half + (np.arange(n) + 0.5) * (half + half) / n
    return (xs[:, None] + 1j * xs[None, :]).ravel(), abs(complex(half, half))


def _trace_data(job: dict) -> tuple:
    """(data, rtol) of a trace-check or reconstruct job: its trace data on
    the job's lattice and multiplier, and the p.v. tolerance pv.tolerance
    (PV_RTOL when absent), finite and >= 0: no window test passes below 0."""
    m = _build_multiplier(job, _build_lattice(job, _build_weight(job)))
    data = _build_values(job, m, _parse_p(job))
    rtol = _number(job.get("pv", {}).get("tolerance", PV_RTOL), "pv.tolerance")
    if rtol < 0.0:
        raise SchemaError(f"the p.v. tolerance must be finite and >= 0, not {rtol}")
    return data, rtol


def _emit(report: dict, path: Optional[str]):
    text = json.dumps(report, sort_keys=True, default=_json_default)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj)}")


def _write_grid(path: str, header: list, columns: list):
    """A CSV grid file: the header, then one row per point of the real
    arrays in `columns`, each value to 12 significant digits."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(zip(*([f"{x:.12g}" for x in col] for col in columns)))


# -- commands: each maps (args, job) to (results, tolerances) ---------------


def cmd_lattice_info(args, job: dict) -> tuple:
    lat = _build_lattice(job, _build_weight(job))
    sched = shells_for(lat)
    r_max = job.get("density_r_max")
    if r_max is None:
        r_max = 0.45 * lat.truncation_radius / lat.max_rho
    return {
        "n_points": len(lat),
        "truncation_radius": lat.truncation_radius,
        "scale": lat.scale,
        "delta_sep": lat.delta_sep,
        "n_shells": sched.n_shells,
        "first_shell_size": (int(np.diff(sched.starts, append=sched.n_points)[1])
                             if sched.n_shells > 1 else 0),
        "max_rho": lat.max_rho,
        "upper_density": upper_density(lat, _number(r_max, "density_r_max",
                                                    positive=True)),
    }, {}


def cmd_sigma_eval(args, job: dict) -> tuple:
    lat = _build_lattice(job, _build_weight(job))
    pts = _grid(job, lat.scale, 100)[0]
    vals = sigma_weighted_mag(lat, pts)
    _write_grid(args.grid, ["x", "y", "weighted_mag"], [pts.real, pts.imag, vals])
    return {"grid_file": args.grid, "n_values": int(vals.size),
            "max_weighted_mag": float(np.max(vals))}, {}


def cmd_trace_check(args, job: dict) -> tuple:
    data, rtol = _trace_data(job)
    verdict = classify(data, rtol)
    results = {
        "branch": {
            "case": verdict.branch.case,
            "p": "inf" if math.isinf(data.p) else data.p,
            "is_ap": verdict.branch.is_ap,
            "t_effective": verdict.branch.t_effective,
            "n_max": verdict.branch.n_max,
            "conditions": list(verdict.branch.condition_ids),
        },
        "overall": verdict.overall,
        "reports": [
            {
                "condition": rep.condition_id,
                "verdict": rep.verdict,
                "margins": {"last_decade_growth": rep.margins.growth,
                            "slope": rep.margins.slope,
                            "r2": rep.margins.r2},
                "inner_unconverged": rep.inner_unconverged,
                "inner_total": rep.inner_total,
                "trajectory": [[r, v] for r, v in rep.partial_trajectory],
            }
            for rep in verdict.reports
        ],
    }
    if verdict.branch.ap_margin is not None:
        # the A_p branch's margin: is_ap reads ap_range_lo < ap_beta < ap_range_hi
        results["branch"].update(zip(("ap_beta", "ap_range_lo", "ap_range_hi"),
                                     verdict.branch.ap_margin))
    return results, {"pv_rtol": rtol, "flatten_tol": FLATTEN_TOL,
                     "diverge_exponent": DIVERGE_MIN_EXPONENT, "diverge_r2": DIVERGE_MIN_R2,
                     "unconverged_max_share": UNCONVERGED_MAX_SHARE}


def cmd_reconstruct(args, job: dict) -> tuple:
    data, rtol = _trace_data(job)
    # beyond the guard band the truncated sums lose the true value; the
    # default grid's corner, half * sqrt(2), stays inside it
    guard = data.lattice.guard_radius()
    if guard <= 0:
        raise SchemaError(f"lattice R = {data.lattice.truncation_radius:.4g} leaves "
                          f"no guard band: the guard radius R - 5 max rho is "
                          f"{guard:.4g}, so no grid lies inside it")
    pts, corner = _grid(job, min(4.0, guard / math.sqrt(2.0)), 60)
    verify_points = _count(job.get("verify_points", 80), "verify_points")
    if corner > guard:
        raise ValueError(f"grid corner at radius {corner:.4g} lies "
                         f"beyond the guard radius {guard:.4g}")
    w0 = job.get("w0")
    I = Interpolant(data, None if w0 is None else _complex_of(w0, "w0"), rtol)
    vals_w = I.eval_weighted(pts)
    # raw f = f e^{-phi} e^{phi}; NaN where that leaves double range
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.where(vals_w == 0, 0.0, vals_w * np.exp(phi(data.weight, pts)))
    overflow = ~np.isfinite(raw)
    raw[overflow] = complex(np.nan, np.nan)
    _write_grid(args.grid, ["x", "y", "re_f", "im_f", "weighted_mag"],
                [pts.real, pts.imag, raw.real, raw.imag, np.abs(vals_w)])
    residual = verify_interpolation(I, max_points=verify_points)
    results = {"grid_file": args.grid, "max_weighted_residual": residual,
               "raw_overflow_points": int(overflow.sum()),
               "mode": I.mode, "w0": I.w0,
               "representative_only": I.representative_only}
    return results, {"pv_rtol": rtol, "residual_target": 1e-3}


def cmd_ap_probe(args, job: dict) -> tuple:
    w = _build_weight(job)
    p = _parse_p(job)
    if math.isinf(p) or p <= 1.0:
        raise SchemaError("ap-probe needs 1 < p < inf")
    radii = job.get("radii")
    if radii is None:
        radii = default_ap_radii(w)
    elif isinstance(radii, list):
        radii = [_number(r, "radii") for r in radii]
    else:
        raise SchemaError(f"radii must be a list of radii, not {radii!r:.40}")
    rep = ap_probe(w, p, radii)
    return {"p": p, "disc_radii": list(rep.disc_radii),
            "ratios": list(rep.ratios),
            "fitted_exponent": rep.fitted_exponent,
            "is_ap": rep.is_ap}, {}


def cmd_op_norm(args, job: dict) -> tuple:
    w = _build_weight(job)
    op = job.get("op", "B")
    if op not in ("B", "L", "M"):
        raise SchemaError("op must be B, L or M")
    sizes = job.get("sizes", [200, 800, 3200])
    if not isinstance(sizes, list) or not sizes:
        raise SchemaError(f"sizes must be a non-empty list, not {sizes!r}")
    sizes = [_count(s, "sizes") for s in sizes]
    if min(sizes) < math.pi:
        # a size's section is the disc pi R^2 = size scale^2, which below
        # pi holds the origin alone: its norm is 0, and the growth ratio
        # divides by it
        raise SchemaError(f"sizes: the smallest, {min(sizes)}, gives a "
                          f"one-point section; the growth ratio needs two points")
    p = _parse_p(job)
    # only M(N) reads N; without one it is the smallest N > 1/t
    if op != "M" and "N" in job:
        raise SchemaError(f"op-norm: only M reads N, and op is {op}")
    N = 2
    if op == "M":
        t = estimate_t(w)
        N = job.get("N", choose_N(t))
        if type(N) is not int or _number(N, "N") <= 1.0 / t:
            raise SchemaError(f"op-norm: M(N) needs an integer N > 1/t, and "
                              f"t = {t:g} for this weight; N = {N!r}")
    rep = operator_norm_estimate(op, sizes, p, w, N=N, seed=args.seed)
    return {"op": rep.op, "p": "inf" if math.isinf(p) else p,
            "sizes": list(rep.sizes), "norms": list(rep.norms),
            "growth_ratio": rep.growth_ratio,
            "stagnations": list(rep.stagnations),
            "residuals": list(rep.residuals)}, {}


def cmd_acceptance(args) -> int:
    from .acceptance import run_acceptance   # only this command loads it
    t0 = time.perf_counter()
    numbers = None
    if args.criteria:
        try:
            numbers = [int(k) for k in args.criteria.split(",")]
        except ValueError:
            raise SchemaError(f"--criteria {args.criteria!r}: give criterion "
                              "numbers separated by commas, e.g. 1,5") from None
    results = run_acceptance(numbers)
    ok = all(r.passed for r in results)
    report = {
        "command": "acceptance",
        "version": __version__,
        "seed": args.seed,
        "timing_s": round(time.perf_counter() - t0, 3),
        "results": [
            {"criterion": r.number, "title": r.title, "passed": r.passed,
             "details": r.details, "elapsed_s": round(r.elapsed_s, 2)}
            for r in results
        ],
        "all_passed": ok,
    }
    if args.output:
        _emit(report, args.output)
    return EXIT_OK if ok else EXIT_ACCEPTANCE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="focklattice",
        description="Trace checks, interpolation and transform probes on "
                    "critical Fock-space lattices.")
    parser.add_argument("--seed", type=int, default=0,
                        help="offsets the op-norm quasirandom start vector")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_grid=False):
        sp = sub.add_parser(name)
        sp.add_argument("--input", required=True)
        sp.add_argument("--output", default=None)
        if needs_grid:
            sp.add_argument("--grid", required=True)
        sp.set_defaults(fn=fn)
        return sp

    add("lattice-info", cmd_lattice_info)
    add("sigma-eval", cmd_sigma_eval, needs_grid=True)
    add("trace-check", cmd_trace_check)
    add("reconstruct", cmd_reconstruct, needs_grid=True)
    add("ap-probe", cmd_ap_probe)
    add("op-norm", cmd_op_norm)
    sp = sub.add_parser("acceptance")
    sp.add_argument("--criteria", default=None,
                    help="comma-separated criterion numbers (default: all)")
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=cmd_acceptance)

    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        parser.error(f"--seed {args.seed} is not in [0, 2**32)")
    try:
        if args.command == "acceptance":
            return args.fn(args)
        # the lifecycle of every job command; timing_s covers all but the
        # writing of the report
        t0 = time.perf_counter()
        job, digest = _load_job(args.input)
        results, tolerances = args.fn(args, job)
        _emit({
            "command": args.command,
            "version": __version__,
            "seed": args.seed,
            "config": _echo(job),
            "input_sha256": digest,
            "tolerances": tolerances,
            "timing_s": round(time.perf_counter() - t0, 3),
            "results": results,
        }, args.output)
        return EXIT_OK
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FockLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    raise SystemExit(main())
