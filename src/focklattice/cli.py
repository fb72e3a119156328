"""Batch command-line front end.

One JSON job in, one JSON report out (grids go to CSV).  `main` loads and
reads each job once (`_load_job`, `JOB_KEYS`), runs its command and writes
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
from .errors import NumericalError, SchemaError
from .interpolate import Interpolant, verify_interpolation
from .lattice import (Lattice, explicit_lattice, scatter_indexed, shells_for,
                      square_lattice, upper_density)
from .multiplier import builtin_sigma_multiplier, sigma_weighted_mag, user_multiplier
from .transforms import PV_RTOL, operator_norm_estimate
from .weights import (WeightProfile, ap_probe, choose_N, classical_weight,
                      default_ap_radii, estimate_t, phi, power_weight)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4


def _number(value, path: str) -> float:
    """A job number as a finite double; anything else, a string, a bool or
    a number beyond double range, is a schema error naming `path`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:      # an integer beyond 1.8e308
            x = math.inf
        if math.isfinite(x):
            return x
    raise SchemaError(f"{path} must be a finite double, not {value!r:.40}")


def _positive(value, path: str) -> float:
    x = _number(value, path)
    if x > 0.0:
        return x
    raise SchemaError(f"{path} must be a finite double > 0, not {value!r:.40}")


def _count(value, path: str) -> int:
    _number(value, path)      # names a literal beyond double range as such
    if type(value) is not int or value < 1:
        raise SchemaError(f"{path} must be an integer >= 1, not {value!r:.40}")
    return value


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{path} must be true or false, not {value!r:.40}")
    return value


def _complex_of(value, path: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], path), _number(value[1], path))
    if isinstance(value, (int, float)):
        return complex(_number(value, path))
    raise SchemaError(f"{path} must be a number or [re, im] pair, not {value!r:.40}")


def _entries(value, path: str) -> tuple:
    """Index and complex value arrays of a list of {"index", "re", "im"}
    objects, one numpy conversion per field."""
    if not isinstance(value, list):
        raise SchemaError(f"{path} must be a list of table entries, not {value!r:.40}")
    n = len(value)
    bad = SchemaError(f"{path}: table entries need a finite index, re and im, "
                      f"each a double")
    try:
        idx, re, im = (np.fromiter(map(itemgetter(key), value), float, n)
                       for key in ("index", "re", "im"))
    except (KeyError, TypeError, OverflowError):   # OverflowError: a 401-digit int
        raise bad from None
    values = np.empty(n, dtype=complex)
    values.real, values.imag = re, im
    # numpy reads a JSON null as NaN, where float() would have refused it
    if not (np.isfinite(idx).all() and np.isfinite(values).all()):
        raise bad
    return idx, values


def _list_of(read):
    """The reader of a non-empty list whose items `read` reads."""
    def read_list(value, path: str) -> list:
        if not isinstance(value, list) or not value:
            raise SchemaError(f"{path} must be a non-empty list, not {value!r:.40}")
        return [read(item, path) for item in value]
    return read_list


def _p(value, path: str) -> float:
    if value == "inf":
        return math.inf
    p = _number(value, path)
    if p >= 1.0:
        return p
    raise SchemaError(f"{path} must be >= 1 or 'inf', not {value!r:.40}")


def _op(value, path: str) -> str:
    if value in ("B", "L", "M"):
        return value
    raise SchemaError(f"{path} must be B, L or M, not {value!r:.40}")


def _tolerance(value, path: str) -> float:
    # no window test passes below 0: every inner sum would stay unconverged
    rtol = _number(value, path)
    if rtol >= 0.0:
        return rtol
    raise SchemaError(f"{path}, the p.v. tolerance, must be >= 0, not {value!r:.40}")


# Every key of a job, by path, with its reader (value, path) -> value.  A
# top-level key maps to its reader, to the readers of an object section's
# keys, or to a section's kinds, each with the readers of its keys besides
# "kind".  One table serves every command, since jobs are shared: every key
# is read whichever command runs.  Table entries are read by field, index,
# re and im, so no Python loop walks a 10^4-entry table.
JOB_KEYS = {
    "weight": {"classical": {},
               "power": {"gamma": _positive, "c_gamma": _positive,
                         "rho_origin": _positive}},
    "lattice": {"square": {"R": _number},
                "explicit": {"points": _list_of(_complex_of)}},
    "multiplier": {"builtin_sigma": {},
                   "user_table": {"g_prime": _entries, "weighted": _flag}},
    "values": {"zero": {}, "constant": {"v": _complex_of},
               "gaussian_trace": {"w": _complex_of},
               "list": {"items": _entries, "weighted": _flag}},
    "pv": {"tolerance": _tolerance},
    "grid": {"half_width": _positive, "n": _count},
    "p": _p, "density_r_max": _positive, "verify_points": _count, "w0": _complex_of,
    "radii": _list_of(_number), "op": _op, "sizes": _list_of(_count), "N": _count,
}

# The value a path reads when the job leaves it out, itself read by the
# path's reader; a section left out is read as its default.  The defaults
# a command computes (density_r_max, radii, N, grid.half_width, grid.n, w0)
# are its own.
DEFAULTS = {
    "weight": {"kind": "classical"}, "multiplier": {"kind": "builtin_sigma"},
    "values": {"kind": "zero"}, "pv": {}, "grid": {},
    "multiplier.g_prime": [], "multiplier.weighted": False,
    "values.v": 1, "values.w": 0, "values.items": [], "values.weighted": False,
    "pv.tolerance": PV_RTOL, "p": 2, "verify_points": 80, "op": "B",
    "sizes": [200, 800, 3200],
}


def _read(given: dict, table: dict, prefix: str, unread: list) -> dict:
    """The object `given` at `prefix` of the job ("" for the job itself) as
    `table` reads it: each key by its reader, or an object section by its
    own table (kinds, if it holds no reader), and DEFAULTS for the keys it
    leaves out.  The paths of the keys `table` does not hold join `unread`."""
    read = {}
    if not any(map(callable, table.values())):
        kind = given.get("kind")
        if not isinstance(kind, str) or kind not in table:
            raise SchemaError(f"{prefix}kind must be one of {', '.join(table)}, "
                              f"not {kind!r:.40}")
        read["kind"], table = kind, table[kind]
    unread += [prefix + key for key in given if key not in table and key not in read]
    for key, entry in table.items():
        path = prefix + key
        if key not in given and path not in DEFAULTS:
            continue
        value = given[key] if key in given else DEFAULTS[path]
        if callable(entry):
            read[key] = entry(value, path)
        elif isinstance(value, dict):
            read[key] = _read(value, entry, path + ".", unread)
        else:
            raise SchemaError(f"{path} must be an object, not {value!r:.40}")
    return read


def _reject_constant(name: str):
    raise SchemaError(f"job files may not hold {name}")


def _load_job(path: str) -> tuple:
    """(config, read, digest) of a job file: the job with its arrays echoed
    by length (`_echo`), the whole job read through JOB_KEYS (`_read`), and
    the SHA-256 hex digest of the file's bytes.  The non-standard JSON
    literals NaN, Infinity and -Infinity are refused."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        job = json.loads(raw, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read job file: {exc}")
    if not isinstance(job, dict):
        raise SchemaError("job must be a JSON object")
    unread = []
    read = _read(job, JOB_KEYS, "", unread)
    if unread:
        raise SchemaError(f"no command reads {', '.join(map(repr, unread))}")
    return _echo(job), read, sha256(raw).hexdigest()


def _echo(job: dict) -> dict:
    """The job with its arrays replaced by {"length": n}."""
    out = dict(job)
    for section, key in (("multiplier", "g_prime"), ("values", "items"),
                         ("lattice", "points")):
        spec = job.get(section, {})
        if isinstance(spec.get(key), list):
            out[section] = {**spec, key: {"length": len(spec[key])}}
    return out


def _build_weight(cfg: dict) -> WeightProfile:
    spec = cfg["weight"]
    if spec["kind"] == "classical":
        return classical_weight()
    scale = [key for key in ("c_gamma", "rho_origin") if key in spec]
    if "gamma" not in spec or len(scale) != 1:
        raise SchemaError("a power weight needs gamma and one of c_gamma "
                          "and rho_origin")
    return power_weight(spec["gamma"], **{scale[0]: spec[scale[0]]})


def _build_lattice(cfg: dict, w: WeightProfile) -> Lattice:
    if "lattice" not in cfg:
        raise SchemaError("this command needs a lattice")
    spec = cfg["lattice"]
    key, build = (("R", square_lattice) if spec["kind"] == "square"
                  else ("points", explicit_lattice))
    if key not in spec:
        raise SchemaError(f"a {spec['kind']} lattice needs {key}")
    return build(spec.pop(key), w)


def _grid(spec: dict, default_half: float, default_n: int) -> tuple:
    """(points, corner radius) of the midpoint grid of n x n cells on
    [-half_width, half_width]^2 of the job's "grid" section; y varies
    fastest along the points."""
    half, n = spec.get("half_width", default_half), spec.get("n", default_n)
    xs = -half + (np.arange(n) + 0.5) * (half + half) / n
    return (xs[:, None] + 1j * xs[None, :]).ravel(), abs(complex(half, half))


def _trace_data(cfg: dict) -> TraceData:
    """The trace data of a trace-check or reconstruct job on its lattice
    and multiplier.  The job's arrays leave cfg as they are built on, so
    none outlives its builder."""
    lat = _build_lattice(cfg, _build_weight(cfg))
    spec, p = cfg["multiplier"], cfg["p"]
    if spec["kind"] == "builtin_sigma":
        m = builtin_sigma_multiplier(lat)
    else:
        m = user_multiplier(lat, *spec.pop("g_prime"), spec["weighted"])
    spec = cfg["values"]
    if spec["kind"] == "zero":
        return TraceData.zero(m, p)
    if spec["kind"] == "constant":
        return TraceData.constant(m, p, spec["v"])
    if spec["kind"] == "gaussian_trace":
        return TraceData.gaussian(m, p, spec["w"])
    vals, _ = scatter_indexed(len(lat), *spec.pop("items"), "value")
    if spec["weighted"]:
        return TraceData.from_weighted(m, p, vals)
    return TraceData.from_raw(m, p, vals)


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


# -- commands: each maps (args, the job as read) to (results, tolerances) --


def cmd_lattice_info(args, cfg: dict) -> tuple:
    lat = _build_lattice(cfg, _build_weight(cfg))
    sched = shells_for(lat)
    r_max = cfg.get("density_r_max", 0.45 * lat.truncation_radius / lat.max_rho)
    return {
        "n_points": len(lat),
        "truncation_radius": lat.truncation_radius,
        "scale": lat.scale,
        "delta_sep": lat.delta_sep,
        "n_shells": sched.n_shells,
        "first_shell_size": (int(np.diff(sched.starts, append=sched.n_points)[1])
                             if sched.n_shells > 1 else 0),
        "max_rho": lat.max_rho,
        "upper_density": upper_density(lat, r_max),
    }, {}


def cmd_sigma_eval(args, cfg: dict) -> tuple:
    lat = _build_lattice(cfg, _build_weight(cfg))
    pts = _grid(cfg["grid"], lat.scale, 100)[0]
    vals = sigma_weighted_mag(lat, pts)
    _write_grid(args.grid, ["x", "y", "weighted_mag"], [pts.real, pts.imag, vals])
    return {"grid_file": args.grid, "n_values": int(vals.size),
            "max_weighted_mag": float(np.max(vals))}, {}


def cmd_trace_check(args, cfg: dict) -> tuple:
    data, rtol = _trace_data(cfg), cfg["pv"]["tolerance"]
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


def cmd_reconstruct(args, cfg: dict) -> tuple:
    data, rtol = _trace_data(cfg), cfg["pv"]["tolerance"]
    # beyond the guard band the truncated sums lose the true value; the
    # default grid's corner, half * sqrt(2), stays inside it
    guard = data.lattice.guard_radius()
    if guard <= 0:
        raise SchemaError(f"lattice R = {data.lattice.truncation_radius:.4g} leaves "
                          f"no guard band: the guard radius R - 5 max rho is "
                          f"{guard:.4g}, so no grid lies inside it")
    pts, corner = _grid(cfg["grid"], min(4.0, guard / math.sqrt(2.0)), 60)
    if corner > guard:
        raise ValueError(f"grid corner at radius {corner:.4g} lies "
                         f"beyond the guard radius {guard:.4g}")
    I = Interpolant(data, cfg.get("w0"), rtol)
    vals_w = I.eval_weighted(pts)
    # raw f = f e^{-phi} e^{phi}; NaN where that leaves double range
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.where(vals_w == 0, 0.0, vals_w * np.exp(phi(data.weight, pts)))
    overflow = ~np.isfinite(raw)
    raw[overflow] = complex(np.nan, np.nan)
    _write_grid(args.grid, ["x", "y", "re_f", "im_f", "weighted_mag"],
                [pts.real, pts.imag, raw.real, raw.imag, np.abs(vals_w)])
    residual = verify_interpolation(I, max_points=cfg["verify_points"])
    results = {"grid_file": args.grid, "max_weighted_residual": residual,
               "raw_overflow_points": int(overflow.sum()),
               "mode": I.mode, "w0": I.w0,
               "representative_only": I.representative_only}
    return results, {"pv_rtol": rtol, "residual_target": 1e-3}


def cmd_ap_probe(args, cfg: dict) -> tuple:
    w, p = _build_weight(cfg), cfg["p"]
    rep = ap_probe(w, p, cfg.get("radii", default_ap_radii(w)))
    return {"p": p, "disc_radii": list(rep.disc_radii),
            "ratios": list(rep.ratios),
            "fitted_exponent": rep.fitted_exponent,
            "is_ap": rep.is_ap}, {}


def cmd_op_norm(args, cfg: dict) -> tuple:
    w, op, sizes, p = _build_weight(cfg), cfg["op"], cfg["sizes"], cfg["p"]
    if min(sizes) < math.pi:
        # a size's section is the disc pi R^2 = size scale^2, which below
        # pi holds the origin alone: its norm is 0, and the growth ratio
        # divides by it
        raise SchemaError(f"sizes: the smallest, {min(sizes)}, gives a "
                          f"one-point section; the growth ratio needs two points")
    # only M(N) reads N; without one it is the smallest N > 1/t
    if op != "M" and "N" in cfg:
        raise SchemaError(f"op-norm: only M reads N, and op is {op}")
    N = None
    if op == "M":
        t = estimate_t(w)
        N = cfg.get("N", choose_N(t))
        if N <= 1.0 / t:
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
        config, cfg, digest = _load_job(args.input)
        results, tolerances = args.fn(args, cfg)
        _emit({
            "command": args.command,
            "version": __version__,
            "seed": args.seed,
            "config": config,
            "input_sha256": digest,
            "tolerances": tolerances,
            "timing_s": round(time.perf_counter() - t0, 3),
            "results": results,
        }, args.output)
        return EXIT_OK
    except (SchemaError, ValueError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
