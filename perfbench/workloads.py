"""Seeded CLI jobs for each workload.

Every job is a JSON file the ``focklattice`` CLI reads, plus what its
answer must satisfy (see ``oracle.py``).  The same seed gives byte-identical
job files.  Sizes are fixed per workload; the seed only moves data (trace
centres, table phases, stencil amplitudes), so a pass costs the same work
on every seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

SCALE = math.sqrt(math.pi / 2.0)   # spacing of the critical square lattice

# Workload -> sizes.  `small` gives tiny jobs for the harness self-tests.
SIZES = {
    "full": {"sigma_R2": 28.0, "sigma_Rinf": 26.0, "power_R": 45.0,
             "wide_R": 70.0, "op_sizes": [200, 5000], "recon_R": 20.0,
             "recon_n": 24, "recon_verify": 40},
    "small": {"sigma_R2": 8.0, "sigma_Rinf": 8.0, "power_R": 8.0,
              "wide_R": 8.0, "op_sizes": [20, 60], "recon_R": 8.0,
              "recon_n": 4, "recon_verify": 4},
}

WORKLOADS = ("sigma-trace", "power-geometry", "wide-transforms",
             "reconstruct-grid")

POWER_GAMMA, POWER_RHO0 = 0.5, 2.0
AP_GAMMA, AP_P = 5.0, 4.0 / 3.0


def square_points(R: float):
    """(m, n, points) of SCALE*(m + i n) with |point| <= R, in the CLI's
    index order: ascending radius, ties by real then imaginary part."""
    M = int(math.ceil(R / SCALE)) + 1
    m, n = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1), indexing="ij")
    m, n = m.ravel(), n.ravel()
    pts = SCALE * (m + 1j * n)
    keep = np.abs(pts) <= R
    m, n, pts = m[keep], n[keep], pts[keep]
    order = np.lexsort((pts.imag, pts.real, np.round(np.abs(pts), 12)))
    return m[order], n[order], pts[order]


def _centre(rng) -> list:
    r, t = 0.4 * math.sqrt(rng.uniform()), 2.0 * math.pi * rng.uniform()
    return [round(r * math.cos(t), 6), round(r * math.sin(t), 6)]


def _entries(vals, skip_zero=False):
    return [{"index": i, "re": float(v.real), "im": float(v.imag)}
            for i, v in enumerate(vals) if not (skip_zero and v == 0)]


def _power_rho(a: np.ndarray) -> np.ndarray:
    """Rough rho of phi = C|z|^gamma with rho(0) = POWER_RHO0: the local
    disc of unit mass, rho ~ (pi C gamma^2 |z|^(gamma-2))^(-1/2), joined to
    rho(0).  Only its size matters: it sets |g'| e^{-phi} ~ 1/rho."""
    C = 1.0 / (2.0 * math.pi * POWER_GAMMA * POWER_RHO0 ** POWER_GAMMA)
    far = (math.pi * C * POWER_GAMMA ** 2) ** -0.5 * a ** (1.0 - POWER_GAMMA / 2.0)
    return np.sqrt(POWER_RHO0 ** 2 + far ** 2)


def _classical(R, values, p, multiplier=None, **extra):
    job = {"weight": {"kind": "classical"},
           "lattice": {"kind": "square", "R": R},
           "multiplier": multiplier or {"kind": "builtin_sigma"},
           "values": values, "p": p}
    job.update(extra)
    return job


def _sigma_trace(rng, sz):
    jobs = []
    for name, R, p in (("trace_p2", sz["sigma_R2"], 2),
                       ("trace_pinf", sz["sigma_Rinf"], "inf")):
        w = _centre(rng)
        jobs.append(("trace-check", name,
                     _classical(R, {"kind": "gaussian_trace", "w": w}, p), {}))
    return jobs


def _power_geometry(rng, sz):
    _, _, pts = square_points(sz["power_R"])
    gw = np.exp(2j * math.pi * rng.uniform(size=len(pts))) / _power_rho(np.abs(pts))
    # d = c / g' is the origin-centred 5-point Laplacian stencil: its moments
    # of orders 0..3 vanish, so every transform decays fast and every
    # condition is bounded.  Its amplitude and the table phases are seeded.
    d = np.zeros(len(pts), dtype=complex)
    d[0] = -4.0
    d[1:5] = 1.0          # the four nearest neighbours of the origin
    c = complex(*rng.normal(size=2)) * d * gw
    job = {"weight": {"kind": "power", "gamma": POWER_GAMMA,
                      "rho_origin": POWER_RHO0},
           "lattice": {"kind": "square", "R": sz["power_R"]},
           "multiplier": {"kind": "user_table", "weighted": True,
                          "g_prime": _entries(gw)},
           "values": {"kind": "list", "weighted": True,
                      "items": _entries(c, skip_zero=True)},
           "p": 3}
    ap = {"weight": {"kind": "power", "gamma": AP_GAMMA, "c_gamma": 1.0},
          "p": AP_P}
    return [("trace-check", "trace_p3", job, {}), ("ap-probe", "ap_probe", ap, {})]


def _wide_transforms(rng, sz):
    m, n, _ = square_points(sz["wide_R"])
    # g'(lambda) e^{-|lambda|^2} = (-1)^(m+n+mn) for sigma of this lattice
    table = {"kind": "user_table", "weighted": True,
             "g_prime": _entries((-1.0) ** ((m + n + m * n) % 2) + 0j)}
    jobs = []
    for name, p in (("trace_p1", 1), ("trace_pinf", "inf")):
        w = _centre(rng)
        jobs.append(("trace-check", name,
                     _classical(sz["wide_R"], {"kind": "gaussian_trace", "w": w},
                                p, multiplier=table), {}))
    for op in ("L", "B"):
        jobs.append(("op-norm", f"op_norm_{op}",
                     {"weight": {"kind": "classical"}, "op": op,
                      "sizes": sz["op_sizes"], "p": 2}, {}))
    return jobs


def _reconstruct_grid(rng, sz):
    jobs = []
    for name, p in (("reconstruct_p2", 2), ("reconstruct_pinf", "inf")):
        w = _centre(rng)
        extra = {"grid": {"half_width": 3.0, "n": sz["recon_n"]},
                 "verify_points": sz["recon_verify"]}
        if p == "inf":
            wc = complex(*w)
            w0 = 2.0 * wc.conjugate() * math.exp(-abs(wc) ** 2)
            extra["w0"] = [w0.real, w0.imag]
        jobs.append(("reconstruct", name,
                     _classical(sz["recon_R"], {"kind": "gaussian_trace", "w": w},
                                p, **extra),
                     {"w": w}))
    return jobs


def make_jobs(workload: str, seed: int, workdir: str, size: str = "full"):
    """Write the workload's job files for this seed into workdir.

    Returns a list of dicts with the command, the CLI argv, the job as
    written, and what the answer check needs beyond the job (the trace
    centre of a reconstruction)."""
    sz = SIZES[size]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sigma-trace":
        specs = _sigma_trace(rng, sz)
    elif workload == "power-geometry":
        specs = _power_geometry(rng, sz)
    elif workload == "wide-transforms":
        specs = _wide_transforms(rng, sz)
    elif workload == "reconstruct-grid":
        specs = _reconstruct_grid(rng, sz)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    jobs = []
    for command, name, job, expect in specs:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(job, fh, sort_keys=True)
        out = os.path.join(workdir, f"{name}.out.json")
        argv = ["--seed", str(seed), command, "--input", path, "--output", out]
        grid = None
        if command == "reconstruct":
            grid = os.path.join(workdir, f"{name}.grid.csv")
            argv += ["--grid", grid]
        jobs.append({"name": name, "command": command, "argv": argv,
                     "job": job, "expect": expect, "output": out,
                     "grid": grid})
    return jobs
