"""CLI-job benchmark for focklattice.

Usage (from the repository root):

    python3 perfbench/run.py --workload sigma-trace --seed 1 --seconds 15 --trace 0

Each job is one ``focklattice`` CLI call in a fresh interpreter, as a user
runs it.  The load is a closed loop with one client: jobs run one after
another, one worker process at a time, with the BLAS pool capped at the
number of usable cores.  A pass runs the workload's job list once; passes
repeat until the next one would end after ``--seconds`` (at least one
runs).  Every job's answer is checked by ``oracle.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass per round and prints the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Human-readable lines and the environment come before it,
and the full record (spans included) is written to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
PACKAGE_DIR = os.path.join(ROOT, "src", "focklattice")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_SPAWNS = 3
DEADLINE_S = 170.0          # a hung job is killed so the run still reports
START = time.monotonic()


def blas_cap() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cap = str(blas_cap())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def spawn(spec: dict, tag: str) -> dict:
    """Run one worker to completion; returns its measurements plus the
    parent-side wall time and set-up time (spawn until CLI imported)."""
    spec = dict(spec, package_dir=PACKAGE_DIR,
                meta=os.path.join(WORK, f"{tag}.meta.json"))
    spec_path = os.path.join(WORK, f"{tag}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    if os.path.exists(spec["meta"]):
        os.remove(spec["meta"])
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             spec_path], env=child_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, DEADLINE_S - (t0 - START)))
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    t1 = time.monotonic()
    out = {"exit": proc.returncode, "wall_s": t1 - t0,
           "stderr": err.decode(errors="replace")[-2000:]}
    try:
        with open(spec["meta"]) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return out
    out.update(meta)
    out["setup_s"] = meta["ready"] - t0
    return out


def run_pass(jobs, trace: bool, tag: str) -> dict:
    """One pass through the job list, then every answer checked."""
    results = []
    t0 = time.monotonic()
    for job in jobs:
        results.append(spawn({"argv": job["argv"], "trace": trace},
                             f"{tag}-{job['name']}"))
    wall = time.monotonic() - t0
    for job, res in zip(jobs, results):
        res["failures"] = judge(job, res)
    return {"wall_s": wall, "jobs": results}


def judge(job: dict, res: dict) -> list:
    if res["exit"] != 0 or res.get("rc") != 0:
        return [f"exit {res['exit']} rc {res.get('rc')}: {res['stderr'][-300:]}"]
    try:
        with open(job["output"]) as fh:
            report = json.load(fh)
        grid = oracle.read_grid(job["grid"]) if job["grid"] else None
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
    return oracle.check(job, report, grid)


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas_thread_cap": blas_cap(),
            "machine": platform.machine(), "git_commit": git_commit(),
            "seed": seed}


def command_times(jobs, p: dict) -> dict:
    out = {}
    for job, res in zip(jobs, p["jobs"]):
        key = job["command"].replace("-", "_") + "_s"
        out[key] = out.get(key, 0.0) + res.get("main_s", 0.0)
    return out


def end_to_end(passes, setups) -> dict:
    med = statistics.median
    return {
        "wall_s": {"value": med([p["wall_s"] for p in passes]), "unit": "s"},
        "setup_s": {"value": med(setups), "unit": "s"},
        "peak_rss_mb": {"value": med([max(r.get("maxrss_mb", 0.0) for r in p["jobs"])
                                      for p in passes]), "unit": "MB"},
    }


# per-layer metric -> (span name, field) read from tracing.summarise
SPAN_METRICS = {
    "weights.rho_many_s": ("weights.rho_many", "s"),
    "weights.rho_many_calls": ("weights.rho_many", "calls"),
    "weights.rho_many_points": ("weights.rho_many", "points"),
    "weights.estimate_t_s": ("weights.estimate_t", "s"),
    "weights.ap_probe_s": ("weights.ap_probe", "s"),
    "weights.ap_probe_radii": ("weights.ap_probe", "radii"),
    "lattice.build_s": ("lattice.build", "s"),
    "lattice.points": ("lattice.build", "points"),
    "lattice.shells_for_s": ("lattice.shells_for", "s"),
    "lattice.shells_for_calls": ("lattice.shells_for", "calls"),
    "multiplier.build_s": ("multiplier.build", "s"),
    "multiplier.g_prime_s": ("multiplier.g_prime", "s"),
    "multiplier.g_prime_indices": ("multiplier.g_prime", "indices"),
    "multiplier.log_g_s": ("multiplier.log_g", "s"),
    "multiplier.log_g_points": ("multiplier.log_g", "points"),
    "multiplier.log_g_deflated_calls": ("multiplier.log_g_deflated", "calls"),
    "transforms.pv_batch_s": ("transforms.pv_batch", "s"),
    "transforms.pv_batch_calls": ("transforms.pv_batch", "calls"),
    "transforms.pv_batch_centres": ("transforms.pv_batch", "centres"),
    "transforms.pv_centre_terms": ("transforms.pv_batch", "centre_terms"),
    "transforms.op_norm_s": ("transforms.op_norm", "s"),
    "transforms.op_norm_points": ("transforms.op_norm", "points"),
    "classifier.classify_s": ("classifier.classify", "s"),
    "classifier.conditions": ("classifier.classify", "conditions"),
    "interpolate.eval_self_s": ("interpolate.eval", "self_s"),
    "interpolate.eval_points": ("interpolate.eval", "points"),
    "interpolate.eval_calls": ("interpolate.eval", "calls"),
    "interpolate.verify_s": ("interpolate.verify", "s"),
    "cli.trace_check_s": ("cli.trace_check", "s"),
    "cli.reconstruct_s": ("cli.reconstruct", "s"),
    "cli.op_norm_s": ("cli.op_norm", "s"),
    "cli.ap_probe_s": ("cli.ap_probe", "s"),
}
LAYERS = ("cli", "weights", "lattice", "multiplier", "transforms",
          "classifier", "interpolate")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(traced_pass: dict, overhead: float) -> dict:
    """Per-layer numbers of one traced pass (all its jobs together)."""
    spans = []
    for res in traced_pass["jobs"]:
        base = len(spans)
        for name, start, end, parent, counts in res.get("spans") or []:
            spans.append([name, start, end, parent + base if parent >= 0 else -1,
                          counts])
    by_name, layer_self = tracing.summarise(spans)
    vals = {}
    for metric, (span, field) in SPAN_METRICS.items():
        agg = by_name.get(span, {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})
        vals[metric] = agg[field] if field in agg else agg["counts"].get(field, 0)
    for layer in LAYERS:
        vals[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    pv = by_name.get("transforms.pv_batch", {"counts": {}})["counts"]
    vals["transforms.unconverged_ratio"] = (pv.get("unconverged", 0)
                                            / max(pv.get("centres", 0), 1))
    vals["interpolate.verify_points"] = tracing.parent_counts(
        spans, "interpolate.eval", "interpolate.verify")
    vals["cli.jobs"] = len(traced_pass["jobs"])
    vals["trace.job_s"] = by_name.get(tracing.ROOT, {"s": 0.0})["s"]
    vals["trace.overhead_ratio"] = overhead
    return {k: {"value": v, "unit": unit_of(k)} for k, v in vals.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE_DIR, "cli.py")):
        print(f"no focklattice sources under {PACKAGE_DIR}; run from the "
              "repository root", file=sys.stderr)
        return 2
    seed = args.seed & 0xFFFFFFFF
    tag = f"{args.workload}-{seed}"
    workdir = os.path.join(WORK, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = workloads.make_jobs(args.workload, seed, workdir)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    setups = [spawn({}, f"{tag}/setup{i}") for i in range(SETUP_SPAWNS)]
    if any(s["exit"] != 0 or "setup_s" not in s for s in setups):
        print("set-up failed: " + setups[0]["stderr"], file=sys.stderr)
        return 3

    untraced, traced = [], []
    t_start = time.monotonic()
    last = 0.0
    while not untraced or time.monotonic() - t_start + last <= args.seconds:
        t_round = time.monotonic()
        i = len(untraced)
        untraced.append(run_pass(jobs, False, f"{tag}/pass{i}"))
        if args.trace:
            traced.append(run_pass(jobs, True, f"{tag}/traced{i}"))
        last = time.monotonic() - t_round
    all_jobs = [(job, r) for p in untraced + traced
                for job, r in zip(jobs, p["jobs"])]
    failed = [(job["name"], r["failures"]) for job, r in all_jobs if r["failures"]]
    for name, why in failed:
        print(f"FAILED {name}: {'; '.join(why)}")
    attempted = len(all_jobs)

    e2e = end_to_end(untraced, [s["setup_s"] for s in setups])
    n = len(untraced)
    print(f"workload {args.workload} seed {args.seed}: {n} pass(es) of "
          f"{len(jobs)} jobs; setup over {SETUP_SPAWNS} spawns")
    for name, m in e2e.items():
        count = SETUP_SPAWNS if name == "setup_s" else n
        print(f"  {name:<14} {m['value']:.4f} {m['unit']}  (median of {count})")
    cmds = [command_times(jobs, p) for p in untraced]
    for key in sorted(cmds[0]):
        value = statistics.median([c[key] for c in cmds])
        print(f"  {key:<14} {value:.4f} s  (median of {n})")
    print(f"  error_rate     {len(failed) / attempted:.4f}  "
          f"({len(failed)} of {attempted} jobs)")

    record = {"env": env, "workload": args.workload, "end_to_end": e2e,
              "untraced": untraced}
    if args.trace:
        overhead = (statistics.median([p["wall_s"] for p in traced])
                    / statistics.median([p["wall_s"] for p in untraced]) - 1.0)
        metrics = per_layer(traced[-1], overhead)
        record.update(per_layer=metrics, traced=traced)
        for name in sorted(metrics):
            print(f"  {name:<34} {metrics[name]['value']:.6g} "
                  f"{metrics[name]['unit']}")
    else:
        metrics = e2e
    with open(os.path.join(WORK, f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, default=str)
    shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
