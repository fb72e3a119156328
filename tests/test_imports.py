"""CLI jobs run on numpy alone: square lattices with classical and power
weights (the rho table, its polish and spline are numpy code) and explicit
lattices (the nearest-point search is numpy code).  No job draws random
numbers: the doubling-exponent fit and the op-norm start vector read the
fixed quasirandom sample, so no job loads numpy.random (nor the `secrets`
and OpenSSL `_hashlib` modules it pulls in).  No job loads `dataclasses`
(the records are named tuples and plain classes) or
`focklattice.acceptance` (only its own command imports it)."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import focklattice
from focklattice import WeightProfile, power_weight
from focklattice.classifier import cached_t
from focklattice.errors import SchemaError

SRC = os.path.dirname(os.path.dirname(os.path.abspath(focklattice.__file__)))

SCRIPT = textwrap.dedent("""
    import json, math, os, sys
    import focklattice.cli as cli

    def loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    def random_modules():
        # numpy.random and what it pulls in: secrets and OpenSSL's _hashlib
        return sorted(m for m in ("numpy.random", "secrets", "_hashlib")
                      if m in sys.modules)

    def heavy():
        # modules no job should need
        return sorted(m for m in ("dataclasses", "focklattice.acceptance")
                      if m in sys.modules)

    def run(name, command, job, *extra):
        path = os.path.join(WORK, name + ".json")
        with open(path, "w") as fh:
            json.dump(job, fh)
        argv = [command, "--input", path, "--output", path + ".out", *extra]
        return cli.main(argv)

    WORK = sys.argv[1]
    out = {"after_import": loaded(), "random_after_import": "numpy.random" in sys.modules,
           "heavy_after_import": heavy()}
    base = {"weight": {"kind": "classical"}, "lattice": {"kind": "square", "R": 10},
            "multiplier": {"kind": "builtin_sigma"},
            "values": {"kind": "gaussian_trace", "w": [0.3, -0.2]}}
    rcs = [run("trace2", "trace-check", dict(base, p=2)),
           run("traceinf", "trace-check", dict(base, p="inf")),
           run("recon", "reconstruct", dict(base, p=2, grid={"half_width": 2.0, "n": 6},
                                            verify_points=10),
               "--grid", os.path.join(WORK, "recon.csv"))]
    out["random_after_classical"] = "numpy.random" in sys.modules
    out["heavy_after_classical"] = heavy()
    k = range(-8, 9)
    n_points = sum(1 for a in k for b in k if (a * a + b * b) * math.pi / 2 <= 100)
    power = {"weight": {"kind": "power", "gamma": 0.5, "rho_origin": 2.0},
             "lattice": {"kind": "square", "R": 10},
             "multiplier": {"kind": "user_table", "weighted": True,
                            "g_prime": [{"index": k, "re": 1.0, "im": 0.0}
                                        for k in range(n_points)]},
             "values": {"kind": "zero"}, "p": 3}
    power_rc = [run("power", "trace-check", power)]
    out["random_after_power"] = "numpy.random" in sys.modules
    out["heavy_after_power"] = heavy()
    rcs.append(run("opnorm", "op-norm", {"weight": {"kind": "classical"}, "op": "L",
                                         "p": 2, "sizes": [200, 400]}))
    out["random_after_opnorm"] = random_modules()
    out["heavy_after_opnorm"] = heavy()
    out["classical_rc"] = rcs
    out["after_classical"] = loaded()
    ap = {"weight": {"kind": "power", "gamma": 0.5, "rho_origin": 2.0}, "p": 3}
    out["power_rc"] = power_rc + [run("ap", "ap-probe", ap)]
    with open(os.path.join(WORK, "power.json.out")) as fh:
        out["power_overall"] = json.load(fh)["results"]["overall"]
    out["after_power"] = loaded()
    pts = [[0, 0], [1.5, 0], [-1.5, 0], [0, 1.5], [0, -1.5],
           [1.5, 1.5], [-1.5, 1.5], [1.5, -1.5], [-1.5, -1.5]]
    explicit = {"weight": {"kind": "classical"},
                "lattice": {"kind": "explicit", "points": pts},
                "multiplier": {"kind": "user_table", "weighted": True,
                               "g_prime": [{"index": k, "re": 1.0, "im": 0.0}
                                           for k in range(len(pts))]},
                "values": {"kind": "zero"}, "p": 2}
    out["explicit_rc"] = run("explicit", "trace-check", explicit)
    out["after_explicit"] = loaded()
    try:
        import scipy.spatial
    except ImportError:
        out["after_control"] = None
    else:
        out["after_control"] = loaded()
    import numpy.random
    out["random_control"] = random_modules()
    print(json.dumps(out))
""")


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    """Modules loaded after each group of CLI jobs, run in that order in
    one fresh interpreter: classical trace-check and reconstruct, one
    power-weight trace-check, classical op-norm, power-weight ap-probe,
    explicit lattice; then after importing scipy.spatial and numpy.random
    directly."""
    env = dict(os.environ, PYTHONPATH=SRC)
    work = str(tmp_path_factory.mktemp("jobs"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, work], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_classical_jobs_do_not_import_scipy(jobs):
    assert jobs["after_import"] == []
    assert jobs["classical_rc"] == [0, 0, 0, 0]
    assert jobs["after_classical"] == []


def test_classical_trace_jobs_do_not_import_numpy_random(jobs):
    # trace-check at p = 2 and p = inf, then reconstruct, before any
    # power-weight or op-norm job
    assert jobs["random_after_import"] is False
    assert jobs["random_after_classical"] is False


def test_power_weight_jobs_do_not_import_numpy_random(jobs):
    # the power-weight trace-check at p = 3 fits its doubling exponent on
    # the fixed quasirandom sample
    assert jobs["random_after_power"] is False


def test_op_norm_job_does_not_import_numpy_random(jobs):
    # op-norm, run right after the power job, starts its Golub-Kahan-Lanczos
    # run from the quasirandom sample offset by --seed
    assert jobs["random_after_opnorm"] == []


def test_loader_sees_numpy_random_when_it_loads(jobs):
    # positive control for `random_modules`: the script imports numpy.random last
    assert jobs["random_control"] == ["_hashlib", "numpy.random", "secrets"]


def test_jobs_load_neither_dataclasses_nor_acceptance(jobs):
    for when in ("import", "classical", "power", "opnorm"):
        assert jobs[f"heavy_after_{when}"] == [], when


def test_power_weight_jobs_do_not_import_scipy(jobs):
    # trace-check and ap-probe both build the rho spline
    assert jobs["power_rc"] == [0, 0]
    assert jobs["power_overall"] == "bounded"
    assert jobs["after_power"] == []


def test_explicit_lattice_jobs_do_not_import_scipy(jobs):
    assert jobs["explicit_rc"] == 0
    assert jobs["after_explicit"] == []


def test_loader_sees_scipy_when_it_loads(jobs):
    # positive control for `loaded`: the script imports scipy.spatial last
    if jobs["after_control"] is None:
        pytest.skip("scipy is not installed")
    assert "scipy.spatial" in jobs["after_control"]


def test_equal_weight_profiles_share_one_cached_t_entry():
    a = power_weight(0.5, rho_origin=2.0)
    b = WeightProfile(kind="power", gamma=0.5, c_gamma=a.c_gamma)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != power_weight(0.5, rho_origin=3.0)
    cached_t.cache_clear()
    assert cached_t(a) is cached_t(b)
    assert cached_t.cache_info().currsize == 1


def test_bad_weight_profiles_still_raise():
    with pytest.raises(SchemaError, match="unknown weight kind"):
        WeightProfile(kind="log")
    with pytest.raises(SchemaError, match="must be positive"):
        WeightProfile(kind="power", gamma=-1.0)


def _package_modules():
    import importlib
    import pkgutil
    return [importlib.import_module(f"focklattice.{m.name}")
            for m in pkgutil.iter_modules(focklattice.__path__)]


def test_every_all_name_resolves():
    for mod in _package_modules():
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists {name}"


def test_package_reexports_are_in_module_all():
    # every `from .module import name` in __init__ names a public export of
    # a module that declares __all__
    import ast
    import importlib
    with open(focklattice.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"focklattice.{node.module}")
            if not hasattr(mod, "__all__"):
                continue
            missing = [a.name for a in node.names if a.name not in mod.__all__]
            assert not missing, f"focklattice.{node.module}.__all__ lacks {missing}"
