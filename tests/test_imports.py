"""CLI jobs run on numpy alone: square lattices with classical and power
weights (the rho table and its spline are numpy code) and explicit
lattices (the nearest-point search is numpy code).  No job draws random
numbers: the op-norm start vector reads the fixed quasirandom sample, and
the doubling exponent is closed form, so no job loads numpy.random (nor
the `secrets` and OpenSSL `_hashlib` modules it pulls in).  No job loads
`dataclasses` (the records are named tuples and plain classes) or
`focklattice.acceptance` (only its own command imports it)."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import focklattice
from focklattice import WeightProfile
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
    # the power-weight trace-check at p = 3
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


def test_bad_weight_profiles_still_raise():
    # an unknown weight kind is the job key table's to refuse (cli.JOB_KEYS)
    with pytest.raises(SchemaError, match="must be positive"):
        WeightProfile(-1.0, 1.0)
    with pytest.raises(SchemaError, match="must be positive"):
        WeightProfile(2.0, 0.0)


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


def test_every_definition_is_used_in_src():
    # a top-level function or class, a method or a property of the package
    # that no code in src names (imports and __all__ strings do not count)
    # is kept only for the tests
    import ast
    import glob
    defined, used = {}, set()
    for path in glob.glob(os.path.join(os.path.dirname(focklattice.__file__), "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    defined.setdefault(d.name, os.path.basename(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name: where for name, where in defined.items()
              if name not in used and not (name.startswith("__") and name.endswith("__"))}
    assert not unused, f"defined in src but used only outside it: {unused}"


def _defaults_and_calls():
    """Every defaulted parameter in src as (callee name, position or None,
    parameter): of a function, a method or a class constructor, a named
    tuple's or a dataclass's defaulted fields included; and every call in
    src, by the name it calls.  Calls match by name only, so both default
    guards match a callee alike."""
    import ast
    import glob
    defaults, calls = [], {}
    for path in glob.glob(os.path.join(os.path.dirname(focklattice.__file__), "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        owner = {d: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for d in node.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                calls.setdefault(getattr(f, "id", getattr(f, "attr", None)), []).append(node)
            elif isinstance(node, ast.ClassDef):
                fields = [d for d in node.body if isinstance(d, ast.AnnAssign)]
                defaults += [(node.name, i, d.target.id) for i, d in enumerate(fields)
                             if d.value is not None]
            elif isinstance(node, ast.FunctionDef):
                a, cls = node.args, owner.get(node)
                pos = [x.arg for x in a.posonlyargs + a.args]
                if cls and "staticmethod" not in [getattr(x, "id", None)
                                                  for x in node.decorator_list]:
                    pos = pos[1:]                   # self or cls
                name = cls.name if node.name == "__init__" else node.name
                defaults += [(name, i, pos[i])
                             for i in range(len(pos) - len(a.defaults), len(pos))]
                defaults += [(name, None, k.arg)
                             for k, v in zip(a.kwonlyargs, a.kw_defaults) if v is not None]
    return defaults, calls


def _unpacks(call):
    # a call that unpacks *args or **kwargs may or may not pass a parameter
    import ast
    return (any(isinstance(x, ast.Starred) for x in call.args)
            or any(k.arg is None for k in call.keywords))


def _names(call, index, param):
    # the call passes the parameter by keyword or by position
    return (any(k.arg == param for k in call.keywords)
            or (index is not None and len(call.args) > index))


def test_every_default_is_set_in_src():
    # a defaulted parameter that no call in src passes holds one value: a
    # setting that only tests change, or none does.  A call that unpacks
    # *args or **kwargs counts as passing every parameter.  main(argv) is
    # exempt: it is the console entry point, and argv is how tests drive it
    defaults, calls = _defaults_and_calls()
    unset = sorted({(name, param) for name, index, param in defaults
                    if not any(_unpacks(c) or _names(c, index, param)
                               for c in calls.get(name, []))})
    assert unset == [("main", "argv")], f"defaults that no call in src sets: {unset}"


def test_every_default_is_used_in_src():
    # the dual: a defaulted parameter that every call in src passes is a
    # default that only tests take.  A call that unpacks *args or **kwargs
    # counts as taking it (power_weight's rho_origin, _check_refinement's
    # rtol).  Exempt, as documented API (README): condition(data, cid) and
    # batch_modified_inf(lat, d, indices) take the p.v. tolerance PV_RTOL
    defaults, calls = _defaults_and_calls()
    overridden = sorted({(name, param) for name, index, param in defaults
                         if calls.get(name) and all(not _unpacks(c) and _names(c, index, param)
                                                    for c in calls[name])})
    assert overridden == [("batch_modified_inf", "rtol"), ("condition", "rtol")], \
        f"defaults that every call in src overrides: {overridden}"


def test_job_values_are_read_only_through_the_key_table():
    # one place says what a job key holds: the readers in cli.JOB_KEYS are
    # named only by other readers, by the table and by the read walk, and
    # only the functions that load, read and echo the parsed job hold it
    import ast
    from focklattice import cli
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    table = next(node for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["JOB_KEYS"])
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    readers = {node.id for node in ast.walk(table.value)
               if isinstance(node, ast.Name)} & functions
    assert readers == {"_number", "_positive", "_count", "_flag", "_complex_of",
                       "_entries", "_list_of", "_p", "_op", "_tolerance"}
    for node in tree.body:
        if node is table or getattr(node, "name", None) in readers | {"_read"}:
            continue
        named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & readers
        assert not named, f"{getattr(node, 'name', ast.unparse(node)[:40])} reads " \
                          f"a job value itself with {sorted(named)}"
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name not in (
                "_load_job", "_echo", "main"):
            a = node.args
            names = {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                     a.vararg, a.kwarg] if x is not None}
            names |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            assert "job" not in names, f"{node.name} holds the parsed job"


def test_readme_library_sketch_runs():
    # the README's sketch is the documented library API: run it as written
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text[text.index("## Library sketch"):]
    code = section[section.index("```python") + len("```python"):]
    code = code[:code.index("```")]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    w, z = 0.3 + 0.1j, 1.2 - 0.7j
    assert scope["verdict"].branch.condition_ids == ("a", "b")
    assert scope["verdict"].overall == "bounded"
    assert scope["value"] == pytest.approx(np.exp(2 * np.conj(w) * z - abs(w) ** 2),
                                           rel=1e-6)
    assert scope["data"].weight is scope["lat"].weight
    assert np.all(np.isfinite(scope["weighted"]))
