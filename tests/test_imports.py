"""Classical-weight CLI jobs run on numpy alone: scipy is imported only by
power weights (rho) and explicit lattices (KD-tree), on first use."""

import json
import os
import subprocess
import sys
import textwrap

import focklattice

SRC = os.path.dirname(os.path.dirname(os.path.abspath(focklattice.__file__)))

SCRIPT = textwrap.dedent("""
    import json, math, os, sys
    import focklattice.cli as cli

    def loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    def run(name, command, job, *extra):
        path = os.path.join(WORK, name + ".json")
        with open(path, "w") as fh:
            json.dump(job, fh)
        argv = [command, "--input", path, "--output", path + ".out", *extra]
        return cli.main(argv)

    WORK = sys.argv[1]
    out = {"after_import": loaded()}
    base = {"weight": {"kind": "classical"}, "lattice": {"kind": "square", "R": 10},
            "multiplier": {"kind": "builtin_sigma"},
            "values": {"kind": "gaussian_trace", "w": [0.3, -0.2]}}
    rcs = [run("trace2", "trace-check", dict(base, p=2)),
           run("traceinf", "trace-check", dict(base, p="inf")),
           run("recon", "reconstruct", dict(base, p=2, grid={"half_width": 2.0, "n": 6},
                                            verify_points=10),
               "--grid", os.path.join(WORK, "recon.csv")),
           run("opnorm", "op-norm", {"weight": {"kind": "classical"}, "op": "L",
                                     "p": 2, "sizes": [200, 400]})]
    out["classical_rc"] = rcs
    out["after_classical"] = loaded()
    k = range(-8, 9)
    n_points = sum(1 for a in k for b in k if (a * a + b * b) * math.pi / 2 <= 100)
    power = {"weight": {"kind": "power", "gamma": 0.5, "rho_origin": 2.0},
             "lattice": {"kind": "square", "R": 10},
             "multiplier": {"kind": "user_table", "weighted": True,
                            "g_prime": [{"index": k, "re": 1.0, "im": 0.0}
                                        for k in range(n_points)]},
             "values": {"kind": "zero"}, "p": 2}
    out["power_rc"] = run("power", "trace-check", power)
    with open(os.path.join(WORK, "power.json.out")) as fh:
        out["power_overall"] = json.load(fh)["results"]["overall"]
    out["after_power"] = loaded()
    print(json.dumps(out))
""")


def test_classical_jobs_do_not_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["after_import"] == []
    assert out["classical_rc"] == [0, 0, 0, 0]
    assert out["after_classical"] == []
    # positive control: a power weight needs rho, so scipy loads and the job passes
    assert out["power_rc"] == 0
    assert out["power_overall"] == "bounded"
    assert "scipy.interpolate" in out["after_power"]
