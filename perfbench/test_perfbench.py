"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import filecmp
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_jobs_are_deterministic_per_seed(tmp_path, workload):
    a = workloads.make_jobs(workload, 7, str(tmp_path / "a"), size="small")
    b = workloads.make_jobs(workload, 7, str(tmp_path / "b"), size="small")
    c = workloads.make_jobs(workload, 8, str(tmp_path / "c"), size="small")
    names = [os.path.basename(j["argv"][4]) for j in a]
    assert names == [os.path.basename(j["argv"][4]) for j in b]
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names,
                                           shallow=False)
    assert not mismatch and not errors
    assert [j["job"] for j in a] != [j["job"] for j in c]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_jobs_pass_the_cli_schema(tmp_path, workload):
    from focklattice.cli import main
    for job in workloads.make_jobs(workload, 3, str(tmp_path), size="small"):
        assert main(job["argv"]) == 0, job["name"]
        with open(job["output"]) as fh:
            assert json.load(fh)["command"] == job["command"]


def _span(name, start, end, parent):
    return [name, start, end, parent, {}]


def test_self_time_on_a_synthetic_tree():
    spans = [_span("cli.main", 0.0, 10.0, -1),
             _span("classifier.classify", 1.0, 4.0, 0),
             _span("transforms.pv_batch", 5.0, 9.0, 0),
             _span("weights.rho_many", 6.0, 7.0, 2),
             _span("lattice.shells_for", 7.5, 8.5, 2)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.0])
    by_name, layer_self = tracing.summarise(spans)
    assert sum(layer_self.values()) == pytest.approx(10.0)
    assert layer_self["transforms"] == pytest.approx(2.0)
    assert by_name["transforms.pv_batch"]["s"] == pytest.approx(4.0)


def test_overlapping_children_are_covered_once():
    spans = [_span("cli.main", 0.0, 4.0, -1),
             _span("lattice.shells_for", 1.0, 3.0, 0),
             _span("lattice.shells_for", 2.0, 3.5, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_nested_calls_of_one_function_count_once():
    spans = [_span("cli.main", 0.0, 5.0, -1),
             _span("weights.rho_many", 1.0, 4.0, 0),
             _span("weights.rho_many", 2.0, 3.0, 1)]
    by_name, _ = tracing.summarise(spans)
    assert by_name["weights.rho_many"]["s"] == pytest.approx(3.0)
    assert by_name["weights.rho_many"]["self_s"] == pytest.approx(3.0)


def test_wrappers_are_restored():
    import focklattice.classifier as classifier
    import focklattice.multiplier as multiplier
    orig = (classifier.batch_higher, multiplier.Multiplier.__dict__["log_g"])
    rec = tracing.Recorder()
    rec.install()
    try:
        assert classifier.batch_higher is not orig[0]
        assert multiplier.Multiplier.__dict__["log_g"] is not orig[1]
    finally:
        rec.restore()
    assert (classifier.batch_higher, multiplier.Multiplier.__dict__["log_g"]) == orig


def _trace_job(report):
    job = {"command": "trace-check", "expect": {},
           "job": {"weight": {"kind": "classical"}, "p": 2}}
    return job, {"results": report}


GOOD_TRACE = {"branch": {"conditions": ["a", "b"]}, "overall": "bounded",
              "reports": [{"condition": "a", "verdict": "bounded"},
                          {"condition": "b", "verdict": "bounded"}]}


def test_oracle_accepts_a_correct_trace_answer():
    assert oracle.check(*_trace_job(GOOD_TRACE)) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r.update(overall="diverging"),
    lambda r: r["reports"][1].update(verdict="undetermined"),
    lambda r: r["branch"].update(conditions=["a", "b", "c"]),
    lambda r: r.pop("overall"),
])
def test_corrupted_trace_answers_fail(corrupt):
    report = json.loads(json.dumps(GOOD_TRACE))
    corrupt(report)
    assert oracle.check(*_trace_job(report))


def test_corrupted_numeric_answers_fail():
    recon = {"command": "reconstruct", "expect": {"w": [0.1, 0.2]},
             "job": {"p": 2, "grid": {"n": 1}}}
    ok = {"results": {"max_weighted_residual": 1e-9, "mode": "finite_p",
                      "representative_only": False}}
    grid = [(0.5, -0.5, math.exp(-0.65))]      # e^{-|z - w|^2}
    assert oracle.check(recon, ok, grid) == []
    bad = json.loads(json.dumps(ok))
    bad["results"]["max_weighted_residual"] = 0.5
    assert oracle.check(recon, bad, grid)
    assert oracle.check(recon, ok, [(0.5, -0.5, math.exp(-0.65) + 2e-3)])

    ap = {"command": "ap-probe", "expect": {},
          "job": {"weight": {"kind": "power", "gamma": 5.0}, "p": 4.0 / 3.0}}
    assert oracle.check(ap, {"results": {"fitted_exponent": 0.26, "is_ap": False}}) == []
    assert oracle.check(ap, {"results": {"fitted_exponent": 0.26, "is_ap": True}})
    assert oracle.check(ap, {"results": {"fitted_exponent": 0.35, "is_ap": False}})

    npts, ref = oracle.dense_norm("L", 20)
    op = {"command": "op-norm", "expect": {},
          "job": {"op": "L", "sizes": [20, 60], "p": 2}}
    good = {"results": {"sizes": [npts, 61], "norms": [ref, 2 * ref]}}
    assert oracle.check(op, good) == []
    good["results"]["norms"][0] = ref * 1.01
    assert oracle.check(op, good)


def test_failed_exit_is_a_failure():
    job, _ = _trace_job(GOOD_TRACE)
    assert run.judge(job, {"exit": 0, "rc": 2, "stderr": "schema error"})
    assert run.judge(job, {"exit": 1, "stderr": "Traceback"})


def test_flipped_verdict_in_an_output_file_is_counted(tmp_path):
    job, _ = _trace_job(None)
    report = json.loads(json.dumps(GOOD_TRACE))
    report["overall"] = "diverging"
    job.update(output=str(tmp_path / "out.json"), grid=None)
    with open(job["output"], "w") as fh:
        json.dump({"results": report}, fh)
    assert run.judge(job, {"exit": 0, "rc": 0, "stderr": ""})
