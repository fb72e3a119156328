import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest

from focklattice import (classical_weight, cli, explicit_lattice, phi, power_weight,
                         square_lattice, upper_density)
from focklattice.cli import main


def run(tmp_path, job, cmd, extra=None, name="job.json", flags=()):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    out = tmp_path / "out.json"
    argv = [*flags, cmd, "--input", str(path), "--output", str(out)]
    if extra:
        i = len(flags) + 1
        argv = argv[:i] + extra + argv[i:]
    rc = main(argv)
    report = json.loads(out.read_text()) if out.exists() else None
    return rc, report


BASE = {
    "weight": {"kind": "classical"},
    "lattice": {"kind": "square", "R": 10},
    "multiplier": {"kind": "builtin_sigma"},
}


class TestTraceCheck:
    def test_gaussian_job(self, tmp_path):
        job = dict(BASE, values={"kind": "gaussian_trace", "w": [0.3, 0.1]}, p=2)
        rc, rep = run(tmp_path, job, "trace-check")
        assert rc == 0
        assert rep["results"]["branch"]["case"] == "p=2"
        assert rep["results"]["branch"]["conditions"] == ["a", "b"]
        conds = {r["condition"] for r in rep["results"]["reports"]}
        assert conds == {"a", "b"}
        assert all(len(r["trajectory"]) > 0 for r in rep["results"]["reports"])

    def test_condition_report_keys(self, tmp_path):
        # the fitted slope is reported once, under margins
        keys = {"condition", "verdict", "margins", "inner_unconverged",
                "inner_total", "trajectory"}
        for p in (1, 2, "inf"):
            job = dict(BASE, values={"kind": "gaussian_trace", "w": [0.3, 0.1]},
                       p=p)
            rc, rep = run(tmp_path, job, "trace-check")
            assert rc == 0
            assert all(set(r) == keys for r in rep["results"]["reports"])
            assert rep["tolerances"]["pv_rtol"] == 1e-9

    def test_reconstruct_echoes_pv_rtol(self, tmp_path):
        job = dict(BASE, values={"kind": "gaussian_trace", "w": [0.3, 0.1]},
                   p=2, grid={"half_width": 1.0, "n": 2}, verify_points=4)
        grid = ["--grid", str(tmp_path / "g.csv")]
        for pv, want in (({}, 1e-9), ({"pv": {"tolerance": 1e-7}}, 1e-7)):
            rc, rep = run(tmp_path, dict(job, **pv), "reconstruct", grid)
            assert rc == 0
            assert rep["tolerances"] == {"pv_rtol": want, "residual_target": 1e-3}

    @pytest.mark.parametrize("cmd", ["trace-check", "reconstruct"])
    @pytest.mark.parametrize("flags, pv", [(("--tolerance", "-1"), None),
                                           (("--tolerance", "nan"), None),
                                           (("--tolerance", "inf"), None),
                                           ((), -1e-9), ((), math.inf)])
    def test_negative_or_nonfinite_tolerance_is_schema_error(
            self, tmp_path, capsys, cmd, flags, pv):
        # no window test passes below 0: such a tolerance would leave every
        # inner sum unconverged and still exit 0.  pv.tolerance is its one
        # setter; the retired --tolerance flag exits 2 whatever its value
        job = dict(BASE, values={"kind": "gaussian_trace", "w": [0.3, 0.1]},
                   p="inf", grid={"half_width": 1.0, "n": 2})
        if pv is not None:
            job["pv"] = {"tolerance": pv}
        grid = ["--grid", str(tmp_path / "g.csv")] if cmd == "reconstruct" else None
        if flags:
            with pytest.raises(SystemExit) as exc:
                run(tmp_path, job, cmd, grid, flags=flags)
            assert exc.value.code == 2 and not (tmp_path / "out.json").exists()
            assert "focklattice: error:" in capsys.readouterr().err
            return
        rc, rep = run(tmp_path, job, cmd, grid)
        assert rc == 2 and rep is None
        # json.dumps writes math.inf as Infinity, which the loader refuses
        want = "may not hold Infinity" if pv == math.inf else "p.v. tolerance"
        assert want in capsys.readouterr().err

    def test_pv_tolerance_precedence_and_effect(self, tmp_path, cw):
        # weighted values (1 + |lambda|)^-10: the last shells move each inner
        # Cauchy sum by less than 1e-9 of its size but by more than 1e-15.
        # pv.tolerance takes precedence over PV_RTOL, and the report echoes
        # the tolerance it ran at both in config and in tolerances
        lat = square_lattice(10, cw)
        items = [{"index": k, "re": float(v), "im": 0.0}
                 for k, v in enumerate((1.0 + lat.radii) ** -10.0)]
        job = dict(BASE, values={"kind": "list", "weighted": True,
                                 "items": items}, p=2)

        def check(job):
            rc, rep = run(tmp_path, job, "trace-check")
            assert rc == 0
            assert rep["config"].get("pv") == job.get("pv")
            b = rep["results"]["reports"][1]
            assert b["condition"] == "b"
            return rep["tolerances"]["pv_rtol"], b["inner_unconverged"]

        assert check(job) == (1e-9, 0)
        assert check(dict(job, pv={"tolerance": 0.0})) == (0.0, 44)
        assert check(dict(job, pv={"tolerance": 1e-9})) == (1e-9, 0)

    @pytest.mark.parametrize("before", [True, False])
    def test_tolerance_flag_is_retired(self, tmp_path, capsys, before):
        # the p.v. tolerance has one setter, pv.tolerance: a --tolerance
        # flag, before the command or after it, exits 2 and runs nothing,
        # where a job with pv.tolerance 0 run with --tolerance 1e-9 used to
        # echo 0 in config and report pv_rtol 1e-9
        path = tmp_path / "job.json"
        path.write_text(json.dumps(dict(BASE, values={"kind": "zero"}, p=2,
                                        pv={"tolerance": 0.0})))
        out = tmp_path / "out.json"
        argv = ["trace-check", "--input", str(path), "--output", str(out)]
        flag = ["--tolerance", "1e-9"]
        with pytest.raises(SystemExit) as exc:
            main(flag + argv if before else argv + flag)
        assert exc.value.code == 2 and not out.exists()
        assert ("invalid choice: '1e-9'" if before
                else "unrecognized arguments: --tolerance 1e-9") in capsys.readouterr().err

    def test_power_weight_with_builtin_sigma_is_schema_error(self, tmp_path,
                                                             capsys):
        # builtin sigma is the classical lattice's multiplier; the lattice
        # carries the job's weight, so the two cannot be mixed
        job = dict(BASE, weight={"kind": "power", "gamma": 0.5, "rho_origin": 2.0},
                   values={"kind": "gaussian_trace", "w": [0.2, 0.0]}, p=3)
        rc, rep = run(tmp_path, job, "trace-check")
        assert rc == 2 and rep is None
        assert "classical weight" in capsys.readouterr().err

    def test_classical_weight_given_by_its_rho_origin_takes_builtin_sigma(
            self, tmp_path):
        # rho_origin = (4 pi)^(-1/2) gives c_gamma = 1 + 2^-52, which exact
        # equality did not read as classical: the job exited 2
        job = dict(BASE, values={"kind": "gaussian_trace", "w": [0.2, -0.1]}, p=2)
        rc, want = run(tmp_path, job, "trace-check")
        power = {"kind": "power", "gamma": 2, "rho_origin": 0.28209479177387814}
        assert power_weight(2.0, rho_origin=power["rho_origin"]).c_gamma != 1.0
        rc_power, got = run(tmp_path, dict(job, weight=power), "trace-check",
                            name="power.json")
        assert rc == rc_power == 0
        assert got["results"] == want["results"]

    def test_zero_job_bounded(self, tmp_path):
        job = dict(BASE, values={"kind": "zero"}, p="inf")
        rc, rep = run(tmp_path, job, "trace-check")
        assert rc == 0
        assert rep["results"]["overall"] == "bounded"

    def test_ap_branch_reports_its_margin(self, tmp_path):
        # the A_p verdict is ap_range_lo < ap_beta < ap_range_hi, beta =
        # (1 - gamma/2)(p - 2); only the A_p branch carries the three
        job = dict(BASE, values={"kind": "zero"}, p=3)
        branch = run(tmp_path, job, "trace-check")[1]["results"]["branch"]
        assert branch["is_ap"] is True and branch["conditions"] == ["a", "b"]
        assert (branch["ap_beta"], branch["ap_range_lo"], branch["ap_range_hi"]) \
            == (0.0, -2.0, 4.0)
        for p in (1, 2, "inf"):
            branch = run(tmp_path, dict(job, p=p), "trace-check")[1]["results"]["branch"]
            assert "ap_beta" not in branch and branch["is_ap"] is None, p

    def test_value_list_and_p1(self, tmp_path):
        items = [{"index": 0, "re": 1.0, "im": 0.0},
                 {"index": 3, "re": 0.0, "im": -2.0}]
        job = dict(BASE, values={"kind": "list", "items": items}, p=1)
        rc, rep = run(tmp_path, job, "trace-check")
        assert rc == 0
        assert rep["results"]["branch"]["conditions"] == ["a", "b", "c"]

    def test_schema_error_exit_code(self, tmp_path):
        job = dict(BASE, values={"kind": "gaussian_trace", "w": [0.0, 0.0]},
                   p=0.5)
        rc, _ = run(tmp_path, job, "trace-check")
        assert rc == 2

    def test_bad_lattice_kind(self, tmp_path):
        job = dict(BASE, lattice={"kind": "hexagonal"}, values={"kind": "zero"})
        rc, _ = run(tmp_path, job, "trace-check")
        assert rc == 2

    def test_center_mode_other_than_origin_is_schema_error(self, tmp_path, capsys):
        # partial sums always run over |lambda| < R, so pv.center_mode,
        # whose one accepted value "origin" changed nothing, is no job key
        for mode in ("center", "origin"):
            job = dict(BASE, values={"kind": "gaussian_trace", "w": [0.2, 0.0]},
                       p=2, pv={"center_mode": mode})
            rc, rep = run(tmp_path, job, "trace-check")
            assert rc == 2 and rep is None
            assert "'pv.center_mode'" in capsys.readouterr().err

    @staticmethod
    def verdict_from_margins(rep, tol):
        # the verdict rule restated from the report and its tolerances alone
        m = rep["margins"]
        if m["last_decade_growth"] is not None \
                and m["last_decade_growth"] <= tol["flatten_tol"]:
            verdict = "bounded"
        elif m["slope"] is not None and m["slope"] >= tol["diverge_exponent"] \
                and m["r2"] >= tol["diverge_r2"]:
            verdict = "diverging"
        else:
            verdict = "undetermined"
        if verdict == "bounded" and rep["inner_unconverged"] > \
                tol["unconverged_max_share"] * max(rep["inner_total"], 1):
            verdict = "undetermined"
        return verdict

    def test_verdicts_follow_from_margins(self, tmp_path, cw):
        ones = [{"index": k, "re": 1.0, "im": 0.0}
                for k in range(len(square_lattice(10, cw)))]
        gauss = {"kind": "gaussian_trace", "w": [0.3, 0.1]}
        jobs = [dict(BASE, values=gauss, p=2), dict(BASE, values=gauss, p="inf"),
                dict(BASE, values=gauss, p=1),
                dict(BASE, values={"kind": "list", "weighted": True, "items": ones},
                     p=2)]
        seen = set()
        for job in jobs:
            rc, rep = run(tmp_path, job, "trace-check")
            assert rc == 0
            tol = rep["tolerances"]
            assert (tol["flatten_tol"], tol["diverge_exponent"], tol["diverge_r2"],
                    tol["unconverged_max_share"]) == (0.01, 0.05, 0.9, 0.1)
            for r in rep["results"]["reports"]:
                assert r["verdict"] == self.verdict_from_margins(r, tol)
                radii, vals = np.array(r["trajectory"]).T
                base = vals[np.argmax(radii >= radii[-1] / 10.0)]
                assert r["margins"]["last_decade_growth"] == \
                    pytest.approx(vals[-1] / base - 1.0, rel=1e-12, abs=1e-15)
                seen.add(r["verdict"])
        assert seen == {"bounded", "diverging", "undetermined"}

    def test_determinism(self, tmp_path):
        job = dict(BASE, values={"kind": "gaussian_trace", "w": [0.2, 0.0]}, p=2)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert main(["trace-check", "--input", str(tmp_path / "job.json"),
                     "--output", str(p1)]) == 0
        assert main(["trace-check", "--input", str(tmp_path / "job.json"),
                     "--output", str(p2)]) == 0
        a, b = json.loads(p1.read_text()), json.loads(p2.read_text())
        a.pop("timing_s"), b.pop("timing_s")
        assert a == b


class TestOneApVerdict:
    """ap-probe's is_ap is the closed-form verdict, the one trace-check's
    branch reads: rho^(p-2) is A_p exactly when -2 < beta < 2(p - 1),
    beta = (1 - gamma/2)(p - 2).  At c_gamma = 1 the 0.05 slope rule that
    ap-probe read before said A_p at (gamma, p) = (2.5, 12), (2.5, 1.1)
    and (3, 6), fitted slopes 0.0427, 0.0267 and 0.0217, where the closed
    form says not."""

    PS = (1.1, 1.25, 4.0 / 3.0, 1.5, 1.8, 2.5, 3.0, 5.0, 6.0, 8.0, 12.0)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 1.5, 2.5, 3.0, 3.5, 5.0, 8.0])
    def test_ap_probe_and_trace_check_agree_with_the_closed_form(self, tmp_path, gamma):
        from focklattice import ap_probe, default_ap_radii
        w = power_weight(gamma, c_gamma=1.0)
        weight = {"kind": "power", "gamma": gamma, "c_gamma": 1.0}
        n_points = len(square_lattice(4.0, w))
        trace = {"weight": weight, "lattice": {"kind": "square", "R": 4.0},
                 "multiplier": {"kind": "user_table", "weighted": True,
                                "g_prime": [{"index": k, "re": 1.0, "im": 0.0}
                                            for k in range(n_points)]},
                 "values": {"kind": "zero"}}
        wrong = []
        for p in self.PS:
            beta = (1.0 - gamma / 2.0) * (p - 2.0)
            want = -2.0 < beta < 2.0 * (p - 1.0)
            probe = ap_probe(w, p, default_ap_radii(w)).is_ap
            rc, rep = run(tmp_path, {"weight": weight, "p": p}, "ap-probe")
            assert rc == 0
            report = rep["results"]["is_ap"]
            rc, rep = run(tmp_path, dict(trace, p=p), "trace-check")
            assert rc == 0
            branch = rep["results"]["branch"]["is_ap"]
            if not (probe is report is want and branch in (None, want)):
                wrong.append((p, want, probe, report, branch))
        assert wrong == []       # (p, closed form, ap_probe, ap-probe, trace-check)


class TestReportEcho:
    def test_arrays_echoed_by_length_with_digest(self, tmp_path):
        table = [{"index": k, "re": 1.0, "im": 0.0} for k in range(9)]
        items = [{"index": 0, "re": 1.0, "im": 0.0},
                 {"index": 3, "re": 0.0, "im": -2.0}]
        pts = [[0, 0], [1.5, 0], [-1.5, 0], [0, 1.5], [0, -1.5],
               [1.5, 1.5], [-1.5, 1.5], [1.5, -1.5], [-1.5, -1.5]]
        job = {"weight": {"kind": "classical"},
               "lattice": {"kind": "explicit", "points": pts},
               "multiplier": {"kind": "user_table", "g_prime": table,
                              "weighted": True},
               "values": {"kind": "list", "items": items, "weighted": True},
               "p": 2, "pv": {"tolerance": 1e-8}}
        rc, rep = run(tmp_path, job, "trace-check")
        assert rc == 0
        digest = hashlib.sha256((tmp_path / "job.json").read_bytes()).hexdigest()
        assert rep["input_sha256"] == digest
        cfg = rep["config"]
        assert cfg["multiplier"] == {"kind": "user_table", "weighted": True,
                                     "g_prime": {"length": 9}}
        assert cfg["values"] == {"kind": "list", "weighted": True,
                                 "items": {"length": 2}}
        assert cfg["lattice"] == {"kind": "explicit", "points": {"length": 9}}
        assert cfg["weight"] == job["weight"]
        assert cfg["p"] == 2 and cfg["pv"] == {"tolerance": 1e-8}

    def test_scalar_config_echoed_unchanged(self, tmp_path):
        job = dict(BASE, values={"kind": "gaussian_trace", "w": [0.3, 0.1]},
                   p="inf", pv={"tolerance": 1e-9})
        rc, rep = run(tmp_path, job, "trace-check")
        assert rc == 0
        assert rep["config"] == job

    @pytest.mark.parametrize("seed", ["-1", "4294967296"])
    @pytest.mark.parametrize("cmd", ["trace-check", "op-norm"])
    def test_seed_outside_uint32_is_usage_error(self, tmp_path, capsys, cmd,
                                                 seed):
        job = ({"weight": {"kind": "classical"}, "op": "L", "p": 2,
                "sizes": [20]} if cmd == "op-norm"
               else dict(BASE, values={"kind": "zero"}, p=2))
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, job, cmd, flags=["--seed", seed])
        assert exc.value.code == 2 and not (tmp_path / "out.json").exists()
        assert "--seed" in capsys.readouterr().err

    def test_largest_seed_reaches_op_norm(self, tmp_path):
        job = {"weight": {"kind": "classical"}, "op": "L", "p": 2,
               "sizes": [20]}
        rc, rep = run(tmp_path, job, "op-norm", flags=["--seed", "4294967295"])
        assert rc == 0 and rep["seed"] == 2 ** 32 - 1


class TestTableEntries:
    """The g' table and the value list go from JSON entries to arrays in
    one pass; the rejections and the repeat rule are those of the
    per-entry loop they replace."""

    PTS = [[0, 0], [1.5, 0], [-1.5, 0], [0, 1.5], [0, -1.5],
           [1.5, 1.5], [-1.5, 1.5], [1.5, -1.5], [-1.5, -1.5]]

    @classmethod
    def job(cls, table=None, items=None):
        ones = [{"index": k, "re": 1.0, "im": 0.0} for k in range(len(cls.PTS))]
        dflt = [{"index": 0, "re": 1.0, "im": 0.0},
                {"index": 3, "re": 0.0, "im": -2.0}]
        return {"weight": {"kind": "classical"},
                "lattice": {"kind": "explicit", "points": cls.PTS},
                "multiplier": {"kind": "user_table", "weighted": True,
                               "g_prime": ones if table is None else table},
                "values": {"kind": "list", "weighted": True,
                           "items": dflt if items is None else items},
                "p": 2}

    @staticmethod
    def entry(k, re=1.0, im=0.0):
        return {"index": k, "re": re, "im": im}

    @pytest.mark.parametrize("bad,message", [
        ([12, -1], "g' table index 12 out of range"),
        ([-1], "g' table index -1 out of range"),
        ([9], "g' table index 9 out of range")])
    def test_g_prime_index_out_of_range(self, tmp_path, capsys, bad, message):
        table = [self.entry(k) for k in range(9)] + [self.entry(k) for k in bad]
        rc, _ = run(tmp_path, self.job(table=table), "trace-check")
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_g_prime_missing_index(self, tmp_path, capsys):
        table = [self.entry(k) for k in range(9) if k not in (2, 5)]
        rc, _ = run(tmp_path, self.job(table=table), "trace-check")
        assert rc == 2
        assert "g' table misses 2 lattice indices" in capsys.readouterr().err

    def test_g_prime_zero_entry(self, tmp_path, capsys):
        table = [self.entry(k, 0.0 if k == 6 else 1.0) for k in range(9)]
        rc, _ = run(tmp_path, self.job(table=table), "trace-check")
        assert rc == 2
        assert "g' table contains zero entries" in capsys.readouterr().err

    def test_value_index_out_of_range(self, tmp_path, capsys):
        items = [self.entry(0), self.entry(9), self.entry(-3)]
        rc, _ = run(tmp_path, self.job(items=items), "trace-check")
        assert rc == 2
        assert "value index 9 out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["table", "items"])
    @pytest.mark.parametrize("key", ["index", "re", "im"])
    def test_null_field_is_schema_error(self, tmp_path, capsys, section, key):
        # float(None) raised an uncaught TypeError; numpy would read NaN
        entries = [self.entry(k) for k in range(9)]
        entries[4][key] = None
        rc, _ = run(tmp_path, self.job(**{section: entries}), "trace-check")
        assert rc == 2
        assert "finite index, re and im" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["multiplier", "values"])
    @pytest.mark.parametrize("flag", ["false", 1])
    def test_weighted_must_be_a_json_boolean(self, tmp_path, capsys, section, flag):
        # bool() read "false" as true, which weighted the values twice
        job = self.job()
        job[section]["weighted"] = flag
        rc, rep = run(tmp_path, job, "trace-check")
        assert rc == 2 and rep is None
        assert f"{section}.weighted must be true or false" in capsys.readouterr().err

    def test_repeated_index_keeps_last_entry(self, tmp_path, capsys):
        base = [self.entry(k, 1.0 + k) for k in range(9)]
        # a zero g' overwritten by a later entry is accepted ...
        table = base[:4] + [self.entry(4, 0.0)] + base[4:]
        items = [self.entry(3, 5.0), self.entry(0), self.entry(3, 0.0, -2.0)]
        _, want = run(tmp_path, self.job(table=base), "trace-check")
        rc, got = run(tmp_path, self.job(table=table, items=items), "trace-check")
        assert rc == 0 and got["results"] == want["results"]
        _, first = run(tmp_path, self.job(table=base, items=items[:2]),
                       "trace-check")
        assert first["results"] != want["results"]
        # ... and one that overwrites a valid entry is not
        rc, _ = run(tmp_path, self.job(table=base + [self.entry(4, 0.0)]),
                    "trace-check")
        assert rc == 2
        assert "g' table contains zero entries" in capsys.readouterr().err


class TestOtherCommands:
    def test_lattice_info(self, tmp_path):
        rc, rep = run(tmp_path, dict(BASE), "lattice-info")
        assert rc == 0
        res = rep["results"]
        assert res["delta_sep"] == pytest.approx(4.4429, abs=1e-3)
        assert res["upper_density"] == pytest.approx(1 / (2 * math.pi), rel=0.1)
        assert res["first_shell_size"] == 4

    def test_lattice_info_two_shells(self, tmp_path):
        # the first shell runs to the last index; every point but the origin
        # lies on the truncation, so the origin is the one density centre
        # (exit 3 while all nine nearest points were centres)
        pts = [[0, 0], [1.5, 0], [-1.5, 0], [0, 1.5], [0, -1.5]]
        rc, rep = run(tmp_path, dict(BASE, lattice={"kind": "explicit", "points": pts}),
                      "lattice-info")
        assert rc == 0
        res = rep["results"]
        assert (res["n_shells"], res["first_shell_size"]) == (2, 4)
        lat = explicit_lattice([complex(*p) for p in pts], classical_weight())
        r = 0.45 * 1.5 / lat.max_rho
        assert res["upper_density"] == upper_density(lat, r) > 0

    def test_sigma_eval_grid(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(dict(BASE, grid={"half_width": 1.0, "n": 8})))
        grid = tmp_path / "g.csv"
        rc = main(["sigma-eval", "--input", str(path), "--grid", str(grid),
                   "--output", str(tmp_path / "o.json")])
        assert rc == 0
        lines = grid.read_text().strip().splitlines()
        assert lines[0] == "x,y,weighted_mag"
        assert len(lines) == 65

    def test_sigma_eval_explicit_lattice_is_schema_error(self, tmp_path):
        pts = [[0, 0], [1.5, 0], [-1.5, 0], [0, 1.5], [0, -1.5]]
        job = {"lattice": {"kind": "explicit", "points": pts}}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        rc = main(["sigma-eval", "--input", str(path),
                   "--grid", str(tmp_path / "g.csv")])
        assert rc == 2

    def test_sigma_eval_power_weight_is_schema_error(self, tmp_path, capsys):
        # it wrote |sigma(z)| e^{-|z|^2}, the classical weighting, with exit 0
        job = {"weight": {"kind": "power", "gamma": 0.5, "rho_origin": 2.0},
               "lattice": {"kind": "square", "R": 10}}
        rc, rep = run(tmp_path, job, "sigma-eval", extra=["--grid", str(tmp_path / "g.csv")])
        assert rc == 2 and rep is None
        assert "classical weight" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_sigma_on_the_lattice_is_numerical_error(self):
        # s(8 + 8i) is a point of the infinite lattice beyond R = 10, where
        # the sigma evaluator refuses to take log sigma; `reconstruct` never
        # gets there, as its grids stay inside the guard band
        from focklattice.errors import NumericalError
        from focklattice.multiplier import sigma_log
        s = math.sqrt(math.pi / 2.0)
        with pytest.raises(NumericalError, match="lies on .or too near. the lattice"):
            sigma_log(square_lattice(10.0, classical_weight()), s * (8 + 8j))

    def test_reconstruct_beyond_the_guard_is_schema_error(self, tmp_path, capsys):
        # the four cells centred at (+-10, +-10) lie outside the R = 10
        # truncation, where the truncated sums wrote weighted_mag ~ 5e-19
        # for a true e^-196 with exit 0
        path = tmp_path / "job.json"
        path.write_text(json.dumps(dict(
            BASE, values={"kind": "gaussian_trace", "w": [0.2, 0.0]}, p=2,
            grid={"half_width": 20.0, "n": 2}, verify_points=4)))
        grid = tmp_path / "g.csv"
        rc = main(["reconstruct", "--input", str(path), "--grid", str(grid)])
        assert rc == 2
        assert "beyond the guard radius" in capsys.readouterr().err
        assert not grid.exists()

    def test_reconstruct_without_a_guard_band_is_schema_error(self, tmp_path, capsys):
        # gamma = 0.5, rho(0) = 2 at R = 10: max rho 9.68, guard radius
        # -38.4; the default grid's half-width guard / sqrt(2) < 0 exited 2
        # naming grid.half_width, a field the job never set
        table = [{"index": k, "re": 1.0, "im": 0.0} for k in range(193)]
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "weight": {"kind": "power", "gamma": 0.5, "rho_origin": 2.0},
            "lattice": {"kind": "square", "R": 10},
            "multiplier": {"kind": "user_table", "g_prime": table, "weighted": True},
            "values": {"kind": "zero"}, "p": 2, "verify_points": 4}))
        grid = tmp_path / "g.csv"
        rc = main(["reconstruct", "--input", str(path), "--grid", str(grid)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "R = 10 leaves no guard band" in err
        assert "guard radius R - 5 max rho is -38.39" in err
        assert "half_width" not in err
        assert not grid.exists()

    def test_reconstruct_default_grid_inside_the_guard(self, tmp_path):
        # R = 7: guard radius 5.59, so a half-width of min(4, guard) put
        # the grid corner at 5.66; the default is now min(4, guard / sqrt(2))
        lat = square_lattice(7.0, classical_weight())
        path = tmp_path / "job.json"
        path.write_text(json.dumps(dict(
            BASE, lattice={"kind": "square", "R": 7}, values={"kind": "zero"},
            p=2, grid={"n": 2}, verify_points=4)))
        grid = tmp_path / "g.csv"
        rc = main(["reconstruct", "--input", str(path), "--grid", str(grid)])
        assert rc == 0
        rows = list(csv.DictReader(grid.read_text().splitlines()))
        half = lat.guard_radius() / math.sqrt(2.0)
        assert [abs(float(r["x"])) for r in rows] == pytest.approx([half / 2] * 4)

    @pytest.mark.parametrize("cmd", ["sigma-eval", "reconstruct"])
    def test_grid_coordinates_are_cell_midpoints(self, tmp_path, cmd):
        # 3 x 3 cells on [-1.5, 1.5]^2: midpoints -1, 0 and 1, y running first
        job = dict(BASE, values={"kind": "zero"}, p=2,
                   grid={"half_width": 1.5, "n": 3}, verify_points=4)
        grid = tmp_path / "g.csv"
        rc, _ = run(tmp_path, job, cmd, ["--grid", str(grid)])
        assert rc == 0
        rows = list(csv.DictReader(grid.read_text().splitlines()))
        assert [(float(r["x"]), float(r["y"])) for r in rows] == \
            [(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]

    def test_density_schedule_past_truncation_is_numerical_error(self, tmp_path):
        rc, _ = run(tmp_path, dict(BASE, density_r_max=100.0), "lattice-info")
        assert rc == 3

    @pytest.mark.parametrize("r_max", [-1, 0])
    def test_density_r_max_must_be_positive(self, tmp_path, capsys, r_max):
        # read without its sign, both exited 2 with "radius must be
        # positive", which does not name the key
        rc, rep = run(tmp_path, dict(BASE, density_r_max=r_max), "lattice-info")
        assert rc == 2 and rep is None
        assert "density_r_max must be a finite double > 0" in capsys.readouterr().err

    def test_density_underflow_is_numerical_error(self, tmp_path, capsys):
        # 4 pi r^2 underflows to 0: the job exited 0 with upper_density
        # Infinity and a numpy RuntimeWarning
        rc, rep = run(tmp_path, dict(BASE, density_r_max=1e-300), "lattice-info")
        assert rc == 3 and rep is None
        assert "not a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, job, literal", [
        ("lattice-info", dict(BASE, lattice={"kind": "square", "R": math.inf}),
         "Infinity"),
        ("lattice-info", dict(BASE, density_r_max=math.nan), "NaN"),
        ("lattice-info", dict(BASE, density_r_max=-math.inf), "-Infinity"),
        ("reconstruct", dict(BASE, values={"kind": "zero"}, p=2,
                             grid={"half_width": math.nan, "n": 2}), "NaN")])
    def test_non_finite_json_literals_are_schema_errors(self, tmp_path, capsys,
                                                        cmd, job, literal):
        # json.dumps writes them and json.loads reads them back; the loader
        # refuses them, where R = Infinity raised OverflowError (exit 1) and
        # the two NaN jobs exited 0 with a NaN density and an all-NaN grid
        grid = tmp_path / "g.csv"
        rc, rep = run(tmp_path, job, cmd,
                      ["--grid", str(grid)] if cmd == "reconstruct" else None)
        assert rc == 2 and rep is None and not grid.exists()
        assert f"may not hold {literal}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, job, literal", [
        ("lattice-info", dict(BASE, lattice={"kind": "square", "R": "@"}), "1e400"),
        ("lattice-info", dict(BASE, lattice={"kind": "square", "R": "@"}),
         "1" + "0" * 400),
        ("op-norm", {"op": "B", "p": 2, "sizes": "@"}, "[200, 1e400]"),
        ("lattice-info", dict(BASE, weight={"kind": "power", "gamma": "@",
                                            "rho_origin": 2.0}), "1e400"),
        ("lattice-info", dict(BASE, lattice={"kind": "explicit",
                                             "points": [[0, 0], "@"]}), "[1e400, 0]"),
        ("trace-check", dict(BASE, p=2, values={"kind": "zero"}, multiplier={
            "kind": "user_table", "g_prime": [{"index": "@", "re": 1, "im": 0}]}),
         "1" + "0" * 400),
        ("ap-probe", {"weight": {"kind": "classical"}, "p": 3, "radii": "@"},
         "[1, 1e400]"),
        ("lattice-info", dict(BASE, lattice={"kind": "square", "R": "@"}), '"inf"'),
        ("lattice-info", dict(BASE, weight={"kind": "power", "gamma": 0.5,
                                            "rho_origin": "@"}), "0.0")],
        ids=["1e400", "1e400-int", "sizes", "weight", "point", "table-index",
             "radii", "R-string", "rho-origin-0"])
    def test_number_literals_beyond_a_double_are_schema_errors(
            self, tmp_path, capsys, cmd, job, literal):
        # json reads 1e400 as inf and the 401-digit integer exactly; each
        # ended in an uncaught OverflowError (exit 1), and so did the
        # string "inf" for R; rho_origin 0 raised ZeroDivisionError (exit 1)
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job).replace('"@"', literal))
        out = tmp_path / "out.json"
        rc = main([cmd, "--input", str(path), "--output", str(out)])
        assert rc == 2 and not out.exists()
        assert "double" in capsys.readouterr().err

    def test_number_literals_within_a_double_are_read(self, tmp_path):
        # the checked parse keeps long mantissas and three-digit exponents
        path = tmp_path / "job.json"
        path.write_text('{"lattice": {"kind": "square", "R": 1000e-002}, '
                        '"density_r_max": 0.2000000000000000000000000e+000}')
        out = tmp_path / "out.json"
        assert main(["lattice-info", "--input", str(path), "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["lattice"]["R"] == 10.0
        assert rep["config"]["density_r_max"] == 0.2

    @pytest.mark.parametrize("cmd, field, extra", [
        *((cmd, field, {"grid": grid})
          for cmd in ("sigma-eval", "reconstruct")
          for field, grid in (("grid.n", {"half_width": 1.0, "n": 0}),
                              ("grid.n", {"half_width": 1.0, "n": -3}),
                              ("grid.n", {"half_width": 1.0, "n": 2.5}),
                              ("grid.half_width", {"half_width": 0, "n": 2}),
                              ("grid.half_width", {"half_width": -1.0, "n": 2}))),
        ("reconstruct", "verify_points", {"verify_points": 0}),
        ("reconstruct", "w0", {"w0": 1})])
    def test_grid_fields_are_schema_errors(self, tmp_path, capsys, cmd, field,
                                           extra):
        # n <= 0 wrote a header-only grid (reconstruct, exit 0) or raised
        # numpy's zero-size error; n = 2.5 ran as 2; half_width <= 0 ran;
        # verify_points 0 reported a residual of 0 from no points; w0 at
        # finite p was ignored
        job = dict(BASE, values={"kind": "zero"}, p=2,
                   **{"grid": {"half_width": 1.0, "n": 2}, "verify_points": 4,
                      **extra})
        grid = tmp_path / "g.csv"
        rc, rep = run(tmp_path, job, cmd, ["--grid", str(grid)])
        assert rc == 2 and rep is None and not grid.exists()
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, field, extra", [
        ("reconstruct", "grid", {"grid": [1, 2]}),
        *((cmd, key, {key: [1]}) for cmd in ("trace-check", "reconstruct")
          for key in ("pv", "values", "multiplier")),
        ("trace-check", "multiplier.g_prime",
         {"multiplier": {"kind": "user_table", "g_prime": 5}}),
        ("trace-check", "values.items", {"values": {"kind": "list", "items": 5}})])
    def test_sections_of_the_wrong_type_are_schema_errors(self, tmp_path, capsys,
                                                          cmd, field, extra):
        # each ended in an uncaught AttributeError or TypeError (exit 1)
        job = {**BASE, "values": {"kind": "zero"}, "p": 2,
               "grid": {"half_width": 1.0, "n": 2}, "verify_points": 4, **extra}
        grid = tmp_path / "g.csv"
        rc, rep = run(tmp_path, job, cmd,
                      ["--grid", str(grid)] if cmd == "reconstruct" else None)
        assert rc == 2 and rep is None and not grid.exists()
        assert f"{field} must be" in capsys.readouterr().err

    def test_reconstruct_raw_overflow_is_nan(self, tmp_path):
        # corner cells centred at (+-20, +-20): phi = 800 > log(max double);
        # the edge cells (phi = 400) and the centre stay finite.  The grid
        # corner, 30 sqrt(2) = 42.4, is inside the guard radius 42.6
        path = tmp_path / "job.json"
        job = dict(BASE, lattice={"kind": "square", "R": 44},
                   values={"kind": "gaussian_trace", "w": [0.2, -0.1]},
                   p=2, grid={"half_width": 30.0, "n": 3}, verify_points=8)
        path.write_text(json.dumps(job))
        grid = tmp_path / "rg.csv"
        out = tmp_path / "r.json"
        rc = main(["reconstruct", "--input", str(path), "--grid", str(grid),
                   "--output", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["results"]["raw_overflow_points"] == 4
        rows = list(csv.DictReader(grid.read_text().splitlines()))
        assert len(rows) == 9
        for row in rows:
            corner = abs(float(row["x"])) > 1 and abs(float(row["y"])) > 1
            assert math.isnan(float(row["re_f"])) == corner
            assert math.isnan(float(row["im_f"])) == corner
            assert math.isfinite(float(row["weighted_mag"]))

    def test_reconstruct_residual(self, tmp_path):
        path = tmp_path / "job.json"
        job = dict(BASE, values={"kind": "gaussian_trace", "w": [0.2, -0.1]},
                   p=2, grid={"half_width": 2.0, "n": 8}, verify_points=20)
        path.write_text(json.dumps(job))
        out = tmp_path / "r.json"
        rc = main(["reconstruct", "--input", str(path),
                   "--grid", str(tmp_path / "rg.csv"), "--output", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["max_weighted_residual"] <= 1e-3

    def test_ap_probe_classical(self, tmp_path):
        job = {"weight": {"kind": "classical"}, "p": 1.5}
        rc, rep = run(tmp_path, job, "ap-probe")
        assert rc == 0
        assert rep["results"]["is_ap"] is True

    def test_ap_probe_power_failure(self, tmp_path):
        job = {"weight": {"kind": "power", "gamma": 5.0, "rho_origin": 2.0},
               "p": 4.0 / 3.0}
        rc, rep = run(tmp_path, job, "ap-probe")
        assert rc == 0
        assert rep["results"]["is_ap"] is False
        assert rep["results"]["fitted_exponent"] == pytest.approx(0.25, abs=0.05)

    @pytest.mark.parametrize("radii", [[-1, 2, 3, 4], [0, 1, 2, 3], 5, [1.0],
                                       [], [3, 2], ["1", 2], [1, 2, 3],
                                       [1, 50, 100]],
                             ids=["negative", "zero", "scalar", "one", "empty",
                                  "descending", "string", "three",
                                  "two_in_last_decade"])
    def test_ap_probe_radii_are_schema_errors(self, tmp_path, capsys, radii):
        # radii <= 0 ran (ratio 1.0, fitted into the slope), a bare number
        # raised TypeError (exit 1) and one radius an SVD that did not
        # converge (exit 2 without naming radii); fewer than 4 radii within
        # a factor 10 of the largest were fitted on 2 or 3 points, or all
        job = {"weight": {"kind": "classical"}, "p": 3, "radii": radii}
        rc, rep = run(tmp_path, job, "ap-probe")
        assert rc == 2 and rep is None
        assert "radii" in capsys.readouterr().err

    def test_op_norm(self, tmp_path):
        job = {"weight": {"kind": "classical"}, "op": "B", "p": 2,
               "sizes": [200, 400]}
        rc, rep = run(tmp_path, job, "op-norm")
        assert rc == 0
        assert rep["results"]["growth_ratio"] < 1.05

    def test_op_norm_reads_t_only_for_m(self, tmp_path, monkeypatch):
        # B and L never read N; M(N) checks a given N > 1/t, and without
        # one takes the smallest N > 1/t
        reads = []
        estimate_t = cli.estimate_t
        monkeypatch.setattr(cli, "estimate_t",
                            lambda w: reads.append(w) or estimate_t(w))
        power = {"kind": "power", "gamma": 0.5, "rho_origin": 2.0}
        for op in ("B", "L"):
            job = {"weight": power, "op": op, "p": 2, "sizes": [20, 60]}
            assert run(tmp_path, job, "op-norm")[0] == 0, op
        assert reads == []
        for extra in ({"N": 5}, {}):
            job = {"weight": power, "op": "M", "p": 2, "sizes": [20, 60], **extra}
            rc, rep = run(tmp_path, job, "op-norm")
            assert rc == 0 and rep["results"]["op"] == "M(5)"
        assert len(reads) == 2

    @pytest.mark.parametrize("weight, N, rc", [
        ({"kind": "classical"}, 0, 2),
        ({"kind": "classical"}, -1, 2),
        ({"kind": "classical"}, 1, 2),
        ({"kind": "classical"}, 2.5, 2),
        ({"kind": "classical"}, 2, 0),
        ({"kind": "power", "gamma": 0.5, "rho_origin": 2.0}, 4, 2),
        ({"kind": "power", "gamma": 0.5, "rho_origin": 2.0}, 5, 0),
        ({"kind": "power", "gamma": 5.0, "c_gamma": 1.0}, 2, 2),
        ({"kind": "power", "gamma": 5.0, "c_gamma": 1.0}, 3, 0)])
    def test_op_norm_m_order_must_exceed_one_over_t(self, tmp_path, capsys,
                                                     weight, N, rc):
        # t = min(gamma/2, 2/gamma): 1 classical, 0.25 at gamma
        # 0.5, 0.4 at gamma 5.  N's reader refuses what is no integer >= 1
        # before the op-norm command sees t
        job = {"weight": weight, "op": "M", "p": 1, "sizes": [20], "N": N}
        got, rep = run(tmp_path, job, "op-norm")
        assert got == rc
        if rc == 0:
            assert rep["results"]["op"] == f"M({N})"
        else:
            want = "N > 1/t" if N in (1, 2, 4) else "N must be an integer >= 1"
            assert rep is None and want in capsys.readouterr().err

    def test_op_norm_trials_key_is_schema_error(self, tmp_path, capsys):
        job = {"weight": {"kind": "classical"}, "op": "B", "p": 2,
               "sizes": [200], "trials": 2}
        rc, rep = run(tmp_path, job, "op-norm")
        assert rc == 2 and rep is None
        assert "'trials'" in capsys.readouterr().err

    @pytest.mark.parametrize("op", ["B", "L"])
    def test_op_norm_n_without_m_is_schema_error(self, tmp_path, capsys, op):
        # only M(N) reads N: B and L once ran and ignored it
        job = {"weight": {"kind": "classical"}, "op": op, "p": 2,
               "sizes": [20], "N": 3}
        rc, rep = run(tmp_path, job, "op-norm")
        assert rc == 2 and rep is None
        assert "only M reads N" in capsys.readouterr().err

    def test_op_norm_reports_residuals(self, tmp_path):
        # the 4,997-point B section ends at the 50-step cap above the 1e-8
        # residual stop; the 193-point L section stops on it; at p = 1 the
        # norms are exact, and both lists read 0
        job = {"weight": {"kind": "classical"}, "op": "B", "p": 2, "sizes": [5000]}
        res = run(tmp_path, job, "op-norm")[1]["results"]
        assert res["sizes"] == [4997] and res["residuals"][0] > 1e-8
        res = run(tmp_path, dict(job, op="L", sizes=[200]), "op-norm")[1]["results"]
        assert res["sizes"] == [193] and 0.0 <= res["residuals"][0] <= 1e-8
        res = run(tmp_path, dict(job, p=1, sizes=[200, 800]), "op-norm")[1]["results"]
        assert res["residuals"] == res["stagnations"] == [0.0, 0.0]

    @pytest.mark.parametrize("p", [1, 2, "inf"])
    @pytest.mark.parametrize("sizes", [[200.7, 600.9], ["200"], [True, 60],
                                       [0, 60], [], 200, [1, 60], [2, 60],
                                       [3, 60]],
                             ids=["floats", "string", "bool", "zero", "empty",
                                  "scalar", "one", "two", "three"])
    def test_op_norm_sizes_are_schema_errors(self, tmp_path, capsys, sizes, p):
        # int() ran 200.7 and "200" as 200 (193 points) and true as 1, and
        # a bare number raised TypeError (exit 1).  Sizes 1 to 3 hold the
        # origin alone, whose norm is 0: 1 ended in a ZeroDivisionError
        # (exit 1); 2 and 3 gave FFT noise and a growth ratio near 3e16 at
        # p = 1 (exit 0) and a stalled bidiagonalisation at p = 2 (exit 3)
        job = {"weight": {"kind": "classical"}, "op": "B", "p": p, "sizes": sizes}
        rc, rep = run(tmp_path, job, "op-norm")
        assert rc == 2 and rep is None
        assert "sizes" in capsys.readouterr().err

    def test_op_norm_one_point_size_builds_no_section(self, tmp_path, monkeypatch):
        # the one-point smallest size is refused before any section of the
        # other sizes is computed
        import focklattice.transforms as transforms
        built = []
        section = transforms._FftSection
        monkeypatch.setattr(transforms, "_FftSection",
                            lambda *a, **k: built.append(a) or section(*a, **k))
        job = {"weight": {"kind": "classical"}, "op": "B", "p": 2, "sizes": [1, 5000]}
        rc, rep = run(tmp_path, job, "op-norm")
        assert rc == 2 and rep is None and built == []

    def test_op_norm_smallest_two_point_size(self, tmp_path):
        # size 4 already reaches the four nearest neighbours
        job = {"weight": {"kind": "classical"}, "op": "B", "p": 1, "sizes": [4, 60]}
        rc, rep = run(tmp_path, job, "op-norm")
        assert rc == 0 and rep["results"]["sizes"][0] == 5
        assert rep["results"]["norms"][0] > 0

    @pytest.mark.parametrize("points, message", [
        ([[1.5, 0], [0, 1.5]], "lattice must contain the origin"),
        ([[0, 0], [1.5, 0], [1.5, 0]], "points are not rho-separated")])
    def test_bad_explicit_lattice_is_schema_error(self, tmp_path, capsys, points,
                                                  message):
        # a fault of the job: both exited 3 with "error: ..."
        job = dict(BASE, lattice={"kind": "explicit", "points": points})
        rc, rep = run(tmp_path, job, "lattice-info")
        assert rc == 2 and rep is None
        assert capsys.readouterr().err.startswith(f"schema error: {message}")

    def test_explicit_lattice_user_table(self, tmp_path):
        pts = [[0, 0], [1.5, 0], [-1.5, 0], [0, 1.5], [0, -1.5],
               [1.5, 1.5], [-1.5, 1.5], [1.5, -1.5], [-1.5, -1.5]]
        table = [{"index": k, "re": 1.0 + 0.1 * k, "im": 0.2} for k in range(9)]
        job = {
            "weight": {"kind": "classical"},
            "lattice": {"kind": "explicit", "points": pts},
            "multiplier": {"kind": "user_table", "g_prime": table,
                           "weighted": True},
            "values": {"kind": "zero"},
            "p": 2,
        }
        rc, rep = run(tmp_path, job, "trace-check")
        assert rc == 0
        assert rep["results"]["overall"] == "bounded"

    def test_acceptance_subset(self, tmp_path):
        out = tmp_path / "acc.json"
        rc = main(["acceptance", "--criteria", "5", "--output", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["all_passed"] is True

    def test_acceptance_repeated_criterion_runs_once(self, tmp_path):
        out = tmp_path / "acc.json"
        rc = main(["acceptance", "--criteria", "1,1", "--output", str(out)])
        assert rc == 0
        assert [r["criterion"] for r in json.loads(out.read_text())["results"]] == [1]

    @pytest.mark.parametrize("criteria", ["99", "1,0", "x", "1,,2"])
    def test_acceptance_unknown_criterion_is_schema_error(self, tmp_path, capsys, criteria):
        # 99 ended in KeyError: 99 (traceback, exit 1); x and 1,,2 in
        # "invalid literal for int()", which did not name the option
        out = tmp_path / "acc.json"
        rc = main(["acceptance", "--criteria", criteria, "--output", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("schema error: --criteria")
        assert "int()" not in err
        assert criteria in ("x", "1,,2") or "the criteria are 1-9" in err


class TestRawInputs:
    """Raw g' tables and raw values are the weighted ones times e^{phi}.  On
    a gamma = 0.5 power weight at R = 10, e^{phi} stays below e^{0.72}, so a
    raw job and its weighted twin give the same answers to rounding."""

    @staticmethod
    def entries(vals):
        return [{"index": k, "re": v.real, "im": v.imag} for k, v in enumerate(vals)]

    def test_raw_jobs_match_their_weighted_twins(self, tmp_path):
        lat = square_lattice(10.0, power_weight(0.5, rho_origin=2.0))
        e_phi = np.exp(phi(lat.weight, lat.points))
        k = np.arange(len(lat))
        gw = np.exp(0.7j * k) * (1.0 + 0.1 * k)            # g' e^{-phi}
        cw = np.exp(-0.3j * k) * (1.0 + lat.radii) ** -3.0  # c e^{-phi}
        v = 1.5 - 0.5j
        weighted = {"weight": {"kind": "power", "gamma": 0.5, "rho_origin": 2.0},
                    "lattice": {"kind": "square", "R": 10}, "p": 3,
                    "multiplier": {"kind": "user_table", "weighted": True,
                                   "g_prime": self.entries(gw)}}
        raw = dict(weighted, multiplier={"kind": "user_table",
                                         "g_prime": self.entries(gw * e_phi)})
        for job, twin in (
                (dict(raw, values={"kind": "list", "items": self.entries(cw * e_phi)}),
                 dict(weighted, values={"kind": "list", "weighted": True,
                                        "items": self.entries(cw)})),
                (dict(raw, values={"kind": "constant", "v": [v.real, v.imag]}),
                 dict(weighted, values={"kind": "list", "weighted": True,
                                        "items": self.entries(v / e_phi)}))):
            rc, got = run(tmp_path, job, "trace-check")
            rc_twin, want = run(tmp_path, twin, "trace-check", name="twin.json")
            assert rc == rc_twin == 0
            got, want = got["results"], want["results"]
            assert got["branch"] == want["branch"] and got["overall"] == want["overall"]
            for a, b in zip(got["reports"], want["reports"], strict=True):
                assert (a["condition"], a["verdict"]) == (b["condition"], b["verdict"])
                np.testing.assert_allclose(a["trajectory"], b["trajectory"],
                                           rtol=1e-12, atol=0)


class TestJobKeys:
    """Every job is checked against one table of the keys the commands read,
    `cli.JOB_KEYS`; the tests are generated from it."""

    # a job every command accepts, with every top-level key set; reconstruct
    # takes w0 at p = inf only, so it runs without it
    FULL = {"weight": {"kind": "classical"}, "lattice": {"kind": "square", "R": 8},
            "multiplier": {"kind": "builtin_sigma"}, "values": {"kind": "zero"},
            "p": 2, "pv": {"tolerance": 1e-9}, "grid": {"half_width": 1.0, "n": 2},
            "verify_points": 4, "w0": [0.0, 0.0], "density_r_max": 0.5,
            "radii": [1.0, 2.0, 4.0, 6.0, 8.0], "op": "M", "sizes": [20], "N": 2}

    @staticmethod
    def misspelt(key):
        return key[1] + key[0] + key[2:] if len(key) > 1 and key[0] != key[1] \
            else key + key[-1]

    @staticmethod
    def keys():
        """(key, head, sub) for every key the table reads: a top-level value
        (head and sub None), or a section's key sub, which needs head, the
        section's kind ({} for a section without kinds, and for "kind")."""
        for key, table in cli.JOB_KEYS.items():
            if callable(table):
                yield key, None, None
            elif any(map(callable, table.values())):
                yield from ((key, {}, sub) for sub in table)
            else:                                   # a section with kinds
                yield key, {}, "kind"
                for kind, readers in table.items():
                    yield from ((key, {"kind": kind}, sub) for sub in readers)

    def test_every_misspelt_key_is_schema_error_naming_its_path(self, tmp_path, capsys):
        jobs = []
        for key in cli.JOB_KEYS:
            assert self.misspelt(key) not in cli.JOB_KEYS
            jobs.append((self.misspelt(key), {self.misspelt(key): 1}))
        paths = {f"{key}.{sub}" for key, _, sub in self.keys()}
        for key, head, sub in self.keys():
            if sub not in (None, "kind"):
                assert f"{key}.{self.misspelt(sub)}" not in paths
                assert self.misspelt(sub) != "kind"
                jobs.append((f"{key}.{self.misspelt(sub)}",
                             {key: {**head, self.misspelt(sub): 1}}))
        # 14 top-level keys and 14 section keys
        assert len(jobs) == 28
        for path, job in jobs:
            rc, rep = run(tmp_path, job, "trace-check")
            assert rc == 2 and rep is None, path
            assert f"no command reads {path!r}" in capsys.readouterr().err, path

    @pytest.mark.parametrize("cmd", ["lattice-info", "sigma-eval", "trace-check",
                                     "reconstruct", "ap-probe", "op-norm"])
    def test_every_value_of_the_wrong_type_is_schema_error_naming_its_path(
            self, tmp_path, capsys, cmd):
        # every key is read whichever command runs: a lattice-info job with
        # values.items "x", or a trace-check job with op 7, exited 0; a null
        # w0, density_r_max or radii read as absent
        cases = []
        for key, head, sub in self.keys():
            for bad in ("x", True, None, {}):
                if bad is True and (sub or key) == "weighted":
                    continue        # true is a flag's value
                cases.append((key, {key: bad}) if sub is None else
                             (f"{key}.{sub}", {key: {**head, sub: bad}}))
        assert len(cases) == 4 * 26 - 2
        grid = tmp_path / "g.csv"
        extra = ["--grid", str(grid)] if cmd in ("sigma-eval", "reconstruct") else None
        for path, part in cases:
            rc, rep = run(tmp_path, {**self.FULL, **part}, cmd, extra)
            assert rc == 2 and rep is None and not grid.exists(), (path, part)
            assert path in capsys.readouterr().err, (path, part)

    def test_misspelt_trace_job_names_every_unread_key(self, tmp_path, capsys):
        # it ran on the classical weight at the default p.v. tolerance
        job = {"wieght": {"kind": "power", "gamma": 0.5, "rho_origin": 2.0},
               "lattice": {"kind": "square", "R": 10},
               "values": {"kind": "gaussian_trace", "w": [0.3, 0.1], "weigthed": True},
               "p": 2, "pv": {"tolerence": 1e-6}}
        rc, rep = run(tmp_path, job, "trace-check")
        assert rc == 2 and rep is None
        assert capsys.readouterr().err == ("schema error: no command reads 'wieght', "
                                           "'values.weigthed', 'pv.tolerence'\n")

    def test_retired_g_double_prime0_is_schema_error(self, tmp_path, capsys):
        # g''(0) of a user table changed no command's output
        job = dict(self.FULL, multiplier={"kind": "user_table", "g_prime": [],
                                          "g_double_prime0": [0.5, -0.25]})
        rc, rep = run(tmp_path, job, "trace-check")
        assert rc == 2 and rep is None
        assert capsys.readouterr().err == ("schema error: no command reads "
                                           "'multiplier.g_double_prime0'\n")

    @pytest.mark.parametrize("section, spec, message", [
        ("weight", {"kind": "classical", "gamma": 0.5}, "'weight.gamma'"),
        ("lattice", {"kind": "square", "points": []}, "'lattice.points'"),
        ("values", {"kind": "zero", "w": 0}, "'values.w'"),
        ("multiplier", {"kind": "builtin_sigma", "weighted": True},
         "'multiplier.weighted'"),
        ("lattice", {"R": 10}, "lattice.kind must be one of square, explicit, not None"),
        ("values", {"kind": ["list"]}, "values.kind must be one of"),
        ("weight", {"kind": "power", "gamma": 0.5, "c_gamma": 1.0, "rho_origin": 2.0},
         "one of c_gamma and rho_origin")])
    def test_keys_of_another_kind_and_unknown_kinds_are_schema_errors(
            self, tmp_path, capsys, section, spec, message):
        # a key of another kind was ignored: a classical weight's gamma, or
        # a power weight's rho_origin beside c_gamma
        rc, rep = run(tmp_path, dict(self.FULL, **{section: spec}), "lattice-info")
        assert rc == 2 and rep is None
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["lattice-info", "sigma-eval", "trace-check",
                                     "reconstruct", "ap-probe", "op-norm"])
    def test_keys_another_command_reads_are_accepted(self, tmp_path, cmd):
        job = {k: v for k, v in self.FULL.items() if cmd != "reconstruct" or k != "w0"}
        assert set(self.FULL) == set(cli.JOB_KEYS)
        rc, rep = run(tmp_path, job, cmd, ["--grid", str(tmp_path / "g.csv")]
                      if cmd in ("sigma-eval", "reconstruct") else None)
        assert rc == 0 and rep["config"] == job

    def test_readme_lists_every_key(self):
        # the README's CLI section mirrors the table and its defaults
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme) as fh:
            text = fh.read()
        section = text[text.index("## CLI"):text.index("## Library sketch")]
        def names(table):          # keys, kinds and section keys
            return {name for key, entry in table.items()
                    for name in (key, *(names(entry) if isinstance(entry, dict) else ()))}

        for name in names(cli.JOB_KEYS):
            assert f"`{name}`" in section, name
        for path, value in cli.DEFAULTS.items():
            if isinstance(value, dict):         # a section's default: its kind
                if not value:
                    continue
                value = value["kind"]
            shown = value if isinstance(value, str) else json.dumps(value)
            assert f"`{shown}`" in section, path
