import csv
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import shearlab
from shearlab import cli, measures, modforms, selftest
from shearlab.algebra import FormVector
from shearlab.cli import main
from shearlab.counting import OrbitQuery, StabilizerError, count_orbit
from shearlab.groups import PSL2Z, BudgetExceeded, WordBudget
from shearlab.modforms import InsufficientConvergenceError
from shearlab.quadrature import refine


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def read_manifest(path):
    with open(path.with_suffix(".manifest.json")) as f:
        return json.load(f)


def test_count_small_ball(tmp_path):
    out = tmp_path / "counts.csv"
    rc = main(["count", "--group", "psl2z", "--x0", "0,1,0",
               "--T", "4,8,16", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["T", "count", "saturated", "x0_norm"]
    assert [tuple(r) for r in rows] == [
        ("4", "34", "1", "1.0"), ("8", "98", "1", "1.0"),
        ("16", "242", "1", "1.0")]
    man = read_manifest(out)
    assert man["partial"] is False
    assert man["config"]["subcommand"] == "count"
    assert set(man["columns"]) == set(header)
    assert man["outputs"] == ["counts.csv"]


def test_count_manifest_reports_search_work(tmp_path):
    for cmd in (["count"], ["coset-count", "--q", "3"]):
        out = tmp_path / f"{cmd[0]}.csv"
        assert main(cmd + ["--T", "4,8,16", "--out", str(out)]) == 0
        res = count_orbit(OrbitQuery(PSL2Z, FormVector(0, 1, 0), (4, 8, 16)))
        man = read_manifest(out)
        assert man["search_nodes"] == res.search_nodes > 0
        assert man["search_depth"] == res.search_depth > 0
    out = tmp_path / "partial.csv"
    assert main(["count", "--T", "40,80", "--budget-nodes", "1000",
                 "--out", str(out)]) == 3
    # a cut walk keeps exactly its node budget
    assert read_manifest(out)["search_nodes"] == 1000


@pytest.mark.parametrize("x0", ["0.5,1,0", "1,0,1", "0,4e9,0"])
def test_count_bad_x0_exits_2_and_writes_nothing(tmp_path, x0):
    # 0.5 is not an integer form; S fixes u^2 + v^2, so (1, 0, 1) has a
    # stabilizer and per-coset counts would be ill-defined; 4e9 squared
    # is past the int64 tally
    out = tmp_path / "counts.csv"
    assert main(["count", "--x0", x0, "--T", "4,8", "--norm", "euclidean",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


def test_count_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["count", "--T", "4,8,16", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_count_budget_overrun_is_partial(tmp_path):
    out = tmp_path / "partial.csv"
    rc = main(["count", "--T", "40,80", "--budget-nodes", "1000",
               "--out", str(out)])
    assert rc == 3
    _, rows = read_csv(out)
    assert [r[2] for r in rows] == ["0", "0"]
    assert read_manifest(out)["partial"] is True


def test_coset_count_partitions(tmp_path):
    out = tmp_path / "cosets.csv"
    rc = main(["coset-count", "--group", "thin4", "--q", "3",
               "--T", "10,20", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    coset_cols = [i for i, h in enumerate(header) if h.startswith("coset_")]
    assert len(coset_cols) == 12
    for r in rows:
        assert sum(int(r[i]) for i in coset_cols) == int(r[1])


@pytest.mark.parametrize("q", ["0", "127", "40000"])
def test_coset_count_level_past_the_ceiling_exits_2_and_writes_nothing(
        tmp_path, q):
    # the level's class count is checked in closed form before any label
    # is enumerated: PSL2(Z/40000) has about 4.6e13 of them
    out = tmp_path / "cosets.csv"
    t0 = time.perf_counter()
    assert main(["coset-count", "--q", q, "--T", "10,20",
                 "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 5.0
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


def test_invalid_group_leaves_no_artifacts(tmp_path):
    out = tmp_path / "never.csv"
    rc = main(["count", "--group", "so3", "--T", "4,8", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


def test_bad_radii_rejected(tmp_path):
    out = tmp_path / "never.csv"
    assert main(["count", "--T", "8,4", "--out", str(out)]) == 2
    assert main(["count", "--T", "4,banana", "--out", str(out)]) == 2
    assert not out.exists()


def test_fit_roundtrip(tmp_path):
    counts = tmp_path / "counts.csv"
    rc = main(["count", "--T", "50,100,200,400", "--out", str(counts)])
    assert rc == 0
    report = tmp_path / "fit.json"
    rc = main(["fit", "--in", str(counts), "--model", "t_log_t",
               "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["counts"] == [994, 2266, 5162, 11362]
    mod = doc["models"]["t_log_t"]
    assert mod["rel_residual_top_octave"] < 0.05
    assert mod["coefficients"][0] > 0


def test_fit_short_table_reports_instead_of_failing(tmp_path):
    counts = tmp_path / "counts.csv"
    assert main(["count", "--T", "4,8,16", "--out", str(counts)]) == 0
    report = tmp_path / "fit.json"
    assert main(["fit", "--in", str(counts), "--model", "all",
                 "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert all("error" in m for m in doc["models"].values())


def test_fit_rejects_non_monotone(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("T,count\r\n10,50\r\n20,40\r\n30,60\r\n40,70\r\n")
    assert main(["fit", "--in", str(bad), "--model", "linear",
                 "--out", str(tmp_path / "r.json")]) == 2


def test_fit_leaves_out_unsaturated_radii(tmp_path):
    # the file's saturated column was read as all 1, so the cut radius
    # T = 800 was fitted with the rest
    counts = tmp_path / "counts.csv"
    counts.write_text("T,count,saturated\n50,994,1\n100,2266,1\n"
                      "200,5162,1\n400,11362,1\n800,12000,0\n")
    report = tmp_path / "fit.json"
    assert main(["fit", "--in", str(counts), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["t_list"] == [50.0, 100.0, 200.0, 400.0, 800.0]
    for m in doc["models"].values():
        assert m["t_used"] == [50.0, 100.0, 200.0, 400.0]


def test_fit_reads_the_norm_of_x0(tmp_path, capsys):
    # fit built its table with x0_norm 1, so it kept the radii from 10
    # rather than from 10 * ||x0||_sup = 70
    counts = tmp_path / "counts.csv"
    assert main(["count", "--x0", "3,5,7", "--T", "20,40,80,160,320,640",
                 "--out", str(counts)]) == 0
    header, rows = read_csv(counts)
    assert {r[header.index("x0_norm")] for r in rows} == {"7.0"}
    report = tmp_path / "fit.json"
    assert main(["fit", "--in", str(counts), "--model", "power",
                 "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["models"]["power"]["t_used"] == [80.0, 160.0, 320.0, 640.0]
    # rows that disagree on the norm are no one count's table
    report.unlink()
    report.with_suffix(".manifest.json").unlink()
    bad = tmp_path / "bad.csv"
    bad.write_text("T,count,saturated,x0_norm\n50,994,1,1.0\n"
                   "100,2266,1,7.0\n200,5162,1,1.0\n400,11362,1,1.0\n")
    assert main(["fit", "--in", str(bad), "--out", str(report)]) == 2
    assert "x0_norm" in capsys.readouterr().err
    assert not report.exists()
    assert not report.with_suffix(".manifest.json").exists()


@pytest.mark.parametrize("rows", [
    "50,994,1\nnan,1500,1\n100,2266,1\n200,5162,1\n400,11362,1\n",
    "50,994,1\n200,2266,1\n100,5162,1\n400,11362,1\n",
    "50,994,1\n100,2266,1\n200,5162,yes\n400,11362,1\n",
], ids=["nan-radius", "decreasing-radii", "saturated-not-0-or-1"])
def test_fit_rejects_a_malformed_table(tmp_path, capsys, rows):
    # the NaN row was dropped without a word and the other two fitted,
    # exit 0
    counts = tmp_path / "counts.csv"
    counts.write_text("T,count,saturated\n" + rows)
    out = tmp_path / "fit.json"
    assert main(["fit", "--in", str(counts), "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv"]


def test_budget_flag_defaults_are_the_records():
    ns = cli.build_parser().parse_args(["count"])
    assert WordBudget(ns.budget_words, ns.budget_nodes) == WordBudget()
    assert OrbitQuery(PSL2Z, FormVector(0, 1, 0), (4.0,)).budget \
        is OrbitQuery(PSL2Z, FormVector(0, 1, 0), (8.0,)).budget


@pytest.mark.parametrize("text", [None, "T,count\n10,5\n20\n", ""],
                         ids=["missing", "short-row", "empty"])
def test_unreadable_counts_file_exits_2_and_writes_nothing(tmp_path, capsys,
                                                           text):
    # these ended in a FileNotFoundError, IndexError or StopIteration
    # traceback with exit 1
    counts = tmp_path / "counts.csv"
    if text is not None:
        counts.write_text(text)
    out = tmp_path / "fit.json"
    assert main(["fit", "--in", str(counts), "--out", str(out)]) == 2
    assert "counts.csv" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


@pytest.mark.parametrize("argv", [["shear", "--T", "10"], ["selftest"]],
                         ids=["shear", "selftest"])
def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys,
                                                monkeypatch, argv):
    # both computed everything, then exited 1 on the open
    def work(*_):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(measures, "mu_T", work)
    monkeypatch.setattr(selftest, "SELFTEST_SUITES", (("work", work),))
    out = tmp_path / "missing" / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "not a writable directory" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_shear_table(tmp_path):
    out = tmp_path / "shear.csv"
    rc = main(["shear", "--psi", "bump:default", "--T", "10,30",
               "--tol", "1e-6", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["T", "mu_T", "mu_T_strip", "gap", "est_error", "route"]
    for r in rows:
        # columns carry 12 significant digits; the stored gap was formed
        # before rounding
        assert abs(float(r[1]) - float(r[2])) == pytest.approx(float(r[3]),
                                                               abs=1e-12)
        assert float(r[3]) < 0.1


def test_shear_delta_takes_the_direct_strip_route(tmp_path):
    # the form observable has a group but no box, so its strip column is
    # the direct quadrature; both columns converge at both radii
    out = tmp_path / "shear.csv"
    assert main(["shear", "--psi", "delta", "--T", "10,300",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["10", "300"]
    assert all(r[5] == "generic" for r in rows)
    assert read_manifest(out)["partial"] is False


@pytest.mark.parametrize("argv", [["--T", "inf"], ["--T", "10,nan"],
                                  ["--T", "30", "--tol", "0"]])
def test_shear_non_finite_T_or_bad_tol_is_config_error(tmp_path, capsys,
                                                       argv):
    # --T inf used to exit 1 with an OverflowError traceback
    out = tmp_path / "shear.csv"
    assert main(["shear"] + argv + ["--out", str(out)]) == 2
    assert "mu_T needs" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


def test_eisenstein_grid(tmp_path):
    out = tmp_path / "eis.csv"
    rc = main(["eisenstein", "--z", "1j", "--s", "2", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["x", "y", "s", "value", "route", "est_error"]
    assert len(rows) == 1
    assert float(rows[0][3]) == pytest.approx(2.7842015453307912, abs=1e-8)
    assert rows[0][4] == "fourier"


def test_eisenstein_pole_is_config_error(tmp_path):
    out = tmp_path / "eis.csv"
    assert main(["eisenstein", "--z", "1j", "--s", "1",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv,what", [
    (["--s", "inf"], "needs finite"),
    (["--z", "nan+1j"], "needs finite"),
    (["--route", "coset", "--s", "nan"], "needs finite"),
    (["--group", "thin4", "--s", "nan"], "needs finite"),
    (["--route", "fourier", "--s", "1e6"], "fourier route cannot"),
    (["--route", "coset", "--z", "3j", "--s", "700"], "coset route cannot"),
])
def test_eisenstein_unevaluable_input_is_config_error(tmp_path, capsys, argv,
                                                      what):
    # --s inf exited 1 with an OverflowError traceback, --z nan+1j exited 0
    # and wrote nan, and --route fourier --s 1e6 exited 1 with a TypeError
    out = tmp_path / "eis.csv"
    assert main(["eisenstein"] + argv + ["--out", str(out)]) == 2
    assert what in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


def test_eisenstein_coset_value_at_very_large_s(tmp_path):
    # E(i, s) tends to 2, and the point loop over the same rows gives 2.0
    # at s = 200 and 1000; there tall rows take G(inf), whose math.gamma
    # would overflow, and at 1e6 no row is tall
    for s in ("200", "1000", "1e6"):
        out = tmp_path / f"eis-{s}.csv"
        assert main(["eisenstein", "--route", "coset", "--s", s,
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0][3]) == 2.0, s


@pytest.mark.parametrize("argv", [
    ["eisenstein", "--z", "-0.12+0.75j,-.5+1.1j", "--s", "2"],
    ["count", "--x0", "-1,1,0", "--T", "10,20"],
    ["count", "--T", "-5,10"],
], ids=["z", "x0", "T"])
def test_minus_value_as_its_own_token(tmp_path, argv):
    # -0.12+0.75j and -1,1,0 exited 2 with "expected one argument" unless
    # written --z=-0.12+0.75j; both forms now run the same configuration
    runs = {}
    for form in ("token", "equals"):
        args = list(argv)
        if form == "equals":
            args = [f"{a}={args[i + 1]}" if a.startswith("--") else a
                    for i, a in enumerate(args) if not
                    (i and args[i - 1].startswith("--"))]
        (tmp_path / form).mkdir()
        out = tmp_path / form / "run.csv"
        rc = main(args + ["--out", str(out)])
        man = read_manifest(out)
        for key in ("wall_time_s", "timestamp"):
            del man[key]
        del man["config"]["out"]
        runs[form] = rc, out.read_bytes(), man
    assert runs["token"] == runs["equals"]
    assert runs["token"][0] == 0


@pytest.mark.parametrize("argv", [["count", "--x0", "-q"],
                                  ["count", "--bogus", "-1"],
                                  ["eisenstein", "--z", "-j"]])
def test_minus_token_that_is_no_value_still_exits_2(tmp_path, argv):
    out = tmp_path / "run.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"T": "4,8", "group": "psl2z"}))
    out = tmp_path / "counts.csv"
    # flag wins over config, config wins over default
    rc = main(["count", "--config", str(cfg), "--T", "4,8,16",
               "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 3
    rc = main(["count", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 2


@pytest.mark.parametrize("cmd,loaded,what", [
    ("eisenstein", {"max_mode": 2.5}, "must be an integer"),
    ("eisenstein", {"max_mode": True}, "must be an integer"),
    ("count", {"T": 5}, "must be a string"),
    ("count", {"budget_nodes": 1e7}, "must be an integer"),
    ("count", {"norm": "l1"}, "is not one of"),
    ("shear", {"tol": "abc"}, "must be a number"),
    ("shear", {"T": ["10", "30"]}, "must be a string"),
])
def test_config_values_parse_as_their_flags(tmp_path, capsys, cmd, loaded,
                                            what):
    # a config value skipped the flag parsers: these exited 1 with a
    # TypeError or an AttributeError
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(loaded))
    out = tmp_path / "x.csv"
    assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
    assert what in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


def test_config_numbers_take_their_flag_types(tmp_path):
    # an integral number for a float flag, and null for the default
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"T": "10", "tol": 1, "psi": None}))
    out = tmp_path / "shear.csv"
    assert main(["shear", "--config", str(cfg), "--out", str(out)]) == 0
    config = read_manifest(out)["config"]
    assert config["tol"] == 1.0 and config["psi"] == "bump:default"
    cfg.write_text("[1]")
    assert main(["shear", "--config", str(cfg), "--out", str(out)]) == 2


def test_negative_word_budget_is_config_error(tmp_path, capsys):
    # it walked nothing and exited 3 with counts of 0
    out = tmp_path / "counts.csv"
    for flag in ("--budget-nodes", "--budget-words"):
        assert main(["count", flag, "-5", "--out", str(out)]) == 2
        assert "integers >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("T", ["1e10", "1e300"])
def test_shear_past_the_row_ceiling_is_partial(tmp_path, capsys, T):
    # 1e10 asked for 57 GiB of row bounds and 1e300 overflowed int(peak),
    # each exiting 1
    out = tmp_path / "shear.csv"
    t0 = time.perf_counter()
    assert main(["shear", "--T", T, "--out", str(out)]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "past the ceiling" in capsys.readouterr().err
    man = read_manifest(out)
    assert man["partial"] is True and man["outputs"] == []
    assert not out.exists()


def test_mode_cap_is_partial(tmp_path, capsys):
    # a resource ceiling like the row-height cap: this exited 2 with no
    # manifest
    out = tmp_path / "eis.csv"
    assert main(["eisenstein", "--z", "0.1+0.002j", "--max-mode", "50",
                 "--out", str(out)]) == 3
    assert "mode cap 50" in capsys.readouterr().err
    man = read_manifest(out)
    assert man["partial"] is True and man["outputs"] == []
    assert "mode cap 50" in man["error"]
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"radii": "4,8"}))
    assert main(["count", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("exc", [
    BudgetExceeded("row table of height 5000 is past the cap "
                   "(heights < 4096)"),
    InsufficientConvergenceError("cutoffs 300 and 600 disagree"),
])
def test_exhausted_budget_or_tolerance_is_partial(tmp_path, monkeypatch, exc):
    def runner(ns):
        raise exc

    monkeypatch.setattr(cli, "_cmd_shear", runner)
    out = tmp_path / "shear.csv"
    assert main(["shear", "--out", str(out)]) == 3
    assert not out.exists()
    man = read_manifest(out)
    assert man["partial"] is True
    assert man["outputs"] == []
    assert man["error"] == str(exc)


def test_strip_tol_below_its_floor_is_config_error(tmp_path, capsys):
    out = tmp_path / "shear.csv"
    assert main(["shear", "--tol", "1e-13", "--out", str(out)]) == 2
    assert "1e-12 floor" in capsys.readouterr().err
    assert not out.exists()


def test_unconverged_strip_measure_is_partial(tmp_path, monkeypatch):
    # below T = 8 mu_T takes the adaptive route, so only the strip
    # measure's refinement is stubbed
    def unconverged(run, sizes, **tol):
        value, err, _ = refine(run, sizes, **tol)
        return value, err, False

    monkeypatch.setattr(measures, "refine", unconverged)
    out = tmp_path / "shear.csv"
    assert main(["shear", "--T", "5", "--out", str(out)]) == 3
    assert not out.exists()
    man = read_manifest(out)
    assert man["partial"] is True
    assert man["outputs"] == []
    assert "strip measure at T = 5" in man["error"]


@pytest.mark.parametrize("argv", [
    ["shear", "--psi", "bump:thin", "--T", "3500"],
    ["shear", "--psi", "bump:thin", "--T", "5000"],
    ["eisenstein", "--group", "thin4", "--max-height", "4096"],
])
def test_row_tables_past_the_cap_are_partial(tmp_path, argv):
    # unstubbed: the thin row table these runs need is past the height
    # cap, which raises BudgetExceeded before any row is built
    out = tmp_path / "run.csv"
    t0 = time.perf_counter()
    assert main(argv + ["--out", str(out)]) == 3
    assert time.perf_counter() - t0 < 10.0
    assert not out.exists()
    man = read_manifest(out)
    assert man["partial"] is True
    assert man["outputs"] == []
    assert "past the cap" in man["error"]


def test_eisenstein_on_a_spec_without_coset_rows_is_config_error(tmp_path,
                                                                capsys):
    # a group file is its width; a generator list, as older files held,
    # or a malformed width is a configuration error naming omega (the
    # other malformed files are in tests/test_groups.py)
    docs = [
        {"name": "thin4@0", "generators": [[[1, 0], [-4, 1]], [[0, -1], [1, 0]]],
         "lattice": False, "cusps": [{"point": "inf", "width": 4.0}]},
        {"name": "g", "generators": 5}, {"name": "g", "omega": True},
    ]
    path = tmp_path / "spec.json"
    out = tmp_path / "eis.csv"
    for doc in docs:
        path.write_text(json.dumps(doc))
        for cmd in (["eisenstein", "--s", "1.2"], ["count"]):
            assert main(cmd + ["--group", str(path), "--out", str(out)]) == 2
            assert "omega" in capsys.readouterr().err
            assert not out.exists()
            assert not out.with_suffix(".manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["--group", "thin4", "--max-height", "nan"],
    ["--route", "coset", "--s", "2", "--max-height", "inf"],
])
def test_eisenstein_non_finite_max_height_is_config_error(tmp_path, capsys,
                                                         argv):
    # nan passed the old floor check and wrote a "partial" manifest holding
    # NaN, which is not JSON; inf overflowed in the lattice coset sum
    out = tmp_path / "eis.csv"
    assert main(["eisenstein"] + argv + ["--out", str(out)]) == 2
    assert "max_height" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


def test_json_spec_is_its_width(tmp_path):
    # {"name": ..., "omega": 4} is thin4: the same counts, byte for byte
    spec = tmp_path / "w4.json"
    spec.write_text(json.dumps({"name": "thin4", "omega": 4}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["coset-count", "--group", "thin4", "--out", str(a)]) == 0
    assert main(["coset-count", "--group", str(spec), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stabilizer_error_is_config_error(tmp_path, monkeypatch):
    def runner(ns):
        raise StabilizerError("vector reached by two elements")

    monkeypatch.setattr(cli, "_cmd_count", runner)
    out = tmp_path / "counts.csv"
    assert main(["count", "--out", str(out)]) == 2
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


def test_moment_wall_time_covers_qexp(tmp_path, monkeypatch):
    real = modforms.delta_qexp

    def slow_qexp(n):
        time.sleep(0.3)
        return real(n)

    monkeypatch.setattr(modforms, "delta_qexp", slow_qexp)
    monkeypatch.setattr(modforms, "second_moment_lhs", lambda f, t: 1.0)
    monkeypatch.setattr(modforms, "second_moment_prediction",
                        lambda f, t: 1.0)
    out = tmp_path / "m.csv"
    assert main(["moment", "--T", "20", "--qexp-n", "1500",
                 "--out", str(out)]) == 0
    assert read_manifest(out)["wall_time_s"] >= 0.3


def test_moment_t_must_be_finite(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["moment", "--T", "inf", "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


def test_moment_past_the_seed_ceiling_is_partial(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["moment", "--T", "1e12", "--out", str(out)]) == 3
    assert not out.exists()
    man = read_manifest(out)
    assert man["partial"] is True and man["outputs"] == []
    assert "ceiling" in man["error"]


def test_moment_guards(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["moment", "--T", "20", "--qexp-n", "100",
                 "--out", str(out)]) == 2
    assert main(["moment", "--T", "0.5", "--out", str(out)]) == 2
    for cmd in ("moment", "kronecker"):
        assert main([cmd, "--qexp-n", "1499", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("value", [1500.0, "1500"])
@pytest.mark.parametrize("cmd", ["moment", "kronecker"])
def test_qexp_n_must_be_an_integer(tmp_path, capsys, cmd, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"qexp_n": value}))
    out = tmp_path / "m.out"
    assert main([cmd, "--config", str(config), "--out", str(out)]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".manifest.json").exists()


def test_selftest_passes(tmp_path):
    report = tmp_path / "self.json"
    rc = main(["selftest", "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert len(doc) >= 5
    assert all(v == "pass" for v in doc.values())
    assert read_manifest(report)["wall_time_s"] > 0.0


def test_seed_is_a_selftest_flag_only(tmp_path, capsys):
    # only the selftest sweep draws random points; elsewhere --seed is an
    # unknown flag, not a silently ignored one
    with pytest.raises(SystemExit) as exc:
        main(["count", "--seed", "3", "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()
    report = tmp_path / "self.json"
    assert main(["selftest", "--seed", "3", "--out", str(report)]) == 0
    assert read_manifest(report)["config"]["seed"] == 3


def test_config_file_sets_selftest_seed(tmp_path):
    # the seed was a flag with no config key: this exited 2 with "config
    # keys ['seed'] not valid for 'selftest'"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 3}))
    report = tmp_path / "self.json"
    assert main(["selftest", "--config", str(cfg), "--out", str(report)]) == 0
    assert read_manifest(report)["config"]["seed"] == 3


def test_manifest_config_is_the_subcommand_flags(tmp_path, monkeypatch):
    # every flag the parser takes is echoed, and nothing else: a default or
    # a config key declared beside the parser would show here
    monkeypatch.setattr(selftest, "SELFTEST_SUITES", ())
    counts = tmp_path / "counts.csv"
    runs = {
        "count": ["--T", "4"],
        "coset-count": ["--T", "4"],
        "fit": ["--in", str(counts)],
        "shear": ["--T", "10"],
        "eisenstein": [],
        "moment": ["--T", "20", "--qexp-n", "1500"],
        "kronecker": ["--qexp-n", "1500"],
        "selftest": [],
    }
    cmds = next(a for a in cli.build_parser()._actions if a.dest == "cmd")
    assert set(cmds.choices) == set(runs)
    assert main(["count", "--T", "4,8,16", "--out", str(counts)]) == 0
    for cmd, argv in runs.items():
        out = tmp_path / f"{cmd}.out"
        assert main([cmd, *argv, "--out", str(out)]) == 0, cmd
        flags = {a.dest for a in cmds.choices[cmd]._actions}
        want = flags - {"config", "help"} | {"subcommand"}
        assert set(read_manifest(out)["config"]) == want, cmd


def child(args, cwd):
    """A fresh python process given args, with this checkout's shearlab
    on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


SUBMODULES = {f"shearlab.{m}" for m in (
    "algebra", "groups", "counting", "measures", "eisenstein", "modforms",
    "quadrature", "specfun", "cli", "selftest")}
COUNTING = {"shearlab.cli", "shearlab.algebra", "shearlab.groups",
            "shearlab.counting"}


@pytest.mark.parametrize("argv, unloaded", [
    (None, SUBMODULES),
    # only the q-expansion's exact product reaches numpy.fft, which numpy
    # loads on first access (1.6 ms and about 0.7 MB)
    (["count", "--T", "4,8,16"], SUBMODULES - COUNTING | {"numpy.fft"}),
    (["coset-count", "--T", "4,8"], SUBMODULES - COUNTING | {"numpy.fft"}),
    (["fit", "--in", "counts.csv"], SUBMODULES - COUNTING | {"numpy.fft"}),
    # bump registration draws its points from a fixed sequence; loading
    # numpy.random costs a fresh process 12-18 ms
    (["shear", "--T", "10"], {"shearlab.counting", "shearlab.eisenstein",
                              "shearlab.modforms", "shearlab.specfun",
                              "numpy.random", "numpy.fft"}),
    (["eisenstein"], {"shearlab.counting", "shearlab.measures",
                      "shearlab.modforms", "numpy.fft"}),
    # TestFunction lives in groups, so the form's observable needs no
    # measures
    (["moment", "--T", "20", "--qexp-n", "1500"],
     {"shearlab.counting", "shearlab.eisenstein", "shearlab.measures"}),
    (["kronecker", "--qexp-n", "1500"],
     {"shearlab.counting", "shearlab.eisenstein", "shearlab.measures"}),
    # the suites draw from random.Random; numpy.random alone costs a fresh
    # process about 5 MB
    (["selftest"], {"numpy.random"}),
], ids=["import", "count", "coset-count", "fit", "shear", "eisenstein",
        "moment", "kronecker", "selftest"])
def test_subcommand_loads_only_its_modules(tmp_path, argv, unloaded):
    # the package resolves its exports on first access and each runner
    # imports what it uses, so a process compiles only its subcommand's
    # modules; records are NamedTuples, so none loads dataclasses, whose
    # decorators exec about six generated methods a class; only selftest
    # compiles its suites
    (tmp_path / "counts.csv").write_text("T,count,saturated\n"
                                         "4,34,1\n8,98,1\n16,242,1\n")
    code = ("import json, sys\n"
            "import shearlab\n"
            "rc = None\n"
            "if sys.argv[1:]:\n"
            "    from shearlab.cli import main\n"
            "    rc = main(sys.argv[1:] + ['--out', 'run.out'])\n"
            "print(json.dumps([rc, sorted(sys.modules)]))\n")
    out = child(["-c", code, *(argv or [])], tmp_path)
    rc, loaded = json.loads(out.stdout.splitlines()[-1])
    assert rc == (None if argv is None else 0), out.stderr
    if argv != ["selftest"]:
        unloaded = unloaded | {"shearlab.selftest"}
    assert (unloaded | {"dataclasses"}) & set(loaded) == set()


def test_modules_load_no_dataclasses(tmp_path):
    # numpy loads inspect on its own, so only dataclasses is asserted
    code = ("import sys\n"
            f"import {', '.join(sorted(SUBMODULES - {'shearlab.cli'}))}\n"
            "print('dataclasses' in sys.modules)\n")
    out = child(["-c", code], tmp_path)
    assert out.stdout.split() == ["False"], out.stderr


@pytest.mark.parametrize("how", ["flag", "config"])
def test_unknown_fit_model_exits_2(tmp_path, how):
    counts = tmp_path / "counts.csv"
    counts.write_text("T,count,saturated\n4,34,1\n8,98,1\n16,242,1\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "cubic"}))
    argv = ["-m", "shearlab.cli", "fit", "--out", "fit.json"]
    argv += ["--model", "cubic"] if how == "flag" else ["--config",
                                                        str(config)]
    out = child(argv, tmp_path)
    assert out.returncode == 2, out.stderr
    assert "cubic" in out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json",
                                                          "counts.csv"]


def test_package_exports_resolve_on_first_access():
    assert len(set(shearlab.__all__)) == len(shearlab.__all__) == 58
    for name, mod in shearlab._HOME.items():
        home = importlib.import_module(f"shearlab.{mod}")
        assert getattr(shearlab, name) is getattr(home, name), name
    star = {}
    exec("from shearlab import *", star)
    assert set(shearlab.__all__) <= set(star)
    assert set(shearlab.__all__) <= set(dir(shearlab))
    with pytest.raises(AttributeError, match="no_such_name"):
        shearlab.no_such_name
    assert not hasattr(shearlab, "no_such_name")
