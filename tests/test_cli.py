import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

from qrmix import ExperimentConfig, ConfigError, build_group, character_degrees, emit_plot_data, run_sweep
from qrmix import cli, mixing_bound_check, sweep, verify
from qrmix.characters import DegreeMultiset
from qrmix.groups import plan
from qrmix.cli import main
from qrmix.sweep import RESULT_COLUMNS, Check, write_results


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# degrees


def test_degrees_json_output(capsys):
    code, out, _ = run_cli(capsys, "degrees", "-g", "psl2:5")
    assert code == 0
    data = json.loads(out)
    G = build_group("psl2:5")
    assert data == {"group": "psl2:5", "order": 60, "classes": 5,
                    "degrees": list(character_degrees(G).degrees), "D": 3}


def test_degrees_trivial_group_reports_inf(capsys):
    code, out, _ = run_cli(capsys, "degrees", "-g", "cyclic:1")
    assert code == 0
    assert json.loads(out)["D"] == "inf"


@pytest.mark.parametrize("argv, k", [(("degrees", "-g", "dihedral:400000"), 200003),
                                     (("mixing", "-g", "cyclic:600", "--trials", "1"), 600)],
                         ids=["degrees", "mixing"])
def test_oversized_class_count_refused_before_building_the_group(capsys, monkeypatch, argv, k):
    def no_group(desc):
        raise AssertionError("the group was built")
    monkeypatch.setattr(cli, "build_group", no_group)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err == "error: class count %d exceeds 512\n" % k


def test_bad_descriptor_exits_2(capsys):
    code, _, err = run_cli(capsys, "degrees", "-g", "nosuch:4")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# mixing / recurrence / vdc CSV


def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_mixing_csv_schema_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "mixing", "-g", "symmetric:4",
                            "--trials", "3", "--seed", "11")
    assert code == 0
    rows = _parse_csv(out1)
    assert len(rows) == 3
    assert list(rows[0]) == ["group", "order", "action", "D", "trial",
                             "bound", "measured", "ci", "pass"]
    assert all(r["pass"] == "true" for r in rows)
    _, out2, _ = run_cli(capsys, "mixing", "-g", "symmetric:4",
                         "--trials", "3", "--seed", "11")
    assert out1 == out2


def test_mixing_float_fields_roundtrip(capsys):
    _, out, _ = run_cli(capsys, "mixing", "-g", "cyclic:8", "--trials", "2",
                        "--seed", "1")
    for row in _parse_csv(out):
        measured = float(row["measured"])
        assert "%.17g" % measured == row["measured"]    # 17-digit round trip
        assert measured <= float(row["bound"]) + 1e-9


def test_recurrence_csv(capsys):
    code, out, _ = run_cli(capsys, "recurrence", "-g", "sl2:5",
                           "--trials", "2", "--seed", "1")
    assert code == 0
    rows = _parse_csv(out)
    assert list(rows[0]) == ["group", "order", "D", "epsilon",
                             "bound_case_i", "measured_case_i",
                             "bound_case_ii", "measured_case_ii",
                             "bound_total", "measured_total", "pass"]
    for r in rows:
        assert float(r["measured_total"]) <= float(r["bound_total"]) + 1e-9
        assert r["pass"] == "true"


def test_vdc_csv(capsys):
    code, out, _ = run_cli(capsys, "vdc", "-g", "symmetric:3",
                           "--trials", "2", "--seed", "1")
    assert code == 0
    _, rec, _ = run_cli(capsys, "recurrence", "-g", "symmetric:3", "--trials", "1")
    assert out.splitlines()[0] == rec.splitlines()[0]     # the recurrence schema
    for r in _parse_csv(out):
        assert float(r["measured_total"]) <= float(r["bound_total"]) + 1e-9


def test_vdc_sampled_needs_no_degrees(capsys):
    # 600 classes is past the degree computation's range; vdc samples (g, h)
    code, out, _ = run_cli(capsys, "vdc", "-g", "cyclic:600", "--trials", "1", "--mc", "100")
    assert code == 0 and len(_parse_csv(out)) == 1


def test_vdc_samples_above_the_dense_limit(capsys):
    # |G| = 4896: no dense table, and no |G| x |G| family either
    code, out, _ = run_cli(capsys, "vdc", "-g", "sl2:17", "--trials", "1", "--mc", "30")
    rows = _parse_csv(out)
    assert code == 0 and len(rows) == 1 and rows[0]["order"] == "4896"
    assert float(rows[0]["measured_total"]) <= float(rows[0]["bound_total"])


# ---------------------------------------------------------------------------
# sweep


def _config(tmp_path, **overrides):
    data = {"groups": ["cyclic:8", "symmetric:4"],
            "experiments": ["degrees", "mixing"],
            "trials": 2, "master_seed": 5,
            "out_dir": str(tmp_path / "out")}
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_sweep_writes_outputs_and_passes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "sweep", "--config", _config(tmp_path))
    assert code == 0
    out_dir = tmp_path / "out"
    rows = list(csv.DictReader(open(out_dir / "results.csv")))
    assert rows and list(rows[0]) == RESULT_COLUMNS
    # 2 groups x (1 degrees row + 3 actions x 2 mixing trials)
    assert len(rows) == 2 * (1 + 6)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["all_pass"] is True
    assert summary["groups"]["cyclic:8"]["D"] == 1


def test_sweep_byte_identical_across_runs(tmp_path, capsys):
    cfg = _config(tmp_path)
    run_cli(capsys, "sweep", "--config", cfg)
    first = (tmp_path / "out" / "results.csv").read_bytes()
    first_summary = (tmp_path / "out" / "summary.json").read_bytes()
    run_cli(capsys, "sweep", "--config", cfg)
    assert (tmp_path / "out" / "results.csv").read_bytes() == first
    assert (tmp_path / "out" / "summary.json").read_bytes() == first_summary


def test_sweep_rejects_unknown_config_key(tmp_path, capsys):
    cfg = _config(tmp_path, bogus_knob=3)
    code, _, err = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 2 and "bogus_knob" in err


def test_sweep_rejects_bad_descriptor(tmp_path, capsys):
    cfg = _config(tmp_path, groups=["cyclic:8", "frobnitz:9"])
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 2


def test_sweep_reports_group_construction_failure(tmp_path, capsys):
    # parses but cannot be built: order 0 cyclic group
    cfg = _config(tmp_path, groups=["cyclic:0"], experiments=["degrees"])
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["groups"]["cyclic:0"]["error"]
    assert summary["all_pass"] is False


def test_config_invariants():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"groups": ["cyclic:4"],
                                    "experiments": ["mixing"], "trials": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"groups": ["cyclic:4"],
                                    "experiments": ["nope"]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiments": ["mixing"]})


@pytest.mark.parametrize("overrides", [
    {"trials": "3"}, {"trials": 1.5}, {"trials": True}, {"groups": "cyclic:5"},
    {"groups": []}, {"experiments": []}, {"actions": []}, {"mc_samples": 5},
    {"master_seed": -1}, {"groups": ["sl2:05", "sl2:5"]}, {"mc_samples": 10**6 + 1},
    {"experiments": ["mixing", "mixing"]}, {"actions": ["left", "left"]},
], ids=lambda o: json.dumps(o))
def test_sweep_rejects_invalid_config(tmp_path, capsys, overrides):
    code, out, err = run_cli(capsys, "sweep", "--config", _config(tmp_path, **overrides))
    assert code == 2 and out == ""
    assert err.startswith("error: %s " % next(iter(overrides))) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_sweep_keys_on_canonical_descriptor(tmp_path, capsys):
    # sl2:05 is sl2:5: the same rows, seeds and summary, byte for byte
    outputs = []
    for name, spelling in (("a", "sl2:05"), ("b", "sl2:5")):
        cfg = _config(tmp_path, groups=[spelling], experiments=list(sweep.EXPERIMENTS),
                      out_dir=str(tmp_path / name))
        assert run_cli(capsys, "sweep", "--config", cfg)[0] == 0
        outputs.append([(tmp_path / name / f).read_bytes()
                        for f in ("results.csv", "summary.json")])
    assert outputs[0] == outputs[1]
    assert b"sl2:05" not in outputs[0][0] + outputs[0][1]


def test_sweep_runs_vdc_above_the_dense_limit(tmp_path, capsys):
    # sl2:17 (|G| = 4896) has no dense table; vdc samples its (g, h) pairs
    cfg = _config(tmp_path, groups=["sl2:5", "sl2:17"], experiments=["vdc"], trials=1,
                  mc_samples=30)
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "results.csv")))
    assert [(r["group"], r["experiment"], r["pass"]) for r in rows] == [
        ("sl2:5", "vdc", "true"), ("sl2:17", "vdc", "true")]


def test_sweep_of_vdc_alone_needs_no_degrees(tmp_path, capsys):
    # cyclic:600's 600 classes are past the degree computation's range: its D is null
    cfg = _config(tmp_path, groups=["cyclic:600"], experiments=["vdc"], trials=1,
                  mc_samples=100)
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["groups"]["cyclic:600"]["D"] is None
    assert summary["groups"]["cyclic:600"]["error"] is None
    rows = list(csv.DictReader(open(tmp_path / "out" / "results.csv")))
    code, out, _ = run_cli(capsys, "vdc", "-g", "cyclic:600", "--trials", "1", "--mc", "100",
                           "--seed", "5")
    assert code == 0
    totals = {"bound_total": "bound", "measured_total": "measured"}   # vdc column -> sweep column
    assert _parse_csv(out) == [{c: r[totals.get(c, c)] for c in cli.COLUMNS["vdc"]} for r in rows]


def test_sweep_reports_character_error_as_the_groups_error(tmp_path, capsys):
    # cyclic:1000 has 1000 classes, past the degree computation's range
    cfg = _config(tmp_path, groups=["sl2:13", "cyclic:1000"],
                  experiments=["mixing", "recurrence"], trials=1)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 1 and err == ""
    rows = list(csv.DictReader(open(tmp_path / "out" / "results.csv")))
    assert [(r["group"], r["experiment"]) for r in rows] == [("sl2:13", "mixing")] * 3 + [
        ("sl2:13", "recurrence")]
    assert all(r["pass"] == "true" for r in rows)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["groups"]["sl2:13"]["error"] is None
    assert "1000" in summary["groups"]["cyclic:1000"]["error"]
    assert summary["all_pass"] is False


@pytest.mark.parametrize("desc, exact", [("product:sl2:5,symmetric:4", True),   # |G| = 2880
                                         ("psl2:19", False)])                     # |G| = 3420
def test_checks_follow_the_plan(monkeypatch, desc, exact):
    G = build_group(desc)
    for exp in ("mixing", "recurrence"):
        assert plan(exp, desc, G.order, 30, 0) == (None if exact else 30)
    rep, = mixing_bound_check(G, "left", 1, 0, mc_samples=30)
    assert (rep.mode, rep.samples) == (("exact", None) if exact else ("monte_carlo", 30))
    planned, trial = [], sweep.recurrence_trial
    monkeypatch.setattr(sweep, "recurrence_trial",
                        lambda G, seed, samples: planned.append(samples) or trial(G, seed, samples))
    cfg = ExperimentConfig(groups=[desc], experiments=["recurrence"], trials=1, mc_samples=30)
    rows, _ = sweep.sweep_group(cfg, G)
    assert planned == [None if exact else 30] and rows[0]["pass"] == "true"


def test_sweep_degrees_row_needs_the_trivial_degree_first(monkeypatch):
    # (2, 1, 1) on symmetric:3: the squares sum to |G| = 6 and there is one
    # degree per class, but the first degree is not 1
    G = build_group("symmetric:3")
    monkeypatch.setattr(sweep, "character_degrees", lambda G: DegreeMultiset((2, 1, 1), G.order))
    cfg = ExperimentConfig(groups=[G.desc], experiments=["degrees"], trials=1)
    rows, summary = sweep.sweep_group(cfg, G)
    assert [row["pass"] for row in rows] == ["false"]
    assert summary["experiments"]["degrees"]["fail_count"] == 1


def test_sweep_rejects_non_object_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(["cyclic:5"]))
    code, _, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("mixing", "-g", "cyclic:5", "--trials", "0"),
    ("recurrence", "-g", "cyclic:5", "--trials", "0"),
    ("verify", "--profile", "quick", "--seed", "-1"),
    ("mixing", "-g", "cyclic:5", "--seed", "-1"),
    ("mixing", "-g", "sl2:2305843009213693951", "--trials", "1"),
    # sample counts above the ceiling: refused before any O(samples) array
    ("recurrence", "-g", "sl2:37", "--trials", "1", "--mc", "1000000000000"),
    ("vdc", "-g", "sl2:13", "--trials", "1", "--mc", "100000000"),
], ids=" ".join)
def test_cli_rejects_invalid_input(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_check_refuses_before_building_the_group(capsys, monkeypatch):
    def no_group(desc):
        raise AssertionError("the group was built")
    monkeypatch.setattr(cli, "build_group", no_group)
    code, out, err = run_cli(capsys, "recurrence", "-g", "psl2:101", "--trials", "0")
    assert code == 2 and out == "" and err == "error: trials must be >= 1\n"


# ---------------------------------------------------------------------------
# plotdata


def test_plotdata_empty_results(tmp_path, capsys):
    path = tmp_path / "results.csv"
    write_results(str(path), [])
    code, out, _ = run_cli(capsys, "plotdata", "--results", str(path))
    assert code == 0
    assert out.splitlines() == ["group,order,D,bound,measured_max,measured_mean"]


def test_plotdata_single_trial_max_equals_mean(tmp_path, capsys):
    cfg = _config(tmp_path, trials=1, experiments=["mixing"], actions=["left"])
    run_cli(capsys, "sweep", "--config", cfg)
    code, out, _ = run_cli(capsys, "plotdata", "--results",
                           str(tmp_path / "out" / "results.csv"))
    assert code == 0
    rows = _parse_csv(out)
    assert len(rows) == 2
    for r in rows:
        assert r["measured_max"] == r["measured_mean"]


def test_plotdata_sorted_by_degree(tmp_path, capsys):
    cfg = _config(tmp_path, groups=["psl2:5", "cyclic:8", "sl2:5"],
                  experiments=["mixing"], actions=["left"], trials=1)
    run_cli(capsys, "sweep", "--config", cfg)
    _, out, _ = run_cli(capsys, "plotdata", "--results",
                        str(tmp_path / "out" / "results.csv"))
    ds = [float(r["D"]) for r in _parse_csv(out)]
    assert ds == sorted(ds)


def test_plotdata_missing_file_exits_2(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "plotdata", "--results",
                         str(tmp_path / "nope.csv"))
    assert code == 2


@pytest.mark.parametrize("command", ["mixing", "recurrence", "vdc", "plotdata"])
def test_out_makes_a_missing_directory(tmp_path, capsys, command):
    # the file written under --out holds the CSV printed on stdout
    out_dir = tmp_path / "a" / "b"
    if command == "plotdata":
        results = tmp_path / "results.csv"
        write_results(str(results), [])
        argv, name = ("plotdata", "--results", str(results)), "plot.csv"
    else:
        argv, name = (command, "-g", "dihedral:1", "--trials", "1"), command + ".csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    assert code == 0 and err == ""
    assert (out_dir / name).read_text() == out


# ---------------------------------------------------------------------------
# golden outputs, written with one BLAS thread.  verify_summary.json is commit
# 7b3b31d's, the vdc and recurrence-sl2:13 files are e4de328's.  The other three
# were written again when sampled rows moved to blocks reduced by einsum: their
# last digits moved, by at most 1.8e-15 relative.  The sweep's two files are
# 7649b7c's: its config covers D = inf (cyclic:1), all three actions, exact and
# sampled mixing and recurrence (psl2:7 is above exact_max_order 100), and vdc.


def _qrmix_env(blas_threads="1"):
    """The environment of a fresh qrmix process: this tree's src first, at
    blas_threads BLAS threads."""
    here = os.path.dirname(os.path.abspath(__file__))
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), blas_threads)
    return dict(os.environ, **threads,
                PYTHONPATH=os.pathsep.join([os.path.join(os.path.dirname(here), "src"),
                                            os.environ.get("PYTHONPATH", "")]))


def _run_qrmix(argv, out_dir, blas_threads="1", code=0):
    """Run qrmix in a fresh process, with --out unless out_dir is None; the
    finished process, once it has exited with code."""
    # the timeout fails a run that hangs instead of stalling the suite
    out = () if out_dir is None else ("--out", str(out_dir))
    run = subprocess.run([sys.executable, "-m", "qrmix", *argv, *out],
                         env=_qrmix_env(blas_threads), capture_output=True, timeout=300)
    assert run.returncode == code, run.stderr
    return run


def test_closed_output_pipe_exits_without_traceback():
    # `qrmix mixing -g cyclic:50 --trials 3000 | head -1`: the 214 kB of rows
    # outgrow the pipe's buffer, so qrmix is still writing when the reader
    # closes it, and exits 1 as Python does on EPIPE
    proc = subprocess.Popen([sys.executable, "-m", "qrmix", "mixing", "-g", "cyclic:50",
                             "--trials", "3000"], env=_qrmix_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"group,order,")
    proc.stdout.close()
    err = proc.communicate(timeout=300)[1].decode()
    assert proc.returncode == 1 and "Traceback" not in err, err


@pytest.mark.parametrize("argv", [("mixing", "-g", "cyclic:5", "--out", "{file}/x"),
                                  ("verify", "--profile", "quick", "--out", "{file}/x"),
                                  ("plotdata", "--results", "{dir}"),
                                  ("sweep", "--config", "{dir}")], ids=lambda a: a[0])
def test_path_of_the_wrong_kind_exits_2(tmp_path, argv):
    # NotADirectoryError and IsADirectoryError: one error line, no traceback
    (tmp_path / "file").write_text("")
    argv = [a.format(file=tmp_path / "file", dir=tmp_path) for a in argv]
    err = _run_qrmix(argv, None, code=2).stderr.decode()
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, files", [
    (("verify", "--profile", "quick", "--seed", "0"),
     {"verify_results.csv": "verify_results.csv", "verify_summary.json": "verify_summary.json"}),
    (("recurrence", "-g", "sl2:37", "--trials", "1", "--mc", "30", "--seed", "7"),
     {"recurrence.csv": "recurrence_sl2_37.csv"}),
    (("mixing", "-g", "psl2:67", "--action", "conjugation", "--trials", "1", "--mc", "30",
      "--seed", "7"), {"mixing.csv": "mixing_psl2_67_conjugation.csv"}),
    (("vdc", "-g", "symmetric:4", "--trials", "10", "--seed", "7"),
     {"vdc.csv": "vdc_symmetric_4.csv"}),
    (("vdc", "-g", "sl2:11", "--trials", "2", "--mc", "100", "--seed", "1"),
     {"vdc.csv": "vdc_sl2_11.csv"}),
    (("recurrence", "-g", "sl2:13", "--trials", "2", "--seed", "3"),
     {"recurrence.csv": "recurrence_sl2_13.csv"}),
    (("sweep", "--config", os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                                        "sweep_config.json")),
     {"results.csv": "sweep_results.csv", "summary.json": "sweep_summary.json"}),
], ids=["verify-quick-seed0", "recurrence-sl2:37", "mixing-psl2:67-conjugation",
        "vdc-symmetric:4", "vdc-sl2:11", "recurrence-sl2:13", "sweep-four-experiments"])
def test_outputs_match_golden_files(tmp_path, argv, files):
    here = os.path.dirname(os.path.abspath(__file__))
    _run_qrmix(argv, tmp_path)
    for name, golden in files.items():
        with open(os.path.join(here, "golden", golden), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read()


def _assert_same_bytes_at_one_and_two_threads(tmp_path, argv, name):
    """The file name, or stdout when name is None, is the same at 1 and 2 threads."""
    outputs = []
    for threads in ("1", "2"):
        if name is None:
            outputs.append(_run_qrmix(argv, None, threads).stdout)
        else:
            (tmp_path / threads).mkdir()
            _run_qrmix(argv, tmp_path / threads, threads)
            outputs.append((tmp_path / threads / name).read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, name", [
    (("recurrence", "-g", "sl2:37", "--trials", "1", "--mc", "30", "--seed", "7"), "recurrence.csv"),
    (("mixing", "-g", "psl2:67", "--action", "conjugation", "--trials", "1", "--mc", "30",
      "--seed", "7"), "mixing.csv"),
], ids=["recurrence-sl2:37", "mixing-psl2:67-conjugation"])
def test_sampled_outputs_independent_of_blas_threads(tmp_path, argv, name):
    _assert_same_bytes_at_one_and_two_threads(tmp_path, argv, name)


@pytest.mark.parametrize("argv, name", [
    (("mixing", "-g", "sl2:13", "--action", "conjugation", "--trials", "3", "--seed", "7"),
     "mixing.csv"),
    (("vdc", "-g", "sl2:11", "--trials", "2", "--mc", "100", "--seed", "1"), "vdc.csv"),
    (("degrees", "-g", "product:sl2:5,product:sl2:5,cyclic:2"), None),
    (("degrees", "-g", "psl2:101"), None),
], ids=["mixing-sl2:13-conjugation", "vdc-sl2:11", "degrees-product-k162", "degrees-psl2:101"])
def test_exact_outputs_independent_of_blas_threads(tmp_path, argv, name):
    _assert_same_bytes_at_one_and_two_threads(tmp_path, argv, name)


# ---------------------------------------------------------------------------
# verify


def test_verify_quick_passes_and_writes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--profile", "quick",
                           "--out", str(tmp_path), "--seed", "8")
    assert code == 0
    assert out.count("PASS") == 10 and "FAIL" not in out
    assert (tmp_path / "verify_results.csv").exists()
    assert (tmp_path / "verify_summary.json").exists()


def test_verify_fails_exactly_the_failing_criterion(tmp_path, capsys, monkeypatch):
    """One criterion with a failing check: verify exits 1, prints FAIL for
    that criterion alone, and its summary records all_pass false."""
    planted = [Check("planted_failure", "cyclic:5", passed=False)]
    monkeypatch.setattr(verify, "CRITERIA", [
        (num, name, (lambda **_: verify.Outcome(planted, planted)) if num == 3 else func)
        for num, name, func in verify.CRITERIA])
    code, out, _ = run_cli(capsys, "verify", "--profile", "quick",
                           "--out", str(tmp_path), "--seed", "8")
    assert code == 1
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["PASS"] * 2 + ["FAIL"] + ["PASS"] * 7
    assert lines[2].startswith("FAIL  criterion  3: ")
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert summary["all_pass"] is False
    assert [num for num, c in summary["criteria"].items() if not c["pass"]] == ["3"]
