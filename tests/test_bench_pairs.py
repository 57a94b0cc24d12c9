"""The pair summary and claim rule of tools/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pairs(parent, change, metric="run_cal", failed=(0, 0)):
    def run(value, failed):
        return {"correct": failed == 0, "failed": failed,
                "metrics": {metric: {"value": value, "unit": "kernels"}}}

    return [{"seed": i, "parent": run(p, failed[0]),
             "change": run(c, failed[1])}
            for i, (p, c) in enumerate(zip(parent, change))]


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.1, 9.9]


@pytest.mark.parametrize(
    "change,won,met",
    [
        ([8.0] * 10, "10/10", True),
        ([8.0] * 9 + [11.0], "9/10", True),
        ([8.0] * 8 + [11.0] * 2, "8/10", False),
        # wins every pair by less than the parent's interquartile range
        ([p - 0.01 for p in PARENT], "10/10", False),
    ],
)
def test_claim_needs_nine_in_ten_and_a_gap_beyond_the_iqr(change, won, met):
    summary = bench_pairs.summarise(_pairs(PARENT, change), {"run_cal": True})
    assert summary["run_cal"]["change_better_pairs"] == won
    assert summary["all_correct"]
    assert summary["failed"] == {"parent": 0, "change": 0}
    got = bench_pairs.claim({"w": summary}, "w", "run_cal", lower=True)
    assert got["met"] is met
    assert got["parent_iqr"] == pytest.approx(0.2)


@pytest.mark.parametrize("failed", [(0, 1), (1, 1), (2, 1)])
def test_claim_needs_every_check_to_pass(failed):
    summary = bench_pairs.summarise(
        _pairs(PARENT, [8.0] * 10, failed=failed), {"run_cal": True}
    )
    assert summary["failed"] == {"parent": 10 * failed[0],
                                 "change": 10 * failed[1]}
    assert not summary["all_correct"]
    got = bench_pairs.claim({"w": summary}, "w", "run_cal", lower=True)
    assert got["met"] is False


def test_claim_needs_no_more_failures_than_the_parent():
    summary = bench_pairs.summarise(_pairs(PARENT, [8.0] * 10),
                                    {"run_cal": True})
    summary["failed"] = {"parent": 0, "change": 1}
    got = bench_pairs.claim({"w": summary}, "w", "run_cal", lower=True)
    assert got["met"] is False
    summary["failed"] = {"parent": 0, "change": 0}
    assert bench_pairs.claim({"w": summary}, "w", "run_cal", True)["met"]


def test_higher_is_better_metrics_count_the_other_way():
    summary = bench_pairs.summarise(
        _pairs(PARENT, [12.0] * 10, "ops_per_s"), {"ops_per_s": False}
    )
    assert summary["ops_per_s"]["change_better_pairs"] == "10/10"
    got = bench_pairs.claim({"w": summary}, "w", "ops_per_s", lower=False)
    assert got["met"] and got["drop"] == pytest.approx(0.2)


def test_summary_keeps_each_operations_median_per_side():
    line = {"op_kernels": {"assess": [3.0, 1.0, 2.0], "D1": [0.5, 0.7]}}
    assert bench_pairs.op_medians(line) == {"assess": 2.0, "D1": 0.6}
    pairs = _pairs(PARENT[:3], [8.0] * 3)
    runs = [(1.0, 4.0), (1.2, 5.0), (0.9, 6.0)]
    for pair, (fit, assess) in zip(pairs, runs):
        pair["parent"]["op_kernels"] = {"assess": assess, "D1": fit}
        pair["change"]["op_kernels"] = {"assess": assess, "D1": fit - 0.5}
    summary = bench_pairs.summarise(pairs, {"run_cal": True})
    assert summary["op_kernels"] == {
        "assess": {"parent": 5.0, "change": 5.0},
        "D1": {"parent": 1.0, "change": 0.5},
    }
    assert "op_kernels" not in bench_pairs.summarise(
        _pairs(PARENT, PARENT), {"run_cal": True}
    )


def test_order_alternates_by_seed():
    assert bench_pairs._order(0) == ("parent", "change")
    assert bench_pairs._order(1) == ("change", "parent")


def test_src_lines_counts_the_package_modules_as_wc_does(tmp_path):
    pkg = tmp_path / "src" / "misstab"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline: wc -l says 0
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 3


def _fits(g2=1.5, iterations=60, evaluations=136, sha="ab", resid=3e-15):
    return {"M1": {"G2": g2, "iterations": iterations,
                   "evaluations": evaluations, "lambda_residual": resid,
                   "mu_hat_sha256": sha},
            "M2": {"G2": 0.25, "iterations": 9, "evaluations": 9,
                   "lambda_residual": None, "mu_hat_sha256": "cd"}}


@pytest.mark.parametrize(
    "change,same",
    [
        ({}, True),
        ({"g2": 1.5 + 2.0**-52}, False),
        ({"iterations": 61}, False),
        ({"evaluations": 137}, False),
        ({"sha": "ac"}, False),
    ],
)
def test_fit_all_is_identical_only_bit_for_bit(change, same):
    fits = {"parent": _fits(), "change": _fits(**change)}
    assert bench_pairs.identical(fits) is same


def test_fit_all_with_another_catalog_is_not_identical():
    fits = {"parent": _fits(), "change": _fits()}
    del fits["change"]["M2"]
    assert bench_pairs.identical(fits) is False


def _fit_all_runs(parent, change):
    """FIT_ALL_SCRIPT outputs, one per fits dict given for each side."""
    def run(fits):
        return {"fit_all_s": 1.0, "fit_all_cal": 200.0, "fits": fits}

    return {"parent": [run(f) for f in parent],
            "change": [run(f) for f in change]}


def test_alternation_runs_each_side_four_times_first_as_often_as_last(
        monkeypatch):
    order = []

    def script(checkout, script, levels):
        order.append(checkout)
        return {"run": len(order)}

    monkeypatch.setattr(bench_pairs, "_script", script)
    runs = bench_pairs._alternate({"parent": "P", "change": "C"}, "", 8)
    assert "".join(order) == "PCCPPCCP"
    assert runs == {"parent": [{"run": r} for r in (1, 4, 5, 8)],
                    "change": [{"run": r} for r in (2, 3, 6, 7)]}


@pytest.mark.parametrize("side,run", [(s, r) for s in bench_pairs.SIDES
                                      for r in range(4)])
def test_fit_all_record_compares_every_run(side, run):
    runs = _fit_all_runs([_fits()] * 4, [_fits()] * 4)
    assert bench_pairs.fit_all_record(runs, 8)["identical"] is True
    runs[side][run] = {**runs[side][run], "fits": _fits(iterations=61)}
    record = bench_pairs.fit_all_record(runs, 8)
    assert record["identical"] is False
    assert record["fit_all_cal"] == {"parent": [200.0] * 4,
                                     "change": [200.0] * 4}


def test_fit_all_record_holds_each_sides_median():
    runs = _fit_all_runs([_fits()] * 4, [_fits()] * 4)
    for side, times in (("parent", (7.0, 9.0, 6.0, 8.0)),
                        ("change", (5.0, 4.0, 9.0, 6.0))):
        for run, seconds in zip(runs[side], times):
            run["fit_all_s"], run["fit_all_cal"] = seconds, 100 * seconds
    median = bench_pairs.fit_all_record(runs, 8)["median"]
    assert median == {"fit_all_s": {"parent": 7.5, "change": 5.5},
                      "fit_all_cal": {"parent": 750.0, "change": 550.0}}


def test_fit_all_record_reports_the_largest_lambda_residual():
    # effects may move by rounding while the fits keep their bits
    runs = _fit_all_runs([_fits(), _fits(resid=5e-15)],
                         [_fits(resid=1e-14), _fits(resid=None)])
    record = bench_pairs.fit_all_record(runs, 8)
    assert record["identical"] is True
    assert record["max_lambda_residual"] == {"parent": 5e-15,
                                             "change": 1e-14}
    assert record["fits"]["M1"]["change"]["lambda_residual"] == 1e-14
    runs = _fit_all_runs([_fits(resid=None)], [_fits(resid=None)])
    assert bench_pairs.fit_all_record(runs, 8)["max_lambda_residual"] == {
        "parent": None, "change": None}


def test_fit_all_script_times_in_kernels():
    got = bench_pairs._script(_PATH.parents[1], bench_pairs.FIT_ALL_SCRIPT, 2)
    assert got["fit_all_s"] > 0 and got["fit_all_cal"] > 0
    assert all(set(fit) == {"G2", "lambda_residual", *bench_pairs.FIT_FIELDS}
               for fit in got["fits"].values())
    assert any(fit["lambda_residual"] is not None
               for fit in got["fits"].values())


def _assess_runs(parent, change):
    """ASSESS_SCRIPT outputs, one per verdict digest given for each side."""
    def run(sha):
        return {"first_s": 0.5, "first_cal": 90.0, "repeat_s": 0.2,
                "repeat_cal": 40.0, "sha256": sha}

    return {"parent": [run(s) for s in parent],
            "change": [run(s) for s in change]}


@pytest.mark.parametrize("side,run", [(s, r) for s in bench_pairs.SIDES
                                      for r in range(4)])
def test_assess_record_compares_every_verdict(side, run):
    runs = _assess_runs(["ab"] * 4, ["ab"] * 4)
    record = bench_pairs.assess_record(runs, 20)
    assert record["identical"] is True and record["sha256"] == "ab"
    assert record["repeat_cal"] == {"parent": [40.0] * 4,
                                    "change": [40.0] * 4}
    runs[side][run]["sha256"] = "ac"
    assert bench_pairs.assess_record(runs, 20)["identical"] is False


def test_assess_record_holds_each_sides_median():
    runs = _assess_runs(["ab"] * 4, ["ab"] * 4)
    for run, first in zip(runs["change"], (80.0, 60.0, 70.0, 90.0)):
        run["first_cal"] = first
    median = bench_pairs.assess_record(runs, 20)["median"]
    assert set(median) == set(bench_pairs.ASSESS_TIMES)
    assert median["first_cal"] == {"parent": 90.0, "change": 75.0}
    assert median["repeat_s"] == {"parent": 0.2, "change": 0.2}


def test_assess_script_times_in_kernels():
    got = bench_pairs._script(_PATH.parents[1], bench_pairs.ASSESS_SCRIPT, 2)
    assert set(got) == {*bench_pairs.ASSESS_TIMES, "sha256"}
    assert all(got[key] > 0 for key in bench_pairs.ASSESS_TIMES)
    assert len(got["sha256"]) == 64


def test_fit_all_and_assess_are_flags_at_the_recorded_levels(
        monkeypatch, tmp_path):
    calls = []

    def alternate(checkouts, script, levels):
        calls.append((script, levels))
        if script == bench_pairs.FIT_ALL_SCRIPT:
            return _fit_all_runs([_fits()] * 4, [_fits()] * 4)
        return _assess_runs(["ab"] * 4, ["ab"] * 4)

    monkeypatch.setattr(bench_pairs, "_alternate", alternate)
    monkeypatch.setattr(bench_pairs, "_rev", lambda checkout: "0000000")
    repo, out = _PATH.parents[1], tmp_path / "bench.json"
    argv = ["--parent", str(repo), "--change", str(repo), "--out", str(out)]
    assert bench_pairs.main([*argv, "--fit-all", "--assess"]) == 0
    assert calls == [(bench_pairs.FIT_ALL_SCRIPT, 8),
                     (bench_pairs.ASSESS_SCRIPT, 20)]
    doc = json.loads(out.read_text())
    assert doc["fit_all_8cubed"]["table"].startswith(
        "bench/workloads.synthetic_table(3, 8),")
    assert doc["assess_20cubed"]["table"].startswith(
        "bench/workloads.synthetic_table(0, 20),")
    with pytest.raises(SystemExit):
        bench_pairs.main([*argv, "--fit-all", "8"])


def test_face_corpus_script_fits_every_catalog_model_of_each_table():
    fits = bench_pairs._script(
        _PATH.parents[1], bench_pairs.FACE_CORPUS_SCRIPT, 3,
        *bench_pairs.FACE_CORPORA["face_corpus"][1])["fits"]
    assert list(fits)[:2] == ["t0:M1", "t0:M2"] and len(fits) == 27
    assert all(set(fit) == {"G2", "face_cells", "converged",
                            *bench_pairs.FIT_FIELDS}
               for fit in fits.values())
    record = bench_pairs.face_corpus_record(
        {"parent": fits, "change": fits}, 3)
    assert record["corpus"].startswith("3 tables,")
    assert (record["fits"], record["identical"]) == (27, 27)
    assert record["identical_but_evaluations"] == 27
    assert [record[key] for key in record["moved"]] == [0, 0, 0, 0, 0]
    total = sum(fit["evaluations"] for fit in fits.values())
    assert record["evaluations"] == {"parent": total, "change": total}


def test_face_shapes_script_fits_each_shape_in_turn():
    # three tables: a x b with both missing (9 models), a x b x c with a
    # missing (4) and with a and b missing (16)
    fits = bench_pairs._script(
        _PATH.parents[1], bench_pairs.FACE_CORPUS_SCRIPT, 3,
        *bench_pairs.FACE_CORPORA["face_corpus_shapes"][1])["fits"]
    assert len(fits) == 9 + 4 + 16
    assert [m for m in fits if m.startswith("t1:")] == [
        "t1:C1", "t1:C2", "t1:C3", "t1:C4"]
    assert "t2:D1:Y1=MCAR,Y2=MCAR" in fits
    record = bench_pairs.face_corpus_record(
        {"parent": fits, "change": fits}, 3, "face_corpus_shapes")
    assert record["corpus"].startswith("3 tables, in turn a x b")
    assert "default_rng(11)" in record["corpus"]
    assert (record["fits"], record["identical"]) == (29, 29)


def test_face_corpus_flag_records_each_corpus_under_its_key(
        monkeypatch, tmp_path):
    calls = []

    def script(checkout, script, *args):
        calls.append((checkout.name, script, *args))
        slow = checkout.name == "parent"
        return {"fits": {"t0:M1": _corpus_fit(evaluations=args[0])},
                "fits_s": 9.0 + slow, "fits_cal": 1500.0 + slow}

    monkeypatch.setattr(bench_pairs, "_script", script)
    monkeypatch.setattr(bench_pairs, "_rev", lambda checkout: "0000000")
    # two checkouts named for their sides, each with the BENCHMARK.json
    # main reads
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            (_PATH.parents[1] / "BENCHMARK.json").read_text())
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"),
            "--change", str(tmp_path / "change"), "--out", str(out)]
    assert bench_pairs.main([*argv, "--face-corpus"]) == 0
    drawn = bench_pairs.FACE_CORPUS_SCRIPT
    # each corpus runs four times a side, alternating
    assert calls == [
        (side, drawn, *args)
        for args in ((150, 7, 1, 1.0, 20.0), (120, 11, 3, 0.7, 15.0))
        for side in bench_pairs.ALTERNATION
    ]
    doc = json.loads(out.read_text())
    assert doc["face_corpus"]["corpus"] == (
        "150 tables, a and b at 2-4 levels, both missing, Poisson counts "
        "of gamma(1, 20) means, default_rng(7); every catalog model by "
        "fit_em at its defaults")
    assert doc["face_corpus_shapes"]["corpus"].startswith("120 tables,")
    assert doc["face_corpus_shapes"]["evaluations"] == {
        "parent": 120, "change": 120}
    for corpus in bench_pairs.FACE_CORPORA:
        assert doc[corpus]["fits_s"] == {"parent": [10.0] * 4,
                                         "change": [9.0] * 4}
        assert doc[corpus]["fits_cal"] == {"parent": [1501.0] * 4,
                                           "change": [1500.0] * 4}
        assert doc[corpus]["runs_agree"] is True


def test_face_corpus_script_times_its_fits_in_kernels():
    got = bench_pairs._script(
        _PATH.parents[1], bench_pairs.FACE_CORPUS_SCRIPT, 2,
        *bench_pairs.FACE_CORPORA["face_corpus_shapes"][1])
    assert set(got) == {"fits", *bench_pairs.CORPUS_TIMES}
    assert all(got[key] > 0 for key in bench_pairs.CORPUS_TIMES)
    runs = {"parent": [got],
            "change": [{**got, "fits_s": 1.0, "fits_cal": 2.0}]}
    record = bench_pairs.face_corpus_record(
        {"parent": got["fits"], "change": got["fits"]}, 2,
        "face_corpus_shapes", runs)
    assert record["fits_s"] == {"parent": [got["fits_s"]], "change": [1.0]}
    assert record["fits_cal"] == {"parent": [got["fits_cal"]],
                                  "change": [2.0]}
    # without times the entry holds the fits alone
    assert not set(bench_pairs.CORPUS_TIMES) & set(
        bench_pairs.face_corpus_record(
            {"parent": got["fits"], "change": got["fits"]}, 2,
            "face_corpus_shapes"))


def _corpus_fit(g2=1.0, face_cells=0, evaluations=10, converged=True):
    return {"G2": g2, "iterations": 5, "evaluations": evaluations,
            "face_cells": face_cells, "converged": converged,
            "mu_hat_sha256": "ab"}


@pytest.mark.parametrize("side,run", [(s, r) for s in bench_pairs.SIDES
                                      for r in range(1, 4)])
def test_face_corpus_record_holds_every_runs_times_and_medians(side, run):
    # fake outputs of four runs a side: the times and their medians are
    # each side's own, and runs_agree fails when any later run of a side
    # fits other bits than its first
    times = {"parent": (9.0, 12.0, 10.0, 11.0),
             "change": (8.0, 7.0, 9.5, 8.5)}
    runs = {s: [{"fits": {"t0:M1": _corpus_fit()}, "fits_s": t,
                 "fits_cal": 150.0 * t} for t in times[s]]
            for s in bench_pairs.SIDES}
    fits = {s: runs[s][0]["fits"] for s in bench_pairs.SIDES}
    record = bench_pairs.face_corpus_record(fits, 1, runs=runs)
    assert record["fits_s"] == {s: list(times[s]) for s in bench_pairs.SIDES}
    assert record["fits_cal"]["change"] == [1200.0, 1050.0, 1425.0, 1275.0]
    assert record["median"] == {
        "fits_s": {"parent": 10.5, "change": 8.25},
        "fits_cal": {"parent": 1575.0, "change": 1237.5}}
    assert record["runs_agree"] is True and record["identical"] == 1
    runs[side][run]["fits"] = {"t0:M1": _corpus_fit(g2=1.0 + 1e-15)}
    assert bench_pairs.face_corpus_record(fits, 1, runs=runs)[
        "runs_agree"] is False


def test_face_corpus_record_lists_what_moved():
    parent = {"t0:M1": _corpus_fit(face_cells=4),
              "t0:M2": _corpus_fit(g2=2.0),
              "t1:M1": _corpus_fit(),
              "t1:M2": _corpus_fit(),
              "t1:M3": _corpus_fit()}
    change = {"t0:M1": _corpus_fit(),
              "t0:M2": _corpus_fit(g2=1.5, face_cells=6, evaluations=4),
              "t1:M1": _corpus_fit(g2=1.0 + 2e-6),
              # within the tolerance, but not the same bits
              "t1:M2": _corpus_fit(g2=1.0 + 1e-9),
              "t1:M3": _corpus_fit(),
              # the same in every field but converged
              "t1:M4": _corpus_fit(converged=False)}
    parent["t1:M4"] = _corpus_fit()
    record = bench_pairs.face_corpus_record(
        {"parent": parent, "change": change}, 2)
    assert (record["fits"], record["identical"]) == (6, 1)
    assert record["identical_but_evaluations"] == 1
    assert record["moved"] == {"faces_lost": ["t0:M1"],
                               "faces_gained": ["t0:M2"],
                               "g2_rises": ["t1:M1"],
                               "g2_drops": ["t0:M2"],
                               "converged_changed": ["t1:M4"]}
    assert [record[key] for key in record["moved"]] == [1, 1, 1, 1, 1]
    assert record["evaluations"] == {"parent": 60, "change": 54}
    assert record["work"] == {"evaluations_rose": [],
                              "evaluations_fell": ["t0:M2"]}


def test_face_corpus_record_lists_fits_whose_work_moved():
    # the totals match, but work moved from one fit to two others
    parent = {"t0:M1": _corpus_fit(evaluations=30),
              "t0:M2": _corpus_fit(),
              "t1:M1": _corpus_fit(),
              "t1:M2": _corpus_fit()}
    change = {"t0:M1": _corpus_fit(evaluations=10),
              "t0:M2": _corpus_fit(evaluations=20),
              "t1:M1": _corpus_fit(),
              "t1:M2": _corpus_fit(evaluations=20)}
    record = bench_pairs.face_corpus_record(
        {"parent": parent, "change": change}, 2)
    assert record["evaluations"] == {"parent": 60, "change": 60}
    assert record["work"] == {"evaluations_rose": ["t0:M2", "t1:M2"],
                              "evaluations_fell": ["t0:M1"]}
    assert (record["evaluations_rose"], record["evaluations_fell"]) == (2, 1)
    assert record["identical"] == 1
    # every fit keeps its other fields
    assert record["identical_but_evaluations"] == 4
    assert record["converged_changed"] == 0
