"""The pair summary and claim rule of tools/bench_pairs.py."""

import importlib.util
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
