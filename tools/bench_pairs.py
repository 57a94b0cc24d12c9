"""Run bench/run.py in pairs on two checkouts and write a BENCH_*.json record.

Each pair runs one workload with one seed in the parent checkout and in the
change checkout, one process at a time, with the order alternating: even
seeds run the parent first, odd seeds the change.  The record holds every
run, and per workload and end-to-end metric the median and quartiles of
each side and the number of pairs the change won.  Each run also keeps
its operations' median times in kernels (op_kernels, from the op_kernels
lists of bench/run.py's summary line), and the summary gives each side's
median of them per operation, so a claim shows which operations moved.
For setup_s the summary also counts each side's runs per poll step of
subprocess's wait (poll_steps), so a record shows when a setup_s gap is
one step.  A claim names one
workload and metric; it is met when the change wins at least nine pairs in
ten, its median beats the parent's by more than the parent's
interquartile range, every check of every run passes and no more of the
change's operations fail than the parent's.  Each run lasts as long as
bench/run.py's own default, the same on both sides.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs fit-boundary=10 --pairs fit-large=10 \\
        --pairs bootstrap-screen=5 --traced fit-boundary=2 \\
        --claim fit-boundary:run_cal --smoke --fit-all --face-corpus \\
        --out BENCH_N.json

Traced pairs (--trace 1) take the seeds after the untraced ones.
--fit-all times fit_all on the seeded FIT_ALL_LEVELS-cubed table of
bench/workloads.py four times in each checkout, in the order parent,
change, change, parent, parent, change, change, parent (ALTERNATION), each
run between two runs of the checkout's bench/calibration.small_arrays
kernel, and records its wall time (fit_all_s), its time in kernels
(fit_all_cal, as bench/run.py measures run_cal), each side's median of
both, and every fit's G2, iterations, evaluations, lambda_residual and a
sha256 of its mu_hat bytes; the record's identical flag says whether all
eight runs agree bit for bit in all but lambda_residual, whose largest
value each side reports as max_lambda_residual.  --assess times a first
and a repeated assess of bench/workloads.synthetic_table(0, ASSESS_LEVELS)
in each checkout in the same order, each between two runs of the
checkout's bench/calibration.mixed kernel (Python-level work, as building
the records is), and records both times in seconds and in kernels, with
each side's median; its identical flag says whether all eight verdicts
have the same sha256 of json.dumps(verdict.as_dict()).  The record also
holds src_lines, the lines of src/misstab/*.py in each checkout as wc -l
counts them, so a change that removes code shows its size next to its
runs.  --face-corpus fits every catalog model with fit_em's defaults to
each corpus of FACE_CORPORA (FACE_CORPUS_SCRIPT), four times in each
checkout in the order ALTERNATION: 150 random tables with both variables
missing, recorded as face_corpus, and 120 random tables of three shapes
in turn, recorded as face_corpus_shapes.  It then fits the built-in
identity set the same way (IDENTITY_SCRIPT), recorded as
builtin_identity: every catalog model of each built-in table of an
analysis shape by fit_model, and by fit_em at its defaults, at
max_iter=60 and at tol=1e-14.  Each entry records how the change's fits
differ from the parent's in each side's first run: the fits identical
bit for bit (G2, iterations, evaluations, face cells, converged flag,
mu_hat bytes and loglik_trace bytes) and those identical in all but
evaluations, the faces lost and gained, the G2 rises and drops beyond
FACE_CORPUS_G2_TOL, the fits whose converged flag changed, the fits whose
evaluations rose and fell, and each side's total evaluations
(face_corpus_record).  It also holds the time
each run's fits took together, in seconds (fits_s) and in kernels of the
checkout's bench/calibration.small_arrays, run between the tables
(fits_cal, each table's fits in the kernels around them), each side's
median of both, and runs_agree, whether every run of a side fitted the
same bits as its first.  The corpora bound no workload and the pair rule
does not apply to four runs a side, so their time is a figure to record,
not to claim a gain by.  The record is rewritten after every pair, so an
interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# the order of the --fit-all and --assess runs: four a side, each side
# first as often as last, so a step in the machine's speed falls on both
ALTERNATION = SIDES + SIDES[::-1] + SIDES + SIDES[::-1]
RUN_TIMEOUT_S = 900
CLAIM_SHARE = 0.9  # of the pairs the change must win
# the levels of the tables --fit-all and --assess run on, as every record
# with a fit_all_8cubed or assess_20cubed entry ran them
FIT_ALL_LEVELS = 8
ASSESS_LEVELS = 20
# bench/run.py times setup_s around subprocess.run(..., timeout=120), whose
# wait polls the child after sleeps of 1, 2, 4, 8, 16 and 32 ms, then every
# 50 ms, so it sees the child's exit only at a poll: setup_s moves in steps
# of POLL_STEP_S from POLL_FIRST_S on
POLL_FIRST_S = 0.063
POLL_STEP_S = 0.05

# Runs in a checkout with its src/ and bench/ on the path; prints one JSON
# object with the time and every fit of fit_all on the synthetic table.
# The kernel runs once untimed so that neither timed run is its first.
FIT_ALL_SCRIPT = """
import hashlib, json, sys, time
import misstab, workloads
from calibration import kernel_seconds, small_arrays
table = workloads.synthetic_table(3, int(sys.argv[1]))
small_arrays()
before = kernel_seconds(small_arrays)
start = time.perf_counter()
fits = misstab.fit_all(table)
seconds = time.perf_counter() - start
after = kernel_seconds(small_arrays)
print(json.dumps({"fit_all_s": seconds,
                  "fit_all_cal": 2.0 * seconds / (before + after), "fits": {
    f.model_id: {"G2": f.G2, "iterations": f.iterations,
                 "evaluations": f.evaluations,
                 "lambda_residual": f.lambda_residual,
                 "mu_hat_sha256":
                     hashlib.sha256(f.mu_hat.tobytes()).hexdigest()}
    for f in fits}}))
"""
FIT_FIELDS = ("iterations", "evaluations", "mu_hat_sha256")

# Runs like FIT_ALL_SCRIPT; the first assess also builds the schema's
# screening plan, the repeated one finds it cached.
ASSESS_SCRIPT = """
import hashlib, json, sys, time
import misstab, workloads
from calibration import kernel_seconds, mixed
table = workloads.synthetic_table(0, int(sys.argv[1]))
mixed()
out = {}
for run in ("first", "repeat"):
    before = kernel_seconds(mixed)
    start = time.perf_counter()
    verdict = misstab.assess(table)
    seconds = time.perf_counter() - start
    after = kernel_seconds(mixed)
    out[run + "_s"] = seconds
    out[run + "_cal"] = 2.0 * seconds / (before + after)
out["sha256"] = hashlib.sha256(
    json.dumps(verdict.as_dict()).encode()).hexdigest()
print(json.dumps(out))
"""
ASSESS_TIMES = ("first_s", "first_cal", "repeat_s", "repeat_cal")

# Runs like FIT_ALL_SCRIPT; prints one JSON object with every catalog fit
# of each table of a corpus, drawn from one default_rng(seed) stream in
# this order, and the time the fits took together, in seconds and in
# kernels: each table's fits run between two runs of the kernel, as
# bench/run.py times an operation, so a corpus samples the machine's
# speed once a table, not twice in all.  Table t has shape t mod shapes:
# a x b with both missing (2-4 levels each), then a x b x c with a
# missing, then a x b x c with a and b missing (2-3 levels each); each
# stratum, in schema.patterns() order, is Poisson with means drawn from
# gamma(k, theta), and a table with no count at all is drawn again.
# The fields each fit of FACE_CORPUS_SCRIPT and IDENTITY_SCRIPT records:
# the loglik_trace digest catches a face solve that appends other values
# to the trace while mu_hat keeps its bits.
FIT_RECORD = """
import hashlib, json, sys, time
import numpy as np
from calibration import kernel_seconds, small_arrays
def record(f):
    return {"G2": f.G2, "iterations": f.iterations,
            "evaluations": f.evaluations, "face_cells": f.face_cells,
            "converged": f.converged,
            "mu_hat_sha256": hashlib.sha256(f.mu_hat.tobytes()).hexdigest(),
            "loglik_trace_sha256": hashlib.sha256(
                np.asarray(f.loglik_trace, dtype=float).tobytes()).hexdigest()}
"""
FACE_CORPUS_SCRIPT = FIT_RECORD + """
from misstab import IncompleteTable, Stratum, TableSchema
from misstab import enumerate_models, fit_em
tables, seed, shapes = map(int, sys.argv[1:4])
k, theta = map(float, sys.argv[4:6])
rng = np.random.default_rng(seed)
fits = {}
small_arrays()
before = kernel_seconds(small_arrays)
seconds = kernels = 0.0
for t in range(tables):
    while True:
        if t % shapes == 0:
            levels = [int(n) for n in rng.integers(2, 5, size=2)]
            names = missing = ("a", "b")
        else:
            levels = [int(n) for n in rng.integers(2, 4, size=3)]
            names, missing = ("a", "b", "c"), ("a", "b")[: t % shapes]
        schema = TableSchema(tuple(zip(names, levels)), missing)
        strata = []
        for pattern in schema.patterns():
            observed = schema.observed_for(pattern)
            shape = [schema.levels(v) for v in observed]
            strata.append(Stratum(observed,
                                  rng.poisson(rng.gamma(k, theta, shape))))
        table = IncompleteTable(schema, tuple(strata))
        if table.N > 0:
            break
    took = 0.0
    for model in enumerate_models(schema):
        start = time.perf_counter()
        f = fit_em(model, table)
        took += time.perf_counter() - start
        fits[f"t{t}:{model.id}"] = record(f)
    after = kernel_seconds(small_arrays)
    seconds += took
    kernels += 2.0 * took / (before + after)
    before = after
print(json.dumps({"fits": fits, "fits_s": seconds, "fits_cal": kernels}))
"""
# Runs like FACE_CORPUS_SCRIPT on the built-in tables named in argv: every
# catalog model of each by fit_model and by fit_em at its defaults, at
# max_iter=60 and at tol=1e-14, timed as the corpus script times a table.
IDENTITY_SCRIPT = FIT_RECORD + """
from misstab import builtin_dataset, enumerate_models, fit_em, fit_model
FITS = {"fit_model": fit_model, "fit_em": fit_em,
        "fit_em(max_iter=60)": lambda m, t: fit_em(m, t, max_iter=60),
        "fit_em(tol=1e-14)": lambda m, t: fit_em(m, t, tol=1e-14)}
fits = {}
small_arrays()
before = kernel_seconds(small_arrays)
seconds = kernels = 0.0
for name in sys.argv[1:]:
    table = builtin_dataset(name)
    took = 0.0
    for model in enumerate_models(table.schema):
        for label, fit in FITS.items():
            start = time.perf_counter()
            f = fit(model, table)
            took += time.perf_counter() - start
            fits[f"{name}:{model.id}:{label}"] = record(f)
    after = kernel_seconds(small_arrays)
    seconds += took
    kernels += 2.0 * took / (before + after)
    before = after
print(json.dumps({"fits": fits, "fits_s": seconds, "fits_cal": kernels}))
"""
# the built-in tables IDENTITY_SCRIPT fits: every one of an analysis shape
IDENTITY_DATASETS = ("smoking-birthweight", "bone-density", "spo-y1",
                     "spo-y1y2")
CORPUS_TIMES = ("fits_s", "fits_cal")
# each corpus --face-corpus fits, by its key in the record: its table
# count, the script's seed, shapes, k and theta, and what its tables are
FACE_CORPORA = {
    "face_corpus": (
        150, (7, 1, 1.0, 20.0),
        "a and b at 2-4 levels, both missing, Poisson counts of "
        "gamma(1, 20) means"),
    "face_corpus_shapes": (
        120, (11, 3, 0.7, 15.0),
        "in turn a x b at 2-4 levels with both missing, a x b x c at 2-3 "
        "levels with a missing and with a and b missing, Poisson counts of "
        "gamma(0.7, 15) means"),
}
FACE_CORPUS_G2_TOL = 1e-6  # a G2 moving by more than this rises or drops


def _rev(checkout: Path) -> str:
    proc = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True,
    )
    return proc.stdout.strip() or "unknown"


def src_lines(checkout: Path) -> int:
    """The newlines in a checkout's src/misstab/*.py, the total wc -l
    prints."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "misstab").glob("*.py"))


def _bench(checkout: Path, *args) -> list:
    """The JSON lines bench/run.py prints in a checkout."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *map(str, args)],
        cwd=checkout, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench/run.py {' '.join(map(str, args))} in {checkout} exited "
            f"{proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def _script(checkout: Path, script: str, *args) -> dict:
    """The JSON object a script prints, run with args in a checkout with
    its src/ and bench/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src"), str(checkout / "bench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        cwd=checkout, env=env, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _order(seed: int) -> tuple:
    return SIDES if seed % 2 == 0 else SIDES[::-1]


def _stats(values: list) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def poll_steps(values: list) -> dict:
    """How many setup_s values fall in each poll step, keyed by the poll at
    or before them in s to the ms (POLL_FIRST_S plus whole POLL_STEP_S)."""
    steps = {}
    for value in sorted(values):
        k = math.floor((value - POLL_FIRST_S) / POLL_STEP_S)
        key = f"{POLL_FIRST_S + k * POLL_STEP_S:.3f}"
        steps[key] = steps.get(key, 0) + 1
    return steps


def _better(change: float, parent: float, lower: bool) -> bool:
    return change < parent if lower else change > parent


def op_medians(summary_line: dict) -> dict:
    """Each operation's median time in kernels over one run, from the
    op_kernels lists of bench/run.py's summary line."""
    return {op: statistics.median(kernels)
            for op, kernels in summary_line["op_kernels"].items()}


def summarise(pairs: list, metrics: dict) -> dict:
    """Per end-to-end metric: both sides' median and quartiles, the pairs
    the change won and the relative change of the median, and for setup_s
    each side's runs per poll step (poll_steps); per operation, when the
    runs keep op_kernels, each side's median of its runs' medians."""
    out = {}
    for name, lower in metrics.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        won = sum(_better(c, p, lower)
                  for p, c in zip(values["parent"], values["change"]))
        parent, change = (_stats(values[side]) for side in SIDES)
        out[name] = {
            "parent": parent,
            "change": change,
            "change_better_pairs": f"{won}/{len(pairs)}",
            "median_change": change["median"] / parent["median"] - 1.0,
        }
        if name == "setup_s":
            for side in SIDES:
                out[name][side]["poll_steps"] = poll_steps(values[side])
    if "op_kernels" in pairs[0]["parent"]:
        out["op_kernels"] = {
            op: {side: statistics.median([p[side]["op_kernels"][op]
                                          for p in pairs])
                 for side in SIDES}
            for op in pairs[0]["parent"]["op_kernels"]
        }
    out["all_correct"] = all(p[s]["correct"] for p in pairs for s in SIDES)
    out["failed"] = {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}
    return out


def claim(summary: dict, workload: str, metric: str, lower: bool) -> dict:
    """Whether the change's gain on one metric counts; drop is the gain as
    a share of the parent's median."""
    entry = summary[workload][metric]
    failed = summary[workload]["failed"]
    parent, change = entry["parent"], entry["change"]
    won, n = map(int, entry["change_better_pairs"].split("/"))
    iqr = parent["q3"] - parent["q1"]
    gain = parent["median"] - change["median"]
    if not lower:
        gain = -gain
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": parent["median"],
        "change_median": change["median"],
        "drop": gain / parent["median"],
        "parent_iqr": iqr,
        "change_better_pairs": entry["change_better_pairs"],
        "met": (won >= math.ceil(CLAIM_SHARE * n) and gain > iqr
                and summary[workload]["all_correct"]
                and failed["change"] <= failed["parent"]),
    }


def identical(fits: dict) -> bool:
    """Whether every run in fits (a label per run, such as the side) fitted
    the same models to the same G2 bits, iterations, evaluations and
    mu_hat bytes."""
    first, *rest = fits.values()
    return all(
        first.keys() == other.keys() and all(
            first[m]["G2"].hex() == other[m]["G2"].hex()
            and all(first[m][k] == other[m][k] for k in FIT_FIELDS)
            for m in first
        )
        for other in rest
    )


def max_lambda_residual(runs: list) -> float | None:
    """The largest lambda_residual of any fit in any of a side's runs; None
    when no fit recovered effects.  It is left out of identical, since
    effects may move by rounding while every fit keeps its bits."""
    return max(
        (f["lambda_residual"] for run in runs for f in run["fits"].values()
         if f["lambda_residual"] is not None),
        default=None,
    )


def _medians(runs: dict, keys) -> dict:
    """Per key, each side's median over its runs."""
    return {key: {side: statistics.median(run[key] for run in runs[side])
                  for side in SIDES}
            for key in keys}


def fit_all_record(runs: dict, levels: int) -> dict:
    """The --fit-all entry of the record from every run of each side (side
    -> list of FIT_ALL_SCRIPT outputs).  The fits and sums shown are those
    of each side's first run; median holds each side's median time, and
    identical compares every run of both sides."""
    first = {side: runs[side][0]["fits"] for side in SIDES}
    every = {f"{side}{i}": run["fits"]
             for side in SIDES for i, run in enumerate(runs[side])}
    return {
        "table": f"bench/workloads.synthetic_table(3, {levels}), "
                 "fit_all at the default tol",
        "fit_all_s": {side: [r["fit_all_s"] for r in runs[side]]
                      for side in SIDES},
        "fit_all_cal": {side: [r["fit_all_cal"] for r in runs[side]]
                        for side in SIDES},
        "median": _medians(runs, ("fit_all_s", "fit_all_cal")),
        "iterations": {side: sum(f["iterations"]
                                 for f in first[side].values())
                       for side in SIDES},
        "evaluations": {side: sum(f["evaluations"]
                                  for f in first[side].values())
                        for side in SIDES},
        "max_lambda_residual": {side: max_lambda_residual(runs[side])
                                for side in SIDES},
        "max_abs_g2_change": max(
            abs(first["change"][m]["G2"] - first["parent"][m]["G2"])
            for m in first["parent"]
        ),
        "identical": identical(every),
        "fits": {m: {side: first[side][m] for side in SIDES}
                 for m in first["parent"]},
    }


def assess_record(runs: dict, levels: int) -> dict:
    """The --assess entry of the record from every run of each side (side
    -> list of ASSESS_SCRIPT outputs); median holds each side's median
    times, and identical compares the verdicts of every run of both
    sides."""
    every = [run["sha256"] for side in SIDES for run in runs[side]]
    return {
        "table": f"bench/workloads.synthetic_table(0, {levels}), a first "
                 "and a repeated assess",
        **{key: {side: [run[key] for run in runs[side]] for side in SIDES}
           for key in ASSESS_TIMES},
        "median": _medians(runs, ASSESS_TIMES),
        "identical": len(set(every)) == 1,
        "sha256": every[0],
    }


def face_corpus_record(fits: dict, tables: int,
                       corpus: str = "face_corpus", runs=None) -> dict:
    """The entry of one --face-corpus corpus (a key of FACE_CORPORA) in the
    record, from each side's fits (side -> the corpus script's fits), as
    fits_record compares them."""
    _, (seed, *_), drawn = FACE_CORPORA[corpus]
    return {
        "corpus": f"{tables} tables, {drawn}, default_rng({seed}); every "
                  "catalog model by fit_em at its defaults",
        **fits_record(fits, runs),
    }


def identity_record(fits: dict, runs=None) -> dict:
    """The --face-corpus entry of the built-in identity set
    (IDENTITY_SCRIPT on IDENTITY_DATASETS), from each side's fits, as
    fits_record compares them."""
    return {
        "corpus": f"the built-in tables {', '.join(IDENTITY_DATASETS)}; "
                  "every catalog model by fit_model, and by fit_em at its "
                  "defaults, at max_iter=60 and at tol=1e-14",
        **fits_record(fits, runs),
    }


def fits_record(fits: dict, runs=None) -> dict:
    """How each side's fits (side -> a script's fits) differ: how many fits
    are identical in every field recorded (a float read back from JSON
    equals only its own bits), and in every field but evaluations; which
    lost or gained a certified face, whose G2 rose or dropped beyond
    FACE_CORPUS_G2_TOL, whose converged flag changed, and whose evaluations
    rose or fell, each list of fits in the script's order with its count;
    and each side's total evaluations.  The totals alone would hide a
    change that moves work from some fits to others.  When given every run
    of each side (side -> list of the script's outputs), it holds each
    run's CORPUS_TIMES, each side's median of them and whether every run
    of a side has the fits given for it."""
    parent, change = (fits[side] for side in SIDES)
    same = [m for m in parent if parent[m] == change[m]]
    same_but_evaluations = [
        m for m in parent
        if {**parent[m], "evaluations": 0} == {**change[m], "evaluations": 0}
    ]
    moved = {
        "faces_lost": [m for m in parent if parent[m]["face_cells"]
                       and not change[m]["face_cells"]],
        "faces_gained": [m for m in parent if change[m]["face_cells"]
                         and not parent[m]["face_cells"]],
        "g2_rises": [m for m in parent if change[m]["G2"]
                     > parent[m]["G2"] + FACE_CORPUS_G2_TOL],
        "g2_drops": [m for m in parent if change[m]["G2"]
                     < parent[m]["G2"] - FACE_CORPUS_G2_TOL],
        "converged_changed": [m for m in parent if change[m]["converged"]
                              != parent[m]["converged"]],
    }
    work = {
        "evaluations_rose": [m for m in parent if change[m]["evaluations"]
                             > parent[m]["evaluations"]],
        "evaluations_fell": [m for m in parent if change[m]["evaluations"]
                             < parent[m]["evaluations"]],
    }
    record = {
        "fits": len(parent),
        "identical": len(same),
        "identical_but_evaluations": len(same_but_evaluations),
        **{key: len(labels) for key, labels in (moved | work).items()},
        "evaluations": {side: sum(f["evaluations"]
                                  for f in fits[side].values())
                        for side in SIDES},
        "moved": moved,
        "work": work,
    }
    if runs is not None:
        record.update({key: {side: [run[key] for run in runs[side]]
                             for side in SIDES}
                       for key in CORPUS_TIMES})
        record["median"] = _medians(runs, CORPUS_TIMES)
        record["runs_agree"] = all(run["fits"] == fits[side]
                                   for side in SIDES for run in runs[side])
    return record


def _alternate(checkouts: dict, script: str, *args) -> dict:
    """A script's output in each checkout, run with args in the order
    ALTERNATION."""
    runs = {side: [] for side in SIDES}
    for side in ALTERNATION:
        runs[side].append(_script(checkouts[side], script, *args))
    return runs


def _counts(arg: str) -> tuple:
    name, _, count = arg.partition("=")
    return name, int(count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=_counts, action="append", default=[],
                        metavar="WORKLOAD=N")
    parser.add_argument("--traced", type=_counts, action="append",
                        default=[], metavar="WORKLOAD=N")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--fit-all", action="store_true")
    parser.add_argument("--assess", action="store_true")
    parser.add_argument("--face-corpus", action="store_true")
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower"
             for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = {m["name"]: lower[m["name"]] for m in spec["end_to_end"]}
    doc = {
        "what": args.what,
        "parent": _rev(checkouts["parent"]),
        "change": _rev(checkouts["change"]),
        "src_lines": {side: src_lines(checkouts[side]) for side in SIDES},
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "note": "runs one at a time; no machine setting changed"},
        "command": "python3 bench/run.py --workload <w> --seed <pair> "
                   "--trace <0|1>",
        "runs": {},
    }

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n",
                            encoding="utf-8")

    if args.smoke:
        doc["smoke"] = {side: _bench(checkouts[side], "--smoke")[-1]
                        for side in SIDES}
        save()
    untraced = dict(args.pairs)
    for workload, n in args.pairs:
        pairs = doc["runs"].setdefault(workload, [])
        for seed in range(n):
            pair = {"seed": seed}
            for side in _order(seed):
                lines = _bench(checkouts[side], "--workload", workload,
                               "--seed", seed, "--trace", 0)
                doc["machine"]["numpy"] = lines[0]["environment"]["numpy"]
                pair[side] = {**lines[-1], "op_kernels": op_medians(lines[-2])}
            pairs.append(pair)
            summary = doc.setdefault("summary", {})
            summary[workload] = summarise(pairs, end_to_end)
            save()
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claim"] = claim(doc["summary"], workload, metric, lower[metric])
        save()
    for workload, n in args.traced:
        traced = doc.setdefault("traced", {"runs": []})
        first = untraced.get(workload, 0)
        for seed in range(first, first + n):
            for side in _order(seed):
                lines = _bench(checkouts[side], "--workload", workload,
                               "--seed", seed, "--trace", 1)
                traced["runs"].append(
                    {"workload": workload, "seed": seed, "side": side,
                     **lines[-1]}
                )
            save()
    if args.fit_all:
        runs = _alternate(checkouts, FIT_ALL_SCRIPT, FIT_ALL_LEVELS)
        doc[f"fit_all_{FIT_ALL_LEVELS}cubed"] = fit_all_record(
            runs, FIT_ALL_LEVELS)
        save()
    if args.assess:
        runs = _alternate(checkouts, ASSESS_SCRIPT, ASSESS_LEVELS)
        doc[f"assess_{ASSESS_LEVELS}cubed"] = assess_record(runs,
                                                            ASSESS_LEVELS)
        save()
    if args.face_corpus:
        for corpus, (tables, drawn, _) in FACE_CORPORA.items():
            runs = _alternate(checkouts, FACE_CORPUS_SCRIPT, tables, *drawn)
            doc[corpus] = face_corpus_record(
                {side: runs[side][0]["fits"] for side in SIDES}, tables,
                corpus, runs)
            save()
        runs = _alternate(checkouts, IDENTITY_SCRIPT, *IDENTITY_DATASETS)
        doc["builtin_identity"] = identity_record(
            {side: runs[side][0]["fits"] for side in SIDES}, runs)
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
