"""Run bench/run.py in pairs on two checkouts and write a BENCH_*.json record.

Each pair runs one workload with one seed in the parent checkout and in the
change checkout, one process at a time, with the order alternating: even
seeds run the parent first, odd seeds the change.  The record holds every
run, and per workload and end-to-end metric the median and quartiles of
each side and the number of pairs the change won.  Each run also keeps
its operations' median times in kernels (op_kernels, from the op_kernels
lists of bench/run.py's summary line), and the summary gives each side's
median of them per operation, so a claim shows which operations moved.
A claim names one
workload and metric; it is met when the change wins at least nine pairs in
ten, its median beats the parent's by more than the parent's
interquartile range, every check of every run passes and no more of the
change's operations fail than the parent's.  Each run lasts as long as
bench/run.py's own default, the same on both sides.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs fit-boundary=10 --pairs fit-large=10 \\
        --pairs bootstrap-screen=5 --traced fit-boundary=2 \\
        --claim fit-boundary:run_cal --smoke --fit-all 8 --out BENCH_N.json

Traced pairs (--trace 1) take the seeds after the untraced ones.  --fit-all
L times fit_all on the seeded L x L x L table of bench/workloads.py four
times in each checkout, in the order parent, change, change, parent,
parent, change, change, parent (ALTERNATION), each run between two runs
of the checkout's bench/calibration.small_arrays kernel, and records its
wall time (fit_all_s), its time in kernels (fit_all_cal, as bench/run.py
measures run_cal), each side's median of both, and every fit's G2,
iterations, evaluations, lambda_residual and a sha256 of its mu_hat
bytes; the record's identical flag says whether all eight runs agree bit
for bit in all but lambda_residual, whose largest value each side
reports as max_lambda_residual.  --assess L times a first and a repeated
assess of bench/workloads.synthetic_table(0, L) in each checkout in the
same order, each between two runs of the checkout's
bench/calibration.mixed kernel (Python-level work, as building the
records is), and records both times in seconds and in kernels, with each
side's median; its identical flag says whether all eight verdicts have
the same sha256 of json.dumps(verdict.as_dict()).  The record also holds
src_lines, the lines of src/misstab/*.py in each checkout as wc -l
counts them, so a change that removes code shows its size next to its
runs.  The record is rewritten after every pair, so an interrupted run
keeps what it measured.
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


def _script(checkout: Path, script: str, levels: int) -> dict:
    """The JSON object a script prints, run in a checkout with its src/
    and bench/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src"), str(checkout / "bench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(levels)],
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


def _better(change: float, parent: float, lower: bool) -> bool:
    return change < parent if lower else change > parent


def op_medians(summary_line: dict) -> dict:
    """Each operation's median time in kernels over one run, from the
    op_kernels lists of bench/run.py's summary line."""
    return {op: statistics.median(kernels)
            for op, kernels in summary_line["op_kernels"].items()}


def summarise(pairs: list, metrics: dict) -> dict:
    """Per end-to-end metric: both sides' median and quartiles, the pairs
    the change won and the relative change of the median; per operation,
    when the runs keep op_kernels, each side's median of its runs'
    medians."""
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


def _alternate(checkouts: dict, script: str, levels: int) -> dict:
    """A script's output in each checkout, run in the order ALTERNATION."""
    runs = {side: [] for side in SIDES}
    for side in ALTERNATION:
        runs[side].append(_script(checkouts[side], script, levels))
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
    parser.add_argument("--fit-all", type=int, metavar="LEVELS")
    parser.add_argument("--assess", type=int, metavar="LEVELS")
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
        runs = _alternate(checkouts, FIT_ALL_SCRIPT, args.fit_all)
        doc[f"fit_all_{args.fit_all}cubed"] = fit_all_record(runs,
                                                             args.fit_all)
        save()
    if args.assess:
        runs = _alternate(checkouts, ASSESS_SCRIPT, args.assess)
        doc[f"assess_{args.assess}cubed"] = assess_record(runs, args.assess)
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
