"""misstab benchmark: one workload per run, one JSON result as the last line.

    python3 bench/run.py --workload fit-boundary --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --smoke
    python3 bench/run.py --record bench/baseline.json --seed 0 --seconds 30

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, and writes its spans to ``bench/out/``.  ``--smoke``
runs every workload briefly, asserts that every metric in
``BENCHMARK.json`` is emitted with its unit and that every output check
rejects a wrong reference.  ``--record`` runs every workload in both modes,
each in its own process, and writes the results with the environment.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# lstsq on a 4000 x ~1010 design dominates fit-large, so the BLAS thread
# count is fixed for comparable runs; 1 is at most nproc on any machine
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
COLLAPSE_REPEATS = 20
MIB = 1024.0 * 1024.0
LAYERS = ("tables", "odds", "models", "fitting", "bootstrap", "cli")


def _pct(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {
                line.split()[-1]
                for line in fh
                if "openblas" in line and ".so" in line
            }
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "machine": platform.machine(),
    }


def _declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


class Run:
    """One workload for a fixed time, untraced or alternating with traced
    passes.  Every operation of a pass is timed on its own."""

    def __init__(self, workload, seconds, trace):
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.op_s = {key: [] for key, _ in workload.ops}
        self.op_kernels = {key: [] for key, _ in workload.ops}
        self.traced_op_kernels = {key: [] for key, _ in workload.ops}
        self.kernel_s = []
        self.pass_s = []  # complete untraced passes
        self.traced_pass_s = []
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.tracer = None
        self.outputs = {}  # the last output of each operation
        self.probe = {"collapse_us": [], "construct_us": []}

    def _pass(self, traced, deadline=None):
        """Run the operations once; an untraced pass given a deadline may
        stop early once every operation has run at least once.  Outputs
        are checked after the pass, with tracing off.  Each operation runs
        between two runs of the calibration kernel; its time divided by
        their mean is its time in kernels."""
        from calibration import kernel_seconds

        kernels = self.traced_op_kernels if traced else self.op_kernels
        done = []
        if traced:
            self.tracer.label = len(self.traced_pass_s)
            self.tracer.install()
        try:
            before = kernel_seconds(self.w.kernel)
            for key, fn in self.w.ops:
                t0 = time.perf_counter()
                try:
                    output = fn()
                except Exception as exc:  # the operation failed
                    output = exc
                took = time.perf_counter() - t0
                after = kernel_seconds(self.w.kernel)
                kernels[key].append(2.0 * took / (before + after))
                self.kernel_s.append(after)
                if not traced:
                    self.op_s[key].append(took)
                done.append((key, took, output))
                before = after
                if (deadline is not None and time.perf_counter() >= deadline
                        and all(kernels.values())):
                    break
        finally:
            if traced:
                self.tracer.uninstall()
        for key, _, output in done:
            self.attempted += 1
            try:
                if isinstance(output, Exception):
                    raise output
                failed, notes = self.w.check(key, output)
            except Exception as exc:  # raised, or an unreadable output
                failed, notes = 1, [f"{key}: {exc!r}"]
            self.failed += failed
            self.notes.extend(notes)
            self.outputs[key] = output
        if len(done) == len(self.w.ops):
            total = sum(took for _, took, _ in done)
            (self.traced_pass_s if traced else self.pass_s).append(total)
        if traced:
            self._probes()

    def execute(self):
        from spans import Tracer

        deadline = time.perf_counter() + self.seconds
        if not self.trace:
            while time.perf_counter() < deadline or not all(self.op_kernels.values()):
                self._pass(False, deadline)
            return
        self.tracer = Tracer()
        while time.perf_counter() < deadline or not self.traced_pass_s:
            self._pass(len(self.pass_s) > len(self.traced_pass_s))

    @staticmethod
    def _pass_median(per_op):
        """A pass with every operation at its median over the run."""
        return sum(statistics.median(v) for v in per_op.values())

    def _probes(self):
        """Per-call costs timed by the benchmark after a traced pass:
        collapse_cross over every pattern of each fitted mu_hat, and the
        re-construction of each replicate table."""
        import misstab

        for name, _, obj in self.tracer.kept:
            if name == "fitting.fit_model":
                patterns = obj.schema.patterns()
                t0 = time.perf_counter()
                for _ in range(COLLAPSE_REPEATS):
                    for pat in patterns:
                        misstab.collapse_cross(obj.mu_hat, obj.schema, pat)
                took = (time.perf_counter() - t0) / COLLAPSE_REPEATS
                self.probe["collapse_us"].append(took * 1e6)
            elif name == "bootstrap.resample":
                t0 = time.perf_counter()
                misstab.IncompleteTable(obj.schema, obj.strata)
                took = time.perf_counter() - t0
                self.probe["construct_us"].append(took * 1e6)
        self.tracer.kept.clear()

    def end_to_end(self, setup_s):
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (setup_s, "s"),
            "run_cal": (self._pass_median(self.op_kernels), "kernels"),
            "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
        }

    def per_layer(self):
        from spans import layer_of

        passes = len(self.traced_pass_s)
        run_s = self._pass_median(self.op_s)
        spans = [s for s in self.tracer.spans if s[5] is not None
                 and s[5] < passes]
        own = self.tracer.self_times()

        def durs(name, scale):
            return [(s[4] - s[3]) * scale for s in spans if s[2] == name]

        def infos(name):
            return [s[6] for s in spans if s[2] == name and s[6] is not None]

        by_id = {s[0]: s for s in spans}
        em = infos("fitting.fit_em")
        em_iters = sum(i["iterations"] for i in em)
        fits = infos("fitting.fit_model")
        verdicts = infos("odds.assess")
        queries = sum(v["queries"] for v in verdicts)
        summaries = infos("bootstrap.bootstrap_assess")
        replicates = sum(s["replicates"] for s in summaries)
        boot_fit_ms = [
            (s[4] - s[3]) * 1e3
            for s in spans
            if s[2] == "fitting.fit_model"
            and s[1] in by_id
            and by_id[s[1]][2] == "bootstrap.bootstrap_assess"
        ]
        cli_self_ms = [own[s[0]] * 1e3 for s in spans if s[2] == "cli.main"]
        layer_ms = {layer: 0.0 for layer in LAYERS}
        for s in spans:
            layer_ms[layer_of(s[2])] += own[s[0]] * 1e3
        assess_us = durs("odds.assess", 1e6)
        resample_us = durs("bootstrap.resample", 1e6)
        fit_ms = durs("fitting.fit_model", 1e3)

        metrics = {
            "fitting.em_iterations": (em_iters / passes, "count"),
            "fitting.em_ms_per_iter": (
                sum(durs("fitting.fit_em", 1e3)) / em_iters if em_iters else 0.0,
                "ms",
            ),
            "fitting.fit_ms.p50": (_pct(fit_ms, 50), "ms"),
            "fitting.fit_ms.max": (max(fit_ms, default=0.0), "ms"),
            "fitting.boundary_fits": (
                sum(f["boundary"] for f in fits) / passes, "count"),
            "fitting.unconverged_fits": (
                sum(not f["converged"] for f in fits) / passes, "count"),
            "fitting.closed_form_share": (
                sum(f["method"] == "closed-form" for f in fits) / len(fits)
                if fits else 0.0,
                "ratio",
            ),
            "fitting.collapse_us": (_pct(self.probe["collapse_us"], 50), "us"),
            "models.build_design_ms": (
                _pct(durs("models.build_design", 1e3), 50), "ms"),
            "models.design_mib": (
                max((i["bytes"] for i in infos("models.build_design")),
                    default=0) / MIB,
                "MiB",
            ),
            "odds.assess_us.p50": (_pct(assess_us, 50), "us"),
            "odds.assess_us.p99": (_pct(assess_us, 99), "us"),
            "odds.assess_ms": (_pct(assess_us, 50) / 1e3, "ms"),
            "odds.queries": (queries / passes, "count"),
            "odds.undefined_share": (
                sum(v["undefined"] for v in verdicts) / queries
                if queries else 0.0,
                "ratio",
            ),
            "tables.construct_us.p50": (
                _pct(self.probe["construct_us"], 50), "us"),
            "bootstrap.resample_us.p50": (_pct(resample_us, 50), "us"),
            "bootstrap.resample_us.p99": (_pct(resample_us, 99), "us"),
            "bootstrap.excluded_share": (
                sum(s["excluded"] for s in summaries) / replicates
                if replicates else 0.0,
                "ratio",
            ),
            "bootstrap.fit_ms": (sum(boot_fit_ms) / passes, "ms"),
            "cli.overhead_ms": (_pct(cli_self_ms, 50), "ms"),
            "trace.overhead_share": (
                self._pass_median(self.traced_op_kernels)
                / self._pass_median(self.op_kernels) - 1.0,
                "ratio",
            ),
            "run_s": (run_s, "s"),
            "ops_per_s": (self.w.ops_per_pass / run_s, "1/s"),
            "kernel_ms": (statistics.median(self.kernel_s) * 1e3, "ms"),
            "failed_share": (self.failed / max(self.attempted, 1), "ratio"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = (layer_ms[layer] / passes, "ms")
        return metrics

    def summary(self):
        samples = {"passes": len(self.pass_s),
                   "traced_passes": len(self.traced_pass_s)}
        if self.tracer is not None:
            for name in ("fitting.fit_model", "odds.assess",
                         "bootstrap.resample", "cli.main"):
                samples[name] = sum(
                    1 for s in self.tracer.spans
                    if s[2] == name and s[5] is not None
                )
            samples.update({k: len(v) for k, v in self.probe.items()})
        return {
            "workload": self.w.name,
            "run_s": self._pass_median(self.op_s),
            "kernel_ms": statistics.median(self.kernel_s) * 1e3,
            "pass_s": self.pass_s,
            "pass_s_median": (
                statistics.median(self.pass_s) if self.pass_s else None),
            "traced_pass_s": self.traced_pass_s,
            "op_s": {str(k): v for k, v in self.op_s.items()},
            "op_kernels": {str(k): v for k, v in self.op_kernels.items()},
            "samples": samples,
            "failures": self.notes[:20],
        }


def _import_library():
    """Import misstab from the checkout's src/; False if it is absent."""
    src = ROOT / "src"
    if not (src / "misstab" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import misstab

    return Path(misstab.__file__).resolve().parent == (src / "misstab").resolve()


def _import_seconds():
    """Median wall time of a fresh interpreter importing misstab: the
    start-up every CLI call pays."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import misstab"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _load_reference():
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def _setup(workload):
    """Import time plus the median of repeated input builds and warm-ups."""
    import_s = _import_seconds()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return import_s + statistics.median(times)


def run_one(name, seed, seconds, trace, smoke=False):
    import workloads

    workload = workloads.WORKLOADS[name](seed, smoke, _load_reference())
    setup_s = _setup(workload)
    run = Run(workload, seconds, trace)
    run.execute()
    metrics = run.per_layer() if trace else run.end_to_end(setup_s)
    return run, workload, metrics


def _result(run, metrics):
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _write_out(name, seed, trace, env, run):
    OUT.mkdir(exist_ok=True)
    doc = {"environment": env, "seed": seed, "trace": trace,
           "summary": run.summary()}
    if run.tracer is not None:
        doc["trace_spans"] = run.tracer.dump()
        doc["self_s"] = run.tracer.self_times()
    path = OUT / f"{name}-trace{trace}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")


def smoke():
    """Short runs asserting the metric set and that every check can fail."""
    import workloads

    end_to_end, per_layer = _declared_metrics()
    problems = []
    for name in workloads.WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            run, workload, metrics = run_one(name, 0, 0.0, trace, smoke=True)
            emitted = {k: u for k, (_, u) in metrics.items()}
            for metric, unit in declared.items():
                if emitted.get(metric) != unit:
                    problems.append(
                        f"{name} trace={trace}: {metric} emitted with unit "
                        f"{emitted.get(metric)!r}, declared {unit!r}")
            if run.failed:
                problems.append(f"{name}: checks failed: {run.notes}")
        for label, mutate in workload.mutations():
            wrong = copy.copy(workload)
            wrong.ref = copy.deepcopy(workload.ref)
            mutate(wrong.ref)
            failed = sum(wrong.check(key, output)[0]
                         for key, output in run.outputs.items())
            if failed == 0:
                problems.append(f"{name}: check {label!r} accepted a wrong "
                                "reference")
            else:
                print(f"{name}: check {label!r} rejects a wrong reference")
    for p in problems:
        print("SMOKE FAIL:", p, file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok"}))
    return 1 if problems else 0


def record(path, seed, seconds):
    """Every workload in both modes, each in a fresh process."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900, check=True)
            lines = proc.stdout.strip().splitlines()
            results[f"{name} trace={trace}"] = {
                "summary": json.loads(lines[-2]),
                "result": json.loads(lines[-1]),
            }
    doc = {
        "command": "python3 bench/run.py --workload <name> --seed "
                   f"{seed} --seconds {seconds} --trace <0|1>",
        "environment": environment(),
        "results": results,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", metavar="PATH")
    args = parser.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("MISSTAB_TOL", None)  # the CLI would read it
    if not _import_library():
        print(f"error: no misstab package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    if args.smoke:
        return smoke()
    if args.record:
        return record(args.record, args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {list(workloads.WORKLOADS)}")
    env = environment()
    run, _, metrics = run_one(args.workload, args.seed, args.seconds,
                              args.trace)
    _write_out(args.workload, args.seed, args.trace, env, run)
    print(json.dumps({"environment": env}))
    print(json.dumps(run.summary()))
    print(json.dumps(_result(run, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
