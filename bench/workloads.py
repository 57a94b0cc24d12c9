"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then offers
``ops``: the operations of one pass, as (key, callable) pairs.  The runner
times each operation on its own, against the workload's calibration
``kernel``, and checks its output with ``check``, outside the timed
section.  Calls into the library go through module
attributes (``misstab.cli.main``, ``misstab.fit_model``, ...) so that a
traced run sees them.  ``ref`` holds everything a check compares against;
``mutations`` lists wrong references that the checks must reject.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import numpy as np

import calibration
import misstab
import misstab.cli
import screen

BOUNDARY_LOW_MARGIN = 1e-6  # below the boundary limit
BOUNDARY_HIGH_MARGIN = 1e-3  # above the pinned value
INTERIOR_G2_TOL = 1e-6


def cli(argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = misstab.cli.main(argv)
    return code, buf.getvalue()


class FitBoundary:
    """``misstab fit <ds> --model <M> --format json`` for every catalog
    member of the two two-variable tables.

    One CLI call per fit keeps each timed operation under about 4 s; the
    fits are those of ``misstab fit <ds>``.  The inputs are the packaged
    tables in a fixed order, so the seed changes nothing.
    """

    name = "fit-boundary"
    kernel = staticmethod(calibration.small_arrays)
    DATASETS = ("bone-density", "smoking-birthweight")

    def __init__(self, seed, smoke, ref):
        self.ref = copy.deepcopy(ref["fit-boundary"])
        datasets = self.DATASETS[1:] if smoke else self.DATASETS
        self.ops = [
            ((ds, model), self._fit(ds, model))
            for ds in datasets
            for model in self.ref[ds]
        ]
        self.ops_per_pass = len(self.ops)

    @staticmethod
    def _fit(ds, model):
        return lambda: cli(["fit", ds, "--model", model, "--format", "json"])

    def setup(self):
        code, _ = cli(["fit", "spo-y1", "--format", "json"])
        if code != 0:
            raise RuntimeError("warm-up fit failed")

    def check(self, key, output):
        ds, model = key
        code, text = output
        if code != 0:
            return 1, [f"{ds} {model}: exit code {code}"]
        row = json.loads(text)["fits"][0]
        bad = self._fit_problem(self.ref[ds][model], row)
        return int(bad is not None), [f"{ds} {model}: {bad}"] if bad else []

    @staticmethod
    def _fit_problem(pin, row):
        if row["boundary"] != pin["boundary"]:
            return f"boundary flag {row['boundary']}, pinned {pin['boundary']}"
        g2 = row["G2"]
        if pin["boundary"]:
            low = pin["limit"] - BOUNDARY_LOW_MARGIN
            high = pin["G2"] + BOUNDARY_HIGH_MARGIN
            if not low <= g2 <= high:
                return f"G2 {g2!r} outside [{low!r}, {high!r}]"
        elif abs(g2 - pin["G2"]) > INTERIOR_G2_TOL:
            return f"G2 {g2!r}, pinned {pin['G2']!r}"
        return None

    def mutations(self):
        ds = self.ops[0][0][0]
        pins = self.ref[ds]
        interior = next(m for m, p in pins.items() if not p["boundary"])
        boundary = next(m for m, p in pins.items() if p["boundary"])

        def shift_interior(ref):
            ref[ds][interior]["G2"] += 10 * INTERIOR_G2_TOL

        def raise_limit(ref):
            pin = ref[ds][boundary]
            pin["limit"] = pin["G2"] + 2 * BOUNDARY_HIGH_MARGIN

        def lower_pinned_value(ref):
            pin = ref[ds][boundary]
            pin["G2"] = pin["limit"] - 2 * BOUNDARY_HIGH_MARGIN

        def flip_flag(ref):
            ref[ds][interior]["boundary"] = True
            ref[ds][interior]["limit"] = ref[ds][interior]["G2"]

        return [("interior G2", shift_interior),
                ("boundary limit", raise_limit),
                ("boundary pinned value", lower_pinned_value),
                ("boundary flag", flip_flag)]


def synthetic_table(seed, levels):
    """levels^3 table with the first two variables missing; every observed
    cell is Poisson with mean 50."""
    rng = np.random.default_rng(seed)
    schema = misstab.TableSchema(
        (("y1", levels), ("y2", levels), ("y3", levels)),
        missing=("y1", "y2"),
    )
    strata = []
    for pattern in schema.patterns():
        observed = schema.observed_for(pattern)
        counts = rng.poisson(50, size=(levels,) * len(observed))
        strata.append(misstab.Stratum(observed, counts))
    return misstab.IncompleteTable(schema, tuple(strata))


class FitLarge:
    """``assess`` once, then ``fit_model`` for every catalog member without
    an NMAR mechanism, on a seeded 10x10x10 table with two missing
    variables."""

    name = "fit-large"
    kernel = staticmethod(calibration.linear_algebra)

    def __init__(self, seed, smoke, ref):
        self.seed = seed
        self.levels = 4 if smoke else 10
        self.ref = {
            "boundary": False,
            "converged": True,
            "lambda_residual_max": 1e-8,
            "memberships": None,  # derived once, at the first check
        }
        self.table = None
        self.ops = []
        self.ops_per_pass = 0

    def setup(self):
        table = synthetic_table(self.seed, self.levels)
        models = [
            m
            for m in misstab.enumerate_models(table.schema)
            if all(mech.kind != misstab.MECH_NMAR for _, mech in m.mechanisms)
        ]
        self.table = table
        self.ops = [("assess", lambda: misstab.assess(table))] + [
            (m.id, lambda m=m: misstab.fit_model(m, table)) for m in models
        ]
        self.ops_per_pass = len(models)
        small = misstab.builtin_dataset("spo-y1y2")
        misstab.assess(small)
        misstab.fit_model(models[0].id, small)

    def check(self, key, output):
        if key == "assess":
            if self.ref["memberships"] is None:
                self.ref["memberships"] = screen.memberships(self.table)
            want = self.ref["memberships"]
            got = [
                (r.query.missing_var, r.query.target, tuple(r.query.pair),
                 tuple(r.query.conditioning), r.membership)
                for r in output.records
            ]
            if got == want:
                return 0, []
            diff = sum(a != b for a, b in zip(got, want)) + abs(
                len(got) - len(want))
            return 1, [f"assess: {diff} of {len(want)} memberships differ "
                       "from the re-derivation"]
        resid = output.lambda_residual
        if (
            output.boundary != self.ref["boundary"]
            or output.converged != self.ref["converged"]
            or resid is None
            or resid > self.ref["lambda_residual_max"]
        ):
            return 1, [f"{key}: boundary={output.boundary} "
                       f"converged={output.converged} lambda_residual={resid}"]
        return 0, []

    def mutations(self):
        def flip_membership(ref):
            v, t, pair, cond, status = ref["memberships"][0]
            other = "inside" if status != "inside" else "outside"
            ref["memberships"][0] = (v, t, pair, cond, other)

        return [
            ("membership", flip_membership),
            ("boundary", lambda ref: ref.update(boundary=True)),
            ("converged", lambda ref: ref.update(converged=False)),
            ("lambda residual",
             lambda ref: ref.update(lambda_residual_max=-1.0)),
        ]


class BootstrapScreen:
    """``misstab bootstrap <ds> --model <M> --seed <s> --format json`` on the
    four criterion-6 configurations."""

    name = "bootstrap-screen"
    kernel = staticmethod(calibration.mixed)
    CONFIGS = (
        ("smoking-birthweight", "M4"),
        ("bone-density", "M5"),
        ("spo-y1", "C3"),
        ("spo-y1y2", "D6:Y1=NMAR,Y2=MAR(Y3)"),
    )
    REPLICATES = 500
    SMOKE_REPLICATES = 20
    PREFIX = 25  # replicates re-derived independently at any seed

    def __init__(self, seed, smoke, ref):
        self.seed = seed
        n = self.SMOKE_REPLICATES if smoke else self.REPLICATES
        pins = ref["bootstrap-screen"]
        self.ref = {
            "replicates": n,
            "pinned": pins["tallies"] if seed == pins["seed"] else {},
            "prefix": {},  # per configuration, derived at its first check
            "first": {},  # per configuration, the first call's tallies
        }
        self.ops = [
            (f"{ds} {model}", lambda argv=self._argv(ds, model, n): cli(argv))
            for ds, model in self.CONFIGS
        ]
        self.ops_per_pass = len(self.CONFIGS) * n

    def _argv(self, ds, model, replicates):
        return ["bootstrap", ds, "--model", model, "--seed", str(self.seed),
                "--replicates", str(replicates), "--format", "json"]

    def setup(self):
        code, _ = cli(self._argv(*self.CONFIGS[0], 5))
        if code != 0:
            raise RuntimeError("warm-up bootstrap failed")

    @staticmethod
    def _tallies(payload):
        return {
            "families": [
                [f["variable"], f["counted"], f["excluded"], f["mar"]]
                for f in payload["families"]
            ],
            "overall": [
                payload["overall"][k] for k in ("counted", "excluded", "mar")
            ],
        }

    def _prefix_tallies(self, key):
        """The tallies of the first PREFIX replicates from the CLI and from
        an independent screen of the same draws."""
        ds, model = key.split(" ", 1)
        code, text = cli(self._argv(ds, model, self.PREFIX))
        table = misstab.builtin_dataset(ds)
        fit = misstab.fit_model(model, table)
        children = np.random.SeedSequence(self.seed).spawn(self.PREFIX)
        reps = [
            misstab.resample(fit, table, np.random.default_rng(c))
            for c in children
        ]
        cli_tallies = self._tallies(json.loads(text)) if code == 0 else None
        return [cli_tallies, screen.tallies(reps, table.schema.missing)]

    def check(self, key, output):
        code, text = output
        if code != 0:
            return 1, [f"{key}: exit code {code}"]
        got = self._tallies(json.loads(text))
        if key not in self.ref["prefix"]:
            self.ref["prefix"][key] = self._prefix_tallies(key)
        self.ref["first"].setdefault(key, got)
        problem = self._problem(key, got)
        return int(problem is not None), [f"{key}: {problem}"] if problem else []

    def _problem(self, key, got):
        n = self.ref["replicates"]
        rows = [f[1:3] for f in got["families"]] + [got["overall"][:2]]
        if any(counted + excluded != n for counted, excluded in rows):
            return "counted + excluded differs from the replicate count"
        pinned = self.ref["pinned"].get(f"{key} {n}")
        if pinned is not None and got != pinned:
            return f"tallies {got} differ from pinned {pinned}"
        first = self.ref["first"][key]
        if got != first:
            return f"tallies {got} differ from the first call's {first}"
        cli_prefix, own_prefix = self.ref["prefix"][key]
        if cli_prefix != own_prefix:
            return (f"first {self.PREFIX} replicates give {cli_prefix}, "
                    f"the independent screen gives {own_prefix}")
        return None

    def mutations(self):
        key = self.ops[0][0]

        def shift_pinned(ref):
            ref["pinned"][f"{key} {ref['replicates']}"]["overall"][2] += 1

        def shift_first(ref):
            ref["first"][key]["overall"][2] += 1

        def shift_prefix(ref):
            ref["prefix"][key][1]["overall"][2] += 1

        return [
            ("pinned tallies", shift_pinned),
            ("replicate count",
             lambda ref: ref.update(replicates=ref["replicates"] + 1)),
            ("first call", shift_first),
            ("independent screen", shift_prefix),
        ]


WORKLOADS = {w.name: w for w in (FitBoundary, FitLarge, BootstrapScreen)}
