"""Regenerate bench/reference.json from the library at the current commit.

    python3 bench/make_reference.py

Pins, per fit of the fit-boundary workload, the G2 and boundary flag of
``fit_model`` at the default tolerance.  For a boundary fit it also pins
``limit``: the G2 where EM stops moving (relative tolerance 1e-300, so
the loop ends only when the log-likelihood no longer changes).  That value
lies 0.06e-6 to 1.4e-6 below the stop at tol=1e-14, so a solver that
reaches the boundary limit stays inside the check's lower margin.  For
bootstrap-screen it pins the tallies at the default seed for the timed and
the smoke replicate counts.  Regenerate only when a change is meant to
move these values, and say why in CHANGES.md.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import misstab  # noqa: E402
from workloads import BootstrapScreen, FitBoundary  # noqa: E402

SEED = 0


def fit_pins():
    out = {}
    for ds in FitBoundary.DATASETS:
        table = misstab.builtin_dataset(ds)
        pins = {}
        for model in misstab.enumerate_models(table.schema):
            fit = misstab.fit_model(model, table)
            pin = {"G2": fit.G2, "boundary": fit.boundary}
            if fit.boundary:
                pin["limit"] = misstab.fit_em(
                    model, table, tol=1e-300, max_iter=100000
                ).G2
            pins[model.id] = pin
        out[ds] = pins
    return out


def bootstrap_pins():
    out = {}
    for n in (BootstrapScreen.REPLICATES, BootstrapScreen.SMOKE_REPLICATES):
        for ds, model in BootstrapScreen.CONFIGS:
            s = misstab.bootstrap_assess(
                misstab.builtin_dataset(ds), model, n_replicates=n, seed=SEED
            )
            out[f"{ds} {model} {n}"] = {
                "families": [
                    [f.variable, f.n_counted, f.n_excluded, f.n_mar]
                    for f in s.families
                ],
                "overall": [s.overall_counted, s.overall_excluded,
                            s.overall_mar],
            }
    return out


def main():
    doc = {
        "fit-boundary": fit_pins(),
        "bootstrap-screen": {"seed": SEED, "tallies": bootstrap_pins()},
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
