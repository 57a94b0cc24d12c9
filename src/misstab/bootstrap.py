"""Parametric bootstrap validation of mechanism assessments.

Replicate tables are drawn from the fitted expectations of a chosen model
(one multinomial of size N across every observed cell, or independent
Poisson draws behind a flag), each replicate is re-assessed, and the share
of replicates whose suggested class is MAR is reported per missing
variable and overall.  Replicates are drawn as flat observed-cell vectors
and screened a block at a time on the schema's screening plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError
from .fitting import FitResult, fit_model
from .models import observation_map, observed_counts
from .odds import screening_plan
from .tables import IncompleteTable, Stratum

MODE_MULTINOMIAL = "multinomial"
MODE_POISSON = "poisson"
_MODES = (MODE_MULTINOMIAL, MODE_POISSON)


def _sampler(fit: FitResult, table: IncompleteTable, mode: str):
    """A function drawing one replicate's observed counts (flat, in
    pattern order) from a generator, refusing degenerate models."""
    if mode not in _MODES:
        raise ComputationError(f"unknown resampling mode {mode}")
    expectations = observation_map(table.schema).collapse(fit.mu_hat)
    if np.any((expectations < 1e-12) & (observed_counts(table) > 0)):
        raise ComputationError(
            f"model {fit.model_id} gives zero expectation to an"
            " observed nonempty cell; cannot generate replicates"
        )
    if mode == MODE_POISSON:
        return lambda rng: rng.poisson(expectations)
    total = expectations.sum()
    if total <= 0:
        raise ComputationError("fitted expectations sum to zero")
    n, p = table.N, expectations / total
    return lambda rng: rng.multinomial(n, p)


def resample(
    fit: FitResult,
    table: IncompleteTable,
    rng: np.random.Generator,
    mode: str = MODE_MULTINOMIAL,
) -> IncompleteTable:
    """One replicate table drawn from the fitted observed-cell expectations."""
    draw = _sampler(fit, table, mode)(rng)
    pieces = observation_map(table.schema).split(draw)
    strata = tuple(
        Stratum(st.observed, part) for st, part in zip(table.strata, pieces)
    )
    return IncompleteTable(table.schema, strata)


@dataclass(frozen=True)
class FamilyBootstrap:
    """Replicate tallies of one missing variable.  An excluded replicate
    has an undefined non-response odds (n_undefined_value), a check with
    no defined response odds (n_undefined_interval), or both.  With no
    replicate counted, percent_mar is NaN and as_dict() gives None."""

    variable: str
    n_counted: int
    n_excluded: int
    n_mar: int
    n_undefined_value: int
    n_undefined_interval: int

    @property
    def percent_mar(self) -> float:
        if self.n_counted == 0:
            return float("nan")
        return 100.0 * self.n_mar / self.n_counted

    def as_dict(self) -> dict:
        return {
            "variable": self.variable,
            "counted": self.n_counted,
            "excluded": self.n_excluded,
            "mar": self.n_mar,
            "percent_mar": self.percent_mar if self.n_counted else None,
            "excluded_undefined_value": self.n_undefined_value,
            "excluded_undefined_interval": self.n_undefined_interval,
        }


@dataclass(frozen=True)
class BootstrapSummary:
    """Replicate tallies per missing variable and overall.  draw_s and
    screen_s are the seconds spent drawing and screening replicates; they
    vary from run to run, so they stay out of equality and as_dict().
    percent_mar is NaN, and None in as_dict(), when nothing is counted."""

    model_id: str
    n_replicates: int
    mode: str
    seed: object
    families: tuple
    overall_counted: int
    overall_excluded: int
    overall_mar: int
    draw_s: float = field(compare=False)
    screen_s: float = field(compare=False)

    @property
    def percent_mar(self) -> float:
        if self.overall_counted == 0:
            return float("nan")
        return 100.0 * self.overall_mar / self.overall_counted

    def family(self, variable: str) -> FamilyBootstrap:
        for fam in self.families:
            if fam.variable == variable:
                return fam
        raise KeyError(variable)

    def as_dict(self) -> dict:
        return {
            "model": self.model_id,
            "replicates": self.n_replicates,
            "mode": self.mode,
            "families": [f.as_dict() for f in self.families],
            "overall": {
                "counted": self.overall_counted,
                "excluded": self.overall_excluded,
                "mar": self.overall_mar,
                "percent_mar": (
                    self.percent_mar if self.overall_counted else None
                ),
            },
        }


def bootstrap_assess(
    table: IncompleteTable,
    model,
    n_replicates: int = 1000,
    seed=None,
    mode: str = MODE_MULTINOMIAL,
    fit: FitResult | None = None,
) -> BootstrapSummary:
    """Share of model-generated replicates whose assessment suggests MAR.

    A replicate counts toward a variable's percentage only when every
    check for that variable is defined; replicates with any undefined
    check (a zero count in an odds) are excluded and tallied.  The
    overall percentage applies the same rule across all variables.
    Seeding uses one spawned child stream per replicate, so results are
    reproducible for a given (seed, n_replicates).
    """
    if n_replicates < 1:
        raise ComputationError("n_replicates must be >= 1")
    if fit is None:
        fit = fit_model(model, table)
    draw = _sampler(fit, table, mode)
    plan = screening_plan(table.schema)
    missing = table.schema.missing
    # spawning a block at a time yields the same children as spawning all
    # n_replicates at once, without holding them all
    root = np.random.SeedSequence(seed)
    # per family: counted, MAR, undefined value, undefined interval
    tally = np.zeros((len(missing), 4), dtype=np.int64)
    overall_counted = overall_mar = 0
    draw_s = screen_s = 0.0
    for start in range(0, n_replicates, plan.block_rows):
        began = time.perf_counter()
        children = root.spawn(min(plan.block_rows, n_replicates - start))
        block = np.stack(
            [draw(np.random.default_rng(child)) for child in children]
        )
        drawn = time.perf_counter()
        result = plan.screen(block)
        defined = result.defined
        for k in range(len(missing)):
            cols = plan.family == k
            counted = defined[:, cols].all(axis=1)
            tally[k] += (
                counted.sum(),
                (counted & result.outside[:, cols].any(axis=1)).sum(),
                (~result.value_defined[:, cols]).any(axis=1).sum(),
                (~result.interval_defined[:, cols]).any(axis=1).sum(),
            )
        counted = defined.all(axis=1)
        overall_counted += int(counted.sum())
        overall_mar += int((counted & result.outside.any(axis=1)).sum())
        draw_s += drawn - began
        screen_s += time.perf_counter() - drawn
    families = tuple(
        FamilyBootstrap(
            v, int(n), n_replicates - int(n), int(mar), int(value),
            int(interval),
        )
        for v, (n, mar, value, interval) in zip(missing, tally)
    )
    return BootstrapSummary(
        model_id=fit.model_id,
        n_replicates=n_replicates,
        mode=mode,
        seed=seed,
        families=families,
        overall_counted=overall_counted,
        overall_excluded=n_replicates - overall_counted,
        overall_mar=overall_mar,
        draw_s=draw_s,
        screen_s=screen_s,
    )
