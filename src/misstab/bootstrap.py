"""Parametric bootstrap validation of mechanism assessments.

Replicate tables are drawn from the fitted expectations of a chosen model
(one multinomial of size N across every observed cell, or independent
Poisson draws behind a flag), each replicate is re-assessed, and the share
of replicates whose suggested class is MAR is reported per missing
variable and overall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError
from .fitting import FitResult, fit_model
from .models import observation_map, observed_counts
from .odds import CLASS_MAR, assess
from .tables import IncompleteTable, Stratum

MODE_MULTINOMIAL = "multinomial"
MODE_POISSON = "poisson"
_MODES = (MODE_MULTINOMIAL, MODE_POISSON)


def _stratum_expectations(fit: FitResult, table: IncompleteTable):
    """Fitted expectations of the observed cells, flat in pattern order,
    refusing degenerate generators."""
    expectations = observation_map(table.schema).collapse(fit.mu_hat)
    if np.any((expectations < 1e-12) & (observed_counts(table) > 0)):
        raise ComputationError(
            f"model {fit.model_id} gives zero expectation to an"
            " observed nonempty cell; cannot generate replicates"
        )
    return expectations


def resample(
    fit: FitResult,
    table: IncompleteTable,
    rng: np.random.Generator,
    mode: str = MODE_MULTINOMIAL,
) -> IncompleteTable:
    """One replicate table drawn from the fitted observed-cell expectations."""
    if mode not in _MODES:
        raise ComputationError(f"unknown resampling mode {mode}")
    expectations = _stratum_expectations(fit, table)
    if mode == MODE_MULTINOMIAL:
        total = expectations.sum()
        if total <= 0:
            raise ComputationError("fitted expectations sum to zero")
        draw = rng.multinomial(table.N, expectations / total)
    else:
        draw = rng.poisson(expectations)
    pieces = observation_map(table.schema).split(draw)
    strata = tuple(
        Stratum(st.observed, part) for st, part in zip(table.strata, pieces)
    )
    return IncompleteTable(table.schema, strata)


@dataclass(frozen=True)
class FamilyBootstrap:
    variable: str
    n_counted: int
    n_excluded: int
    n_mar: int

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
            "percent_mar": self.percent_mar,
        }


@dataclass(frozen=True)
class BootstrapSummary:
    model_id: str
    n_replicates: int
    mode: str
    seed: object
    families: tuple
    overall_counted: int
    overall_excluded: int
    overall_mar: int

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
                "percent_mar": self.percent_mar,
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
    children = np.random.SeedSequence(seed).spawn(n_replicates)
    missing = table.schema.missing
    counted = {v: 0 for v in missing}
    excluded = {v: 0 for v in missing}
    mar = {v: 0 for v in missing}
    overall_counted = 0
    overall_excluded = 0
    overall_mar = 0
    for child in children:
        rng = np.random.default_rng(child)
        rep = resample(fit, table, rng, mode=mode)
        verdict = assess(rep)
        all_defined = True
        any_mar = False
        for fam in verdict.families:
            v = fam.variable
            defined = all(
                r.membership != "undefined" for r in fam.records
            )
            if not defined:
                excluded[v] += 1
                all_defined = False
                continue
            counted[v] += 1
            if fam.suggested_class == CLASS_MAR:
                mar[v] += 1
                any_mar = True
        if all_defined:
            overall_counted += 1
            if any_mar:
                overall_mar += 1
        else:
            overall_excluded += 1
    families = tuple(
        FamilyBootstrap(v, counted[v], excluded[v], mar[v]) for v in missing
    )
    return BootstrapSummary(
        model_id=fit.model_id,
        n_replicates=n_replicates,
        mode=mode,
        seed=seed,
        families=families,
        overall_counted=overall_counted,
        overall_excluded=overall_excluded,
        overall_mar=overall_mar,
    )
