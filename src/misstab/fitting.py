"""Maximum likelihood fitting of non-response models.

Every model is fitted to the full cross of substantive variables by
recording indicators.  Where an explicit solution exists and stays strictly
positive it is used directly; otherwise an expectation-maximization loop
distributes each supplemental count over the cells it collapses, then
rescales the working table to the model's sufficient margins by iterative
proportional fitting.  Fit quality is the deviance of the observed strata
against the collapsed fitted expectations, with tail probabilities from the
chi-square survival function.  The E step, the deviance and the fitted
strata all collapse the cross through the schema's one observation map
(models.observation_map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .errors import ComputationError, TableError
from .models import (
    DF_CONVENTIONS,
    DF_POISSON_CELLS,
    MECH_MAR,
    NonresponseModel,
    degrees_of_freedom,
    enumerate_models,
    full_cross_dims,
    generating_class,
    get_model,
    indicator_factor,
    is_perfect_fit,
    factor_axes,
    observation_map,
    observed_counts,
    parameter_count,
)
from .odds import screening_plan
from .tables import IncompleteTable, TableSchema, pattern_label

BOUNDARY_PROB = 1e-8  # fitted cell probability below this flags a boundary

METHOD_CLOSED = "closed-form"
METHOD_EM = "em"


def collapse_cross(mu: np.ndarray, schema: TableSchema, pattern):
    """Fitted expectations for one stratum: fix the indicator levels and
    sum out the unrecorded substantive axes."""
    unobs = set(pattern)
    if not unobs <= set(schema.missing):
        label = pattern_label(sorted(unobs))
        raise TableError(f"no stratum for pattern {label}")
    omap = observation_map(schema)
    pat = tuple(m for m in schema.missing if m in unobs)
    return omap.split(omap.collapse(mu))[omap.patterns.index(pat)]


def _positive_cells(mu, table):
    """Nonzero observed counts with their collapsed fit, or None when the
    fit gives one of those cells zero expectation."""
    y = observed_counts(table)
    c = observation_map(table.schema).collapse(mu)
    mask = y > 0
    if not np.all(c[mask] > 0):
        return None
    return y[mask], c[mask]


def _loglik(mu: np.ndarray, table: IncompleteTable) -> float:
    cells = _positive_cells(mu, table)
    if cells is None:
        return float("-inf")
    y, c = cells
    return -float(mu.sum()) + float((y * np.log(c)).sum())


def _e_step(mu, table):
    omap = observation_map(table.schema)
    idx = omap.obs_index
    c = omap.collapse(mu)[idx]
    # a count whose collapsed fit is zero is spread evenly over its cells
    share = np.where(
        c > 0,
        np.ravel(mu) / np.where(c > 0, c, 1.0),
        1.0 / omap.cells_per_obs[idx],
    )
    return (observed_counts(table)[idx] * share).reshape(mu.shape)


def _margin_axes(schema: TableSchema, terms) -> tuple:
    axes = factor_axes(schema)
    ndim = len(full_cross_dims(schema))
    out = []
    for term in terms:
        keep = {axes[f] for f in term}
        out.append(tuple(a for a in range(ndim) if a not in keep))
    return tuple(out)


def _ipf(mu, z, sum_axes_list, rtol=1e-9, max_sweeps=30):
    for _ in range(max_sweeps):
        worst = 0.0
        for sum_axes in sum_axes_list:
            target = z.sum(axis=sum_axes, keepdims=True)
            cur = mu.sum(axis=sum_axes, keepdims=True)
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = np.where(cur > 0, target / np.where(cur > 0, cur, 1.0), 0.0)
            diff = np.max(
                np.abs(target - cur) / np.maximum(target, 1e-300)
            )
            worst = max(worst, float(diff))
            mu = mu * ratio
        if worst < rtol:
            break
    return mu


@dataclass(frozen=True, eq=False)
class FitResult:
    """A fitted non-response model.

    mu_hat covers the complete cross (substantive axes then indicator
    axes); pi_hat is mu_hat / N.  lambda_hat maps each term to its
    sum-to-zero effect array and is None when a fitted cell sits on the
    zero boundary.  G2 compares observed strata with the collapsed fit.
    """

    model_id: str
    model: NonresponseModel
    schema: TableSchema
    n_params: int
    mu_hat: np.ndarray
    pi_hat: np.ndarray
    lambda_hat: dict | None
    lambda_residual: float | None
    G2: float
    df: int
    df_convention: str
    p_value: float
    aic: float
    bic: float
    converged: bool
    boundary: bool
    iterations: int
    method: str
    perfect_fit: bool
    loglik_trace: tuple

    def fitted_strata(self) -> dict:
        """Collapsed fitted expectations keyed by missingness pattern."""
        omap = observation_map(self.schema)
        return dict(zip(omap.patterns, omap.split(omap.collapse(self.mu_hat))))


def g_squared(fit: FitResult, table: IncompleteTable) -> float:
    """Deviance of the observed strata against the collapsed fit."""
    return _g2_from_mu(fit.mu_hat, table)


def _g2_from_mu(mu, table) -> float:
    cells = _positive_cells(mu, table)
    if cells is None:
        return float("inf")
    y, c = cells
    return max(2.0 * float((y * np.log(y / c)).sum()), 0.0)


def chi_square_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X > x) for integer df >= 1."""
    if not isinstance(df, (int, np.integer)) or isinstance(df, bool):
        raise ComputationError("df must be a positive integer")
    if df < 1:
        raise ComputationError("df must be a positive integer")
    x = float(x)
    if math.isnan(x) or x < 0:
        raise ComputationError("x must be nonnegative")
    if math.isinf(x):
        return 0.0
    return float(gammaincc(df / 2.0, x / 2.0))


def aic_bic(fit: FitResult, table: IncompleteTable) -> tuple:
    """Deviance-based information criteria (G2 penalized by parameters)."""
    n = table.N
    return (
        fit.G2 + 2.0 * fit.n_params,
        fit.G2 + math.log(n) * fit.n_params,
    )


def _recover_lambda(model, schema, mu):
    """Sum-to-zero effects of log mu, one per model term, and the largest
    cell residual of their sum.

    On the complete cross the sum-to-zero effects are orthogonal ANOVA
    components: a term's effect is the mean of log mu over the axes
    outside it less the effects of its proper subterms, which is that mean
    centred along each of the term's own axes.
    """
    if np.any(mu <= 0):
        return None, None
    logmu = np.log(mu)
    axes = factor_axes(schema)
    lam = {}
    fitted = 0.0
    for term in model.terms:
        inside = [axes[f] for f in term]
        outside = [a for a in range(logmu.ndim) if a not in inside]
        effect = logmu.mean(axis=tuple(outside), keepdims=True)
        for a in inside:
            effect = effect - effect.mean(axis=a, keepdims=True)
        fitted = fitted + effect
        shape = [logmu.shape[a] for a in inside]
        lam[term] = effect.transpose(inside + outside).reshape(shape)
    return lam, float(np.max(np.abs(logmu - fitted)))


def _finalize(
    model,
    schema,
    table,
    mu,
    method,
    converged,
    iterations,
    trace,
    df_convention,
    force_boundary=False,
):
    n = table.N
    mu = np.asarray(mu, dtype=float)
    g2 = _g2_from_mu(mu, table)
    params = parameter_count(model, schema)
    df = degrees_of_freedom(model, schema, df_convention)
    if df == 0:
        p = 1.0
    elif math.isinf(g2):
        p = 0.0
    else:
        p = chi_square_sf(g2, df)
    # a model with as many parameters as observed statistics fits them
    # exactly at any interior maximum, so a visibly imperfect fit means
    # the maximum sits on the boundary of the parameter space
    saturated_miss = is_perfect_fit(model, schema) and g2 > 1e-6
    boundary = bool(
        force_boundary
        or saturated_miss
        or np.any(mu / n < BOUNDARY_PROB)
    )
    lam, resid = _recover_lambda(model, schema, mu)
    pi = mu / n
    pi.flags.writeable = False
    mu_ro = mu.copy()
    mu_ro.flags.writeable = False
    return FitResult(
        model_id=model.id,
        model=model,
        schema=schema,
        n_params=params,
        mu_hat=mu_ro,
        pi_hat=pi,
        lambda_hat=lam,
        lambda_residual=resid,
        G2=g2,
        df=df,
        df_convention=df_convention,
        p_value=p,
        aic=g2 + 2.0 * params,
        bic=g2 + math.log(n) * params,
        converged=converged,
        boundary=boundary,
        iterations=iterations,
        method=method,
        perfect_fit=is_perfect_fit(model, schema),
        loglik_trace=tuple(trace),
    )


def _resolve_model(model, schema):
    if isinstance(model, NonresponseModel):
        return model
    return get_model(schema, str(model))


def fit_em(
    model,
    table: IncompleteTable,
    tol: float = 1e-10,
    max_iter: int = 10000,
    df_convention: str = DF_POISSON_CELLS,
    init: str = "uniform",
    seed=None,
) -> FitResult:
    """Expectation-maximization fit from a deterministic uniform start.

    The E step spreads each supplemental count over the cells it collapses
    in proportion to the current fit; the M step rescales to the model's
    sufficient margins by iterative proportional fitting.  Iteration stops
    when the relative change of the observed-data log-likelihood drops
    below tol.  init="perturbed" (with a seed) jitters the start
    multiplicatively to probe for multiple modes.
    """
    schema = table.schema
    if not schema.is_analysis_shape:
        raise TableError(f"shape {schema.shape} cannot be fitted")
    model = _resolve_model(model, schema)
    if df_convention not in DF_CONVENTIONS:
        raise TableError(f"unknown df convention {df_convention}")
    if tol <= 0 or max_iter < 1:
        raise ComputationError("tol must be positive and max_iter >= 1")
    dims = full_cross_dims(schema)
    n = table.N
    if n == 0:
        raise ComputationError("empty table cannot be fitted")
    mu = np.full(dims, n / float(np.prod(dims)))
    if init == "perturbed":
        # the jitter must stay inside the model's log-linear span, or the
        # multiplicative updates would carry the extra interactions forever
        rng = np.random.default_rng(seed)
        axes = factor_axes(schema)
        for term in model.terms:
            inside = {axes[f] for f in term}
            shape = [d if a in inside else 1 for a, d in enumerate(dims)]
            mu = mu * np.exp(0.05 * rng.standard_normal(shape))
        mu *= n / mu.sum()
    elif init != "uniform":
        raise ComputationError(f"unknown init mode {init}")
    sum_axes_list = _margin_axes(schema, generating_class(model))
    trace = []
    prev = None
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        z = _e_step(mu, table)
        mu = _ipf(mu, z, sum_axes_list)
        ll = _loglik(mu, table)
        trace.append(ll)
        iterations = it
        if prev is not None and math.isfinite(ll):
            if abs(ll - prev) <= tol * (abs(prev) + 1.0):
                converged = True
                break
        prev = ll
    # the likelihood can flatten out while a cell still decays toward
    # zero; one extra step exposes that drift so the boundary is flagged
    probe = _ipf(mu, _e_step(mu, table), sum_axes_list)
    small = mu / n < 1e-4
    drifting = bool(np.any(small & (probe < 0.999 * mu)))
    return _finalize(
        model,
        schema,
        table,
        mu,
        METHOD_EM,
        converged,
        iterations,
        trace,
        df_convention,
        force_boundary=drifting,
    )


# ---------------------------------------------------------------------------
# Explicit solutions.

def _positive(arr) -> bool:
    return bool(np.all(np.asarray(arr) > 0))


def _tilt_solve(weight, target):
    """Solve sum_i weight[i, j] * s[i] = target[j] for strictly positive s.

    Returns None unless the system is square, solvable, and positive.
    """
    weight = np.asarray(weight, dtype=float)
    target = np.asarray(target, dtype=float)
    if weight.shape[0] != weight.shape[1]:
        return None
    try:
        s = np.linalg.solve(weight.T, target)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(s)) or not np.all(s > 0):
        return None
    return s


def _assemble_mshape(mu11, mu21, mu12, mu22):
    mu = np.zeros(mu11.shape + (2, 2))
    mu[:, :, 0, 0] = mu11
    mu[:, :, 1, 0] = mu21
    mu[:, :, 0, 1] = mu12
    mu[:, :, 1, 1] = mu22
    return mu


def _both_missing_block(weights, total):
    wsum = weights.sum()
    if total == 0:
        return np.zeros_like(weights)
    if wsum <= 0:
        return None
    return total * weights / wsum


# The two-variable closed forms take the count blocks of the strata in
# pattern order: y11 (both recorded), y21 (first missing), y12 (second
# missing) and y22 (both missing).

def _closed_m5(y11, y21, y12, y22):
    rows = y11.sum(axis=1)
    cols = y11.sum(axis=0)
    if not (_positive(rows) and _positive(cols)):
        return None
    mu21 = y21[None, :] * y11 / cols[None, :]
    mu12 = y12[:, None] * y11 / rows[:, None]
    w = y11 * (y12 / rows)[:, None] * (y21 / cols)[None, :]
    mu22 = _both_missing_block(w, y22)
    if mu22 is None:
        return None
    return _assemble_mshape(y11, mu21, mu12, mu22)


def _closed_m3(y11, y21, y12, y22):
    s = _tilt_solve(y11, y21)
    u = _tilt_solve(y11.T, y12)
    if s is None or u is None:
        return None
    mu21 = y11 * s[:, None]
    mu12 = y11 * u[None, :]
    mu22 = _both_missing_block(y11 * s[:, None] * u[None, :], y22)
    if mu22 is None:
        return None
    return _assemble_mshape(y11, mu21, mu12, mu22)


def _closed_m2(y11, y21, y12, y22):
    rows = y11.sum(axis=1)
    if not _positive(rows):
        return None
    s = _tilt_solve(y11, y21)
    if s is None:
        return None
    mu21 = y11 * s[:, None]
    mu12 = y12[:, None] * y11 / rows[:, None]
    mu22 = _both_missing_block(y11 * s[:, None] * (y12 / rows)[:, None], y22)
    if mu22 is None:
        return None
    return _assemble_mshape(y11, mu21, mu12, mu22)


def _closed_m1(y11, y21, y12, y22):
    rows11 = y11.sum(axis=1)
    tot11 = y11.sum()
    rows1p = rows11 + y12
    tot1p = tot11 + y12.sum()
    if not (_positive(rows11) and tot11 > 0 and tot1p > 0):
        return None
    mu11 = y11 * (rows1p / rows11)[:, None] * (tot11 / tot1p)
    s = _tilt_solve(mu11, y21)
    if s is None:
        return None
    mu21 = mu11 * s[:, None]
    mu12 = mu11 * (y12.sum() / tot11)
    mu22 = _both_missing_block(mu21.copy(), y22)
    if mu22 is None:
        return None
    return _assemble_mshape(mu11, mu21, mu12, mu22)


def _swapped(base):
    """The closed form base with the two variables' roles swapped."""

    def closed(y11, y21, y12, y22):
        mu = base(y11.T, y12, y21, y22)
        return None if mu is None else mu.transpose(1, 0, 3, 2)

    return closed


_TWO_VARIABLE_CLOSED = {
    "M1": _closed_m1,
    "M2": _closed_m2,
    "M3": _closed_m3,
    "M5": _closed_m5,
    "M6": _swapped(_closed_m2),
    "M8": _swapped(_closed_m1),
}


def _closed_c4(table):
    schema = table.schema
    v = schema.missing[0]
    p = schema.index(v)
    full = table.full.counts.astype(float)
    margin = table.stratum({v}).counts.astype(float)
    coll = full.sum(axis=p)
    tot1 = full.sum()
    tot2 = margin.sum()
    grand = tot1 + tot2
    if not _positive(coll) or tot1 <= 0:
        return None
    plus = coll + margin
    factor = np.expand_dims(plus / coll, p)
    mu1 = full * factor * (tot1 / grand)
    dims = full_cross_dims(schema)
    mu = np.zeros(dims)
    mu[..., 0] = mu1
    mu[..., 1] = mu1 * (tot2 / tot1)
    return mu


def fit_closed_form(
    model,
    table: IncompleteTable,
    df_convention: str = DF_POISSON_CELLS,
) -> FitResult | None:
    """Explicit maximum likelihood fit, or None when no interior explicit
    solution applies (the caller should then fall back to fit_em).

    Explicit solutions are available for the two-variable models M1, M2,
    M3, M5, M6, M8 and for the single-missing three-variable model C4.
    The tilted ones (all but M5 and C4) additionally require a square
    substantive cross and a strictly positive tilt solution; a zero
    denominator or a non-positive tilt means the likelihood peaks on the
    boundary and None is returned.
    """
    schema = table.schema
    model = _resolve_model(model, schema)
    if df_convention not in DF_CONVENTIONS:
        raise TableError(f"unknown df convention {df_convention}")
    if model.id == "C4":
        mu = _closed_c4(table)
    elif model.id in _TWO_VARIABLE_CLOSED:
        blocks = (st.counts.astype(float) for st in table.strata)
        mu = _TWO_VARIABLE_CLOSED[model.id](*blocks)
    else:
        return None
    if mu is None:
        return None
    return _finalize(
        model,
        schema,
        table,
        mu,
        METHOD_CLOSED,
        True,
        0,
        (),
        df_convention,
    )


def fit_model(
    model,
    table: IncompleteTable,
    tol: float = 1e-10,
    max_iter: int = 10000,
    df_convention: str = DF_POISSON_CELLS,
    prefer_closed: bool = True,
) -> FitResult:
    """Fit one model, using the explicit solution when it applies."""
    schema = table.schema
    model = _resolve_model(model, schema)
    if prefer_closed:
        closed = fit_closed_form(model, table, df_convention)
        if closed is not None:
            return closed
    return fit_em(
        model,
        table,
        tol=tol,
        max_iter=max_iter,
        df_convention=df_convention,
    )


def fit_all(
    table: IncompleteTable,
    tol: float = 1e-10,
    max_iter: int = 10000,
    df_convention: str = DF_POISSON_CELLS,
    prefer_closed: bool = True,
) -> tuple:
    """Fit the full catalog, ranked by G2 (ties: fewer parameters, id)."""
    fits = [
        fit_model(
            m,
            table,
            tol=tol,
            max_iter=max_iter,
            df_convention=df_convention,
            prefer_closed=prefer_closed,
        )
        for m in enumerate_models(table.schema)
    ]
    fits.sort(key=lambda f: (f.G2, f.n_params, f.model_id))
    return tuple(fits)


def best_non_perfect(fits) -> FitResult | None:
    for f in fits:
        if not f.perfect_fit:
            return f
    return None


# ---------------------------------------------------------------------------
# Model-based odds diagnostics.

def _fitted_odds(fit: FitResult):
    """The schema's screening plan with the fitted odds of its checks.

    The odds read the collapsed fit at the plan's positions: one
    non-response odds per check, and one response odds per check and
    level of the assessed variable (padded like the plan).  An odds is NaN
    where its divisor is 0 or the plan pads the row.
    """
    plan = screening_plan(fit.schema)
    c = observation_map(fit.schema).collapse(fit.mu_hat)

    def odds(num, den, valid=True):
        with np.errstate(all="ignore"):
            return np.where(valid & (c[den] > 0), c[num] / c[den], np.nan)

    return (
        plan,
        odds(plan.value_num, plan.value_den),
        odds(plan.odds_num, plan.odds_den, plan.odds_valid),
    )


def fitted_containment(fit: FitResult) -> tuple:
    """For every containment check, the model-based non-response odds and
    the span of the model-based response odds.

    Returns (assessed, target, pair, conditioning, value, low, high)
    tuples; entries are NaN when a fitted zero makes them undefined.
    """
    plan, value, response = _fitted_odds(fit)
    # a tiny positive divisor can overflow an odds to inf; the span leaves
    # it out, as it does an undefined one
    response[~np.isfinite(response)] = np.nan
    low = np.fmin.reduce(response, axis=1).tolist()
    high = np.fmax.reduce(response, axis=1).tolist()
    return tuple(
        (q.missing_var, q.target, q.pair, q.conditioning, val, lo, hi)
        for q, val, lo, hi in zip(plan.queries, value.tolist(), low, high)
    )


@dataclass(frozen=True)
class MarBoundRecord:
    variable: str
    donor: str
    pair: tuple
    conditioning: tuple
    quantity_max: float
    quantity_min: float
    lower: float
    upper: float
    lambda_difference: float
    classification: str


@dataclass(frozen=True)
class MarBoundReport:
    model_id: str
    applicable: bool
    records: tuple

    @property
    def classification(self) -> str:
        if not self.applicable or not self.records:
            return "not-applicable"
        if all(r.classification == "strong-MAR" for r in self.records):
            return "strong-MAR"
        return "weak-MAR"


def mar_bounds(fit: FitResult) -> MarBoundReport:
    """Bracket test for each MAR mechanism of a fitted model.

    For a variable whose missingness depends on a donor, containment of
    the model-based non-response odds in the span of the model-based
    response odds is equivalent to the donor-by-indicator effect
    difference lying between -log(Q_max)/2 and -log(Q_min)/2, where Q is
    the ratio of the extreme response odds to the non-response odds,
    deflated by the effect difference.  A difference strictly inside the
    bracket is reported as strong-MAR, otherwise weak-MAR; models with no
    MAR mechanism (or a boundary fit) are not applicable.
    """
    mar_vars = [
        (v, m) for v, m in fit.model.mechanisms if m.kind == MECH_MAR
    ]
    if not mar_vars or fit.lambda_hat is None:
        return MarBoundReport(fit.model_id, False, ())
    axes = factor_axes(fit.schema)
    plan, value, response = _fitted_odds(fit)
    value, response = value.tolist(), response.tolist()
    records = []
    for v, mech in mar_vars:
        donor = mech.donor
        rv = indicator_factor(v)
        term = tuple(sorted((donor, rv), key=lambda f: axes[f]))
        lam = fit.lambda_hat.get(term)
        if lam is None:
            continue
        for q, query in enumerate(plan.queries):
            if (query.missing_var, query.target) != (v, donor):
                continue
            a, b = query.pair
            delta = float(lam[b - 1, 1] - lam[a - 1, 1])
            omega = value[q]
            finite = [x for x in response[q] if math.isfinite(x) and x > 0]
            if not finite or not math.isfinite(omega) or omega <= 0:
                continue
            r_max = max(finite)
            r_min = min(finite)
            q_max = (r_max / omega) * math.exp(-2.0 * delta)
            q_min = (r_min / omega) * math.exp(-2.0 * delta)
            lower = -0.5 * math.log(q_max)
            upper = -0.5 * math.log(q_min)
            strong = lower < delta < upper
            records.append(
                MarBoundRecord(
                    variable=v,
                    donor=donor,
                    pair=query.pair,
                    conditioning=query.conditioning,
                    quantity_max=q_max,
                    quantity_min=q_min,
                    lower=lower,
                    upper=upper,
                    lambda_difference=delta,
                    classification="strong-MAR" if strong else "weak-MAR",
                )
            )
    return MarBoundReport(fit.model_id, True, tuple(records))
