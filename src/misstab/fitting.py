"""Maximum likelihood fitting of non-response models.

Every model is fitted to the full cross of substantive variables by
recording indicators.  Where an explicit solution exists and stays strictly
positive it is used directly; otherwise an expectation-maximization loop
distributes each supplemental count over the cells it collapses, then
rescales the working table to the model's sufficient margins by one sweep
of iterative proportional fitting: every iteration is one application of
the ECM map (_EcmMap).  The map is built once per fit and holds, besides
the observation index, the group index of each sufficient margin: each
margin of the E step and of the sweep is a bincount over its group index,
which adds the cells in C order as the observation map's collapse does.
The group indices depend on the cross's shape alone, so each is built
once per shape and margin, read-only, and cached (_margin_group): a refit
and another model with the same margin read the same one.  What the fit
reads from the model's terms alone, the margins' axes, the parameter
count, df and perfect-fit flag, and the plan of the effect recovery, is a
schedule built once per schema and model (_schedule) that holds no
array.  The effects (lambda_hat) are recovered from the same group
indices: each generator's mean of log mu is a bincount over its index,
EM and closed-form fits alike, and each term's effect is its mean less
the effects of its proper subterms, formed in order of term size.  The
map takes and returns iterates (_Iterate): the read-only cross with its
collapse and its E-step margins, computed once and shared by the
log-likelihood, the margin residual, the next map application and, for
the final iterate, the deviance.  The loop calls ufunc reductions
directly on crosses carried flat (an all-positive test is
np.minimum.reduce(x, initial=inf) > 0, a sum is np.add.reduce): on a
cross of a few dozen cells a call costs numpy's dispatch, not
arithmetic, and the method forms, (x > 0).all() or x.sum(), add a
Python-level wrapper to each call for the same bits.  Every unguarded
step runs in the map's one multi-step kernel (_EcmMap.kernel): an EM
iteration and each of a SQUAREM cycle's plain steps and jump step are
one-step calls, and each half of a certification probe is one call of
its steps.  The kernel binds the map's arrays once, runs every E step and
sweep of the call under one error state and tests its output once, at
the end: a zero or NaN cell (a margin cell of the E step under zero
counts, or underflow) stays zero or NaN through every later step, so the
end test sees a failure of any step.  A call that fails is replayed from
its start one step at a time (_steps, _step), and a single step that
fails is swept again with the guards.  So no kept step reads a zero
cell: when a step leaves an exact zero, in the EM phase, the face solve
or a probe of its certification alike, the fit goes on with the map
restricted to the live cells (_EcmMap.restrict), whose collapses and
margins have the full cross's bits, and the E step and the
log-likelihood test nothing.  When the maximum
lies on the boundary, the cells that keep decaying are fixed at zero,
with the rest of each margin cell whose live cells all fall with them,
and the fit is finished on that face of the model by accelerated ECM on
its live cells (fit_em, _decay_zeros, _solve_face).  The decay test,
the face test (_is_face, against the same group indices), the
certification's checkpoints and the result read the full cross.  Fit
quality is the deviance of the observed strata against the collapsed
fitted expectations, with tail probabilities from the chi-square
survival function in closed form for integer df: a finite Poisson sum
for even df, erfc plus a finite sum for odd df, its terms formed by
their ratio (chi_square_sf, standard library only).  The E step, the
deviance and the fitted strata all collapse the cross through the
schema's one observation map (models.observation_map), the map by a
bincount over its index.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ComputationError, TableError
from .models import (
    DF_POISSON_CELLS,
    MECH_MAR,
    MECH_MCAR,
    MECH_NMAR,
    SCHEMA_CACHE_SIZE,
    NonresponseModel,
    degrees_of_freedom,
    enumerate_models,
    full_cross_dims,
    generating_class,
    get_model,
    is_perfect_fit,
    factor_axes,
    observation_map,
    observed_counts,
    parameter_count,
)
from .odds import screening_plan
from .tables import SHAPE_THREE_ONE, SHAPE_TWO_BOTH, IncompleteTable
from .tables import TableSchema, _is_int, _is_real, indicator_factor
from .tables import pattern_label

BOUNDARY_PROB = 1e-8  # fitted cell probability below this flags a boundary
RANK_DECIMALS = 6  # fit_all ranks G2 rounded to this many decimals
DEFAULT_TOL = 1e-10  # EM stops below this relative log-likelihood change
DEFAULT_MAX_ITER = 10000  # and runs this many iterations at most

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


def _margin_axes(schema: TableSchema, terms) -> tuple:
    axes = factor_axes(schema)
    ndim = len(full_cross_dims(schema))
    out = []
    for term in terms:
        keep = {axes[f] for f in term}
        out.append(tuple(a for a in range(ndim) if a not in keep))
    return tuple(out)


class _Schedule(NamedTuple):
    """What fitting a model and recovering its effects read from its terms
    alone, worked out once per schema and model (_schedule).  It holds
    tuples, ints, bools and None only, so a cached schedule keeps no array
    alive.

    The generators are the members of the generating class, in its order.
    sum_axes holds, per generator, the axes its margin sums out (the
    sufficient margins of the ECM map); kept, per generator, its margin's
    shape with the summed axes at extent 1 and the cells each margin cell
    sums.  The effects cover the downward closure of the terms (every term
    and each of its subterms), so a term's proper subterms all have one,
    whether or not the model holds them.  The means of log mu are numbered
    generators first; sources holds, per other member of the closure in
    the order its mean is formed (largest first), the mean it is reduced
    from (None: log mu itself, when the class is empty), the axes it sums
    out and their cell count.  effects holds, per member of the closure in
    order of size, its mean and the positions (in that order) of the
    effects of its proper subterms, which its mean less theirs leaves as
    its own.  terms holds, per model term, the position of its effect and
    the transpose order and shape of the effect reported.  spread groups
    the model terms' effects, by position, into one sum per generator that
    contains them (or one for those no generator contains), each added onto
    the cross once.  n_params, df and perfect are the model's parameter
    count, residual degrees of freedom and perfect-fit flag (models).
    """

    sum_axes: tuple
    kept: tuple
    sources: tuple
    effects: tuple
    terms: tuple
    spread: tuple
    n_params: int
    df: int
    perfect: bool


@functools.lru_cache(maxsize=SCHEMA_CACHE_SIZE)
def _schedule(schema: TableSchema, model: NonresponseModel) -> _Schedule:
    """The schedule of a model on a schema, built once and shared."""
    axes = factor_axes(schema)
    dims = full_cross_dims(schema)
    cells = math.prod(dims)
    generators = generating_class(model)
    sum_axes = _margin_axes(schema, generators)
    kept = []
    for drop in sum_axes:
        shape = tuple(1 if a in drop else d for a, d in enumerate(dims))
        kept.append((shape, cells // math.prod(shape)))
    # the axes each mean keeps, by position
    keeps = [frozenset(axes[f] for f in g) for g in generators]

    def size(k):
        return math.prod(dims[a] for a in keeps[k])

    def subterms(term):
        inside = sorted(axes[f] for f in term)
        for k in range(len(inside), -1, -1):
            yield from map(frozenset, itertools.combinations(inside, k))

    # in order of first appearance, which for a catalog model is the order
    # of its terms
    closure = list(dict.fromkeys(
        sub for term in model.terms for sub in subterms(term)
    ))
    sources = []
    for keep in sorted(closure, key=len, reverse=True):
        if keep in keeps:
            continue
        supersets = [k for k, other in enumerate(keeps) if keep < other]
        source = min(supersets, key=size, default=None)
        wider = range(len(dims)) if source is None else keeps[source]
        drop = tuple(a for a in sorted(wider) if a not in keep)
        sources.append((source, drop, math.prod(dims[a] for a in drop)))
        keeps.append(keep)
    order = sorted(closure, key=len)
    effects = tuple(
        (keeps.index(keep), tuple(
            k for k, sub in enumerate(order[:at]) if sub < keep
        ))
        for at, keep in enumerate(order)
    )
    terms = []
    spread = {}
    for term in model.terms:
        inside = tuple(axes[f] for f in term)
        keep = frozenset(inside)
        outside = tuple(a for a in range(len(dims)) if a not in keep)
        owner = next(
            (g for g, other in enumerate(keeps[: len(generators)])
             if keep <= other),
            None,
        )
        at = order.index(keep)
        spread.setdefault(owner, []).append(at)
        terms.append((at, inside + outside, tuple(dims[a] for a in inside)))
    return _Schedule(
        sum_axes,
        tuple(kept),
        tuple(sources),
        effects,
        tuple(terms),
        tuple(tuple(members) for members in spread.values()),
        parameter_count(model, schema),
        degrees_of_freedom(model, schema),
        is_perfect_fit(model, schema),
    )


# margin group indices that stay cached, each one margin of one cross
# shape; the catalog of one schema has at most eight distinct margins
MARGIN_CACHE_SIZE = 4 * SCHEMA_CACHE_SIZE


@functools.lru_cache(maxsize=MARGIN_CACHE_SIZE)
def _margin_group(shape: tuple, sum_axes: tuple) -> tuple:
    """The margin cell of every cell of the raveled cross, margin cells
    numbered in C order over the kept axes, read-only, and the number of
    margin cells; built once per cross shape and margin and shared."""
    kept = [1 if a in sum_axes else d for a, d in enumerate(shape)]
    cells = np.arange(math.prod(kept)).reshape(kept)
    group = np.broadcast_to(cells, shape).ravel()
    group.flags.writeable = False
    return group, cells.size


def _margin_groups(shape, sum_axes_list) -> tuple:
    """The group index of each sufficient margin (_margin_group)."""
    return tuple(_margin_group(shape, axes) for axes in sum_axes_list)


class _Iterate:
    """One point of the ECM path.  It takes over the raveled cross, the
    cells in C order, which it makes read-only and holds as flat.
    positive says that the cross is known to have no zero cell (and no
    NaN): a fit's start and restrict's iterates have none, and a map
    application passes on what its own output test found.  A fit hands
    the map only flagged iterates: after an unflagged output it goes on
    with the map restricted to the live cells (_step).  It carries what
    the map reads from the cross, each computed once, when it is first
    needed: c, the collapse onto the observed cells (for the
    log-likelihood and the E step), and targets, the sufficient margins of
    the E step (for the sweep and the margin residual).  Since the cross
    cannot change, neither can go stale; owner names the map they were
    computed for, and another map computes its own."""

    __slots__ = ("flat", "positive", "owner", "c", "targets")

    def __init__(self, flat, positive=False):
        flat.setflags(write=False)
        self.flat = flat
        self.positive = positive
        self.owner = None
        self.c = None
        self.targets = None


class _EcmMap:
    """The ECM map of one model on one table (Meng & Rubin 1993): an E step
    that spreads each observed count over the cells it collapses in
    proportion to the fit, then one proportional-fitting sweep that
    rescales the fit to each sufficient margin (sum_axes_list) in turn.

    It is built once per fit and holds what no iteration changes: the
    observation index (the observation map's), the observed counts as
    float64 gathered onto the cross, the positive counts with their index,
    and the cached group index of each sufficient margin (_margin_group).
    A margin is summed by bincount over its group index, and the collapse
    onto the observed cells by bincount over the observation index: each
    adds a cell's members one at a time in C order, as the observation
    map's collapse does.

    It maps an _Iterate to the next one, and keeps each iterate's collapse
    and E-step margins on the iterate, computed the first time it reads
    that iterate, so an EM iteration collapses the cross once for both its
    log-likelihood and the next map application.  It reads no zero cell
    in a step the fit keeps: a fit hands it flagged iterates only, and
    once one holds an exact zero goes on with the map restricted to the
    live cells (restrict).  So every collapse it divides by is a sum of
    positive cells, and the E step and the log-likelihood test nothing.
    Every unguarded step runs in kernel, which applies the map a given
    number of times under one error state (numpy's divide and invalid
    warnings off) and tests the result once, at the end: a margin cell of
    the E step under zero counts alone scales its cells to 0, and a margin
    cell that an earlier margin emptied (or underflow) leaves a zero or
    NaN divisor, and either stays zero or NaN through the later steps.  So
    a result that passes divided by no zero and is flagged positive; a
    kernel call that fails is replayed step by step (_steps), and a single
    application (__call__) that fails is swept again with the guards and
    is not flagged.

    A restricted map is starved when a positive count has no live cell:
    its log-likelihood is -inf, and its E step spreads that count nowhere.
    cross puts a restricted iterate's cells back on the full cross.
    """

    # copy.copy (restrict) of an instance with a __dict__ would materialize
    # the original's dict, and CPython's specialized attribute reads miss
    # on such instances; slots keep every map's reads on the fast path
    __slots__ = (
        "table", "_idx", "_cells", "_y_cross", "_positive", "_y_positive",
        "_shape", "_groups", "_live", "starved",
    )

    def __init__(self, table: IncompleteTable, sum_axes_list):
        omap = observation_map(table.schema)
        y = observed_counts(table).astype(float)
        self.table = table
        self._idx = omap.obs_index
        self._cells = y.size
        self._y_cross = y[self._idx]
        # the positive counts' index, or a slice when every count is positive
        positive = np.flatnonzero(y > 0)
        self._positive = slice(None) if positive.size == y.size else positive
        self._y_positive = y[self._positive]
        self._shape = full_cross_dims(table.schema)
        self._groups = _margin_groups(self._shape, sum_axes_list)
        self._live = None  # the cells of the cross it covers: all of them
        self.starved = False

    def restrict(self, flat):
        """This map on the live (positive) cells of flat, a raveled iterate
        of it, and flat at those cells as an iterate of it; the map itself
        and flat when every cell is live.

        The restricted map holds the observation index, the counts gathered
        onto the cross and each margin's group index at the live cells, in
        C order, and each bincount over them keeps this map's size, so every
        collapse and margin has the bits this map finds on a cross that is
        zero at the other cells.  It is starved when a positive count keeps
        no live cell."""
        live = np.flatnonzero(flat > 0)
        if live.size == flat.size:
            return self, _Iterate(flat, positive=True)
        face = copy.copy(self)
        face._live = live if self._live is None else self._live[live]
        face._idx = self._idx[live]
        face._y_cross = self._y_cross[live]
        face._groups = tuple(
            (group[live], size) for group, size in self._groups
        )
        kept = np.bincount(face._idx, None, self._cells)[self._positive]
        face.starved = not np.logical_and.reduce(kept)
        return face, _Iterate(flat[live], positive=True)

    def cross(self, flat):
        """A raveled cross of the map's cells on the full raveled cross of
        its table, zero at the cells a restriction leaves out; flat itself
        when the map covers every cell."""
        if self._live is None:
            return flat
        full = np.zeros(math.prod(self._shape))
        full[self._live] = flat
        return full

    def _collapse(self, it):
        if it.owner is not self:
            it.owner, it.targets = self, None
            it.c = np.bincount(self._idx, it.flat, self._cells)
        return it.c

    def _spread_counts(self, it):
        return self._y_cross * (it.flat / self._collapse(it)[self._idx])

    def targets(self, it):
        """The sufficient margins of the E step of an iterate."""
        if it.owner is not self or it.targets is None:
            z = self._spread_counts(it)
            it.targets = [np.bincount(g, z, size) for g, size in self._groups]
        return it.targets

    def deviance(self, it) -> float:
        """G2 of an iterate, from the collapse it carries."""
        return _deviance(self._y_positive, self._collapse(it)[self._positive])

    def loglik(self, it) -> float:
        """Observed-data log-likelihood; -inf on a starved map, which gives
        a positive count zero expectation."""
        if self.starved:
            return float("-inf")
        c = self._collapse(it)[self._positive]
        logs = float(np.add.reduce(self._y_positive * np.log(c)))
        # summed over the full cross: numpy adds in pairs by position, so
        # a sum of the live cells alone can differ in the last bit
        return -float(np.add.reduce(self.cross(it.flat))) + logs

    def kernel(self, it, steps=1):
        """The flagged iterate that steps applications of the map make of
        the flagged iterate it, or None when the result holds a zero or
        NaN cell.

        The one unguarded sweep loop of the fit: the map's arrays are bound
        once, one error state covers every E step and sweep, and the output
        is tested once, at the end.  The first step reads the E-step
        margins that it carries, computed onto it if it has none (targets).
        A zero or NaN cell stays zero or NaN through every later step, so
        the end test sees a failure of any step; the caller then replays
        the call step by step (_steps)."""
        idx, cells, y, groups = (
            self._idx, self._cells, self._y_cross, self._groups
        )
        flat = it.flat
        # a zero target (a margin cell under zero counts) or a margin cell
        # emptied by it or by underflow leaves a zero or NaN; a margin cell
        # with no cell of a restricted map is never read
        with np.errstate(divide="ignore", invalid="ignore"):
            targets = self.targets(it)
            for step in range(steps):
                if step:
                    z = y * (flat / np.bincount(idx, flat, cells)[idx])
                    targets = [np.bincount(g, z, size) for g, size in groups]
                for (group, size), target in zip(groups, targets):
                    cur = np.bincount(group, flat, size)
                    flat = flat * (target / cur)[group]
        if np.minimum.reduce(flat, initial=math.inf) > 0:
            return _Iterate(flat, True)
        return None

    def __call__(self, it):
        out = self.kernel(it)
        if out is not None:
            return out
        flat = it.flat
        for (group, size), target in zip(self._groups, self.targets(it)):
            # a margin cell with no mass holds only zero cells, and they
            # stay zero whatever ratio scales them
            cur = np.bincount(group, flat, size)
            if not np.minimum.reduce(cur, initial=math.inf) > 0:
                cur = np.where(cur > 0, cur, 1.0)
            flat = flat * (target / cur)[group]
        return _Iterate(flat)


def _step(ecm, it):
    """One application of the map ecm to it, and the map the fit goes on
    with: ecm itself, or ecm restricted to the live cells of an output
    that holds an exact zero."""
    it = ecm(it)
    return (ecm, it) if it.positive else ecm.restrict(it.flat)


def _steps(ecm, it, steps):
    """steps applications of the map ecm to it in one kernel call, and the
    map the fit goes on with.  A call whose output fails its test is
    replayed from its start one step at a time (_step), so the fit
    restricts to the live cells after the very step that left a zero."""
    out = ecm.kernel(it, steps)
    if out is not None:
        return ecm, out
    for _ in range(steps):
        ecm, it = _step(ecm, it)
    return ecm, it


@dataclass(frozen=True, eq=False)
class FitResult:
    """A fitted non-response model.

    table is the table fitted.  mu_hat covers the complete cross
    (substantive axes then indicator axes); pi_hat is mu_hat / N.
    lambda_hat maps each term to its sum-to-zero effect array and is None
    when a fitted cell sits on the zero boundary.  G2 compares observed
    strata with the collapsed fit.  iterations counts the accepted EM
    iterations (one per loglik_trace entry) and evaluations the ECM map
    applications behind them; face_cells counts the cells fixed at zero on
    a certified face, and boundary_rule names the rule that flagged a
    boundary fit ("face", "perfect-fit-misfit" or "small-cell"; None for
    an interior fit).
    """

    model_id: str
    model: NonresponseModel
    schema: TableSchema
    table: IncompleteTable
    n_params: int
    mu_hat: np.ndarray
    pi_hat: np.ndarray
    lambda_hat: dict | None
    lambda_residual: float | None
    G2: float
    df: int
    p_value: float
    aic: float
    bic: float
    converged: bool
    boundary: bool
    iterations: int
    method: str
    perfect_fit: bool
    loglik_trace: tuple
    evaluations: int
    face_cells: int
    boundary_rule: str | None

    @property
    def df_convention(self) -> str:
        """The convention behind df; the multinomial one gives the same
        number."""
        return DF_POISSON_CELLS

    def fitted_strata(self) -> dict:
        """Collapsed fitted expectations keyed by missingness pattern."""
        omap = observation_map(self.schema)
        return dict(zip(omap.patterns, omap.split(omap.collapse(self.mu_hat))))


def _deviance(y, c) -> float:
    """G2 of the nonzero observed counts y against their collapsed fit c;
    inf when the fit gives one of those cells zero expectation."""
    if not np.minimum.reduce(c, initial=math.inf) > 0:
        return float("inf")
    return max(2.0 * float(np.add.reduce(y * np.log(y / c))), 0.0)


def _g2_from_mu(mu, table) -> float:
    y = observed_counts(table)
    mask = y > 0
    return _deviance(y[mask], observation_map(table.schema).collapse(mu)[mask])


def chi_square_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X > x) for integer df >= 1.

    With h = x/2 the tail is a finite sum (Abramowitz & Stegun 26.4.4-5):
    exp(-h) * sum_{j<m} h^j / j! for df = 2m, and erfc(sqrt(h)) plus
    sum_{j<m} h^(j+1/2) exp(-h) / Gamma(j+3/2) for df = 2m+1.  Every term
    is positive, and fsum adds them exactly, so a large df neither
    overflows nor cancels.  Term j is term j-1 times h / (j + shift), with
    shift 1/2 for odd df and 0 for even, so only the largest term, where
    that ratio falls below 1, is formed in log space, and the others
    follow from it by the ratio, down each side: none can overflow, and
    one that underflows is negligible against it.
    """
    if not _is_int(df) or df < 1:
        raise ComputationError("df must be a positive integer")
    if not _is_real(x):
        raise ComputationError("x must be a nonnegative number")
    x = float(x)
    if math.isnan(x) or x < 0:
        raise ComputationError("x must be nonnegative")
    h = x / 2.0
    if h == 0.0:
        return 1.0
    if math.isinf(h):
        return 0.0
    m, odd = divmod(int(df), 2)
    shift = 0.5 * odd
    terms = []
    if m:
        top = min(max(int(h - shift), 0), m - 1)
        peak = math.exp(
            (top + shift) * math.log(h) - h - math.lgamma(top + shift + 1.0)
        )
        term = peak
        for j in range(top + 1, m):
            term *= h / (j + shift)
            terms.append(term)
        term = peak
        for j in range(top, 0, -1):
            term *= (j + shift) / h
            terms.append(term)
        terms.append(peak)
    if odd:
        terms.append(math.erfc(math.sqrt(h)))
    return min(math.fsum(terms), 1.0)


def _recover_lambda(model, schema, mu):
    """Sum-to-zero effects of log mu, one per model term, and the largest
    cell residual of their sum.

    On the complete cross the sum-to-zero effects are orthogonal ANOVA
    components: the mean of log mu over the axes outside a term is the sum
    of the effects of the term and of all its proper subterms, so the
    term's effect is its mean less theirs.  Each generator's mean is a
    bincount of log mu over its cached group index (_margin_group), each
    smaller mean is reduced from the smallest mean already formed over a
    superset of its axes, the effects are formed in order of term size,
    each its mean less the effects of its proper subterms, and they are
    summed per generator and spread onto the cross once per generator, all
    as the model's schedule (_schedule) lays out.  np.add.reduce(x, axes,
    keepdims=True) / count has the bits of x.mean(axes, keepdims=True)
    without its Python-level wrapper.
    """
    if np.any(mu <= 0):
        return None, None
    plan = _schedule(schema, model)
    logmu = np.log(mu)
    flat = logmu.reshape(-1)
    means = [
        (np.bincount(group, flat, size) / count).reshape(kept)
        for (group, size), (kept, count) in zip(
            _margin_groups(mu.shape, plan.sum_axes), plan.kept
        )
    ]
    for source, drop, count in plan.sources:
        x = logmu if source is None else means[source]
        means.append(np.add.reduce(x, drop, keepdims=True) / count)
    effects = []
    for at, subterms in plan.effects:
        effect = means[at]
        for k in subterms:
            effect = effect - effects[k]
        effects.append(effect)
    fitted = 0.0
    for members in plan.spread:
        part = effects[members[0]]
        for k in members[1:]:
            part = part + effects[k]
        fitted = fitted + part
    lam = {
        term: effects[at].transpose(order).reshape(shape)
        for term, (at, order, shape) in zip(model.terms, plan.terms)
    }
    return lam, float(np.maximum.reduce(np.abs(logmu - fitted), axis=None))


def _finalize(
    model, table, mu, method, converged, trace, g2, evaluations=0,
    face_cells=0,
):
    """The FitResult of a fit whose cross is mu, whose accepted
    log-likelihoods are trace and whose G2 is g2.  mu becomes mu_hat as it
    is, made read-only: an EM iterate already is, and a closed-form cross
    is built for this result alone."""
    schema = table.schema
    n = table.N
    mu = np.asarray(mu, dtype=float)
    plan = _schedule(schema, model)
    if plan.df == 0:
        p = 1.0
    elif math.isinf(g2):
        p = 0.0
    else:
        p = chi_square_sf(g2, plan.df)
    if face_cells:
        rule = BOUNDARY_FACE
    # a model with as many parameters as observed statistics fits them
    # exactly at any interior maximum, so a visibly imperfect fit means
    # the maximum sits on the boundary of the parameter space
    elif plan.perfect and g2 > 1e-6:
        rule = BOUNDARY_PERFECT_MISFIT
    # the smallest cell is under the bound exactly when some cell is, as
    # division by n > 0 keeps the order; fmin, like the cellwise test,
    # passes over a NaN cell
    elif np.fmin.reduce(mu, axis=None) / n < BOUNDARY_PROB:
        rule = BOUNDARY_SMALL_CELL
    else:
        rule = None
    lam, resid = _recover_lambda(model, schema, mu)
    pi = mu / n
    pi.flags.writeable = False
    mu.flags.writeable = False
    params = plan.n_params
    return FitResult(
        model_id=model.id,
        model=model,
        schema=schema,
        table=table,
        n_params=params,
        mu_hat=mu,
        pi_hat=pi,
        lambda_hat=lam,
        lambda_residual=resid,
        G2=g2,
        df=plan.df,
        p_value=p,
        aic=g2 + 2.0 * params,
        bic=g2 + math.log(n) * params,
        converged=converged,
        boundary=rule is not None,
        iterations=len(trace),
        method=method,
        perfect_fit=plan.perfect,
        loglik_trace=tuple(trace),
        evaluations=evaluations,
        face_cells=face_cells,
        boundary_rule=rule,
    )


def _resolve_model(model, schema):
    if not isinstance(model, NonresponseModel):
        return get_model(schema, str(model))
    # a model built for another schema would fail deep inside the fit
    axes = factor_axes(schema)
    for var, mech in model.mechanisms:
        if var not in schema.missing:
            raise TableError(f"model {model.id}: {var} is not missing")
        if mech.donor is not None and mech.donor not in schema.names:
            raise TableError(f"model {model.id}: unknown donor {mech.donor}")
    for term in model.terms:
        for factor in term:
            if factor not in axes:
                raise TableError(f"model {model.id}: unknown factor {factor}")
    return model


def _check_stopping(tol, max_iter):
    if not _is_real(tol):
        raise ComputationError(f"tol must be a real number, got {tol!r}")
    if not _is_int(max_iter):
        raise ComputationError(
            f"max_iter must be an integer, got {max_iter!r}"
        )
    if tol <= 0 or max_iter < 1:
        raise ComputationError("tol must be positive and max_iter >= 1")
    if not math.isfinite(tol):
        raise ComputationError(f"tol must be finite, got {tol}")


# Face detection.  A cell decays when it holds less than DECAY_CELL of N
# and its log-rate stays below DECAY_RATE per step over both halves of a
# window: EM checks every DECAY_HALF iterations over DECAY_WINDOW of them,
# the face solve every FACE_CHECK_CYCLES SQUAREM cycles (each two or three
# map applications and an extrapolated step) over twice as many.  The face
# solve ends when the sufficient margins match to FACE_RESIDUAL.
DECAY_WINDOW = 50
DECAY_HALF = DECAY_WINDOW // 2
FACE_CHECK_CYCLES = 5
DECAY_RATE = -1e-3
DECAY_CELL = 1e-3
FACE_RESIDUAL = 1e-9
FACE_ATTEMPTS = 3  # per fit; a refused face leaves the fit as it was
FACE_MAX_EVALUATIONS = 2000  # map evaluations per face attempt
SQUAREM_STEP_FACTOR = 4.0
REOPEN_SHARE = 1e-6  # of its value before zeroing, to reopen a zero cell

BOUNDARY_FACE = "face"
BOUNDARY_PERFECT_MISFIT = "perfect-fit-misfit"
BOUNDARY_SMALL_CELL = "small-cell"


def _margin_residual(it, ecm) -> float:
    """Largest relative gap between the sufficient margins of an iterate
    and those of its E step, each summed over the map's group index; zero
    at a fixed point of EM, NaN when any gap is NaN.  The margins are
    concatenated, so the gap and its maximum are one call each.  The
    E-step margins stay on the iterate for the map application that
    follows."""
    target = np.concatenate(ecm.targets(it))
    cur = np.concatenate(
        [np.bincount(group, it.flat, size) for group, size in ecm._groups]
    )
    gap = np.abs(target - cur) / np.maximum(target, 1e-300)
    return float(np.maximum.reduce(gap))


def _checkpoint(marks, mu):
    """The last three log-fits, taken half a decay window apart."""
    with np.errstate(divide="ignore"):
        return (marks + [np.log(mu)])[-3:]


def _decay_zeros(marks, mu, half, ecm):
    """The decay test of the flat fit mu of ecm's table on the checkpoints
    marks, half steps apart, where a step is an EM iteration, or a SQUAREM
    cycle on a face.

    A cell falls when its log-rate stayed below DECAY_RATE per step over
    both halves of the window the three checkpoints span.  The flagged
    cells are the live ones under DECAY_CELL * N that fall; with none (or
    fewer than three checkpoints) the test returns None.  Otherwise it
    returns the flagged cells and the cells to zero: the flagged ones and
    the live rest of each margin cell of the generating class (the map's
    groups) that holds a flagged cell and whose live cells all fall,
    whatever their size, since a face empties whole margin cells, so the
    rest of one follows its first cells down.  A margin cell is left out
    when zeroing it would take the last live cell of a positive observed
    count.  Each margin counts its flagged and its steady cells by one
    bincount over its group index.
    """
    if len(marks) < 3:
        return None
    a, b, c = marks
    drop = DECAY_RATE * half
    with np.errstate(invalid="ignore"):
        falling = (b - a < drop) & (c - b < drop)
    live = mu > 0
    flagged = falling & live & (mu < DECAY_CELL * ecm.table.N)
    if not flagged.any():
        return None
    steady = live & ~falling
    pulls = [
        (np.bincount(group, flagged, size) > 0)
        & (np.bincount(group, steady, size) == 0)
        for group, size in ecm._groups
    ]

    def zeroed(pulls):
        pulled = np.zeros_like(flagged)
        for (group, _), pull in zip(ecm._groups, pulls):
            pulled |= pull[group]
        return flagged | (pulled & live)

    zero = zeroed(pulls)
    kept = np.bincount(ecm._idx, live & ~zero, ecm._cells)[ecm._idx]
    starved = zero & ~flagged & (ecm._y_cross > 0) & (kept == 0)
    if starved.any():
        zero = zeroed([
            pull & (np.bincount(group, starved, size) == 0)
            for (group, size), pull in zip(ecm._groups, pulls)
        ])
    return flagged, zero


def _squarem_step(it, ll, step_max, ecm):
    """One SQUAREM cycle (Varadhan & Roland 2008, step SqS3) of the ECM map
    ecm, extrapolated in log space over its cells.

    Returns the map the fit goes on with, the next _Iterate, its
    log-likelihood, the next step bound and the map evaluations spent.  Its
    two plain steps and the ECM step from its jump are single calls of the
    map's kernel (_EcmMap.kernel).  A cycle whose plain step gains a zero
    ends with that step, and the fit goes on with the map restricted to the
    live cells (_step).  The step length is capped at step_max; the cap
    grows by SQUAREM_STEP_FACTOR when a capped step is kept and shrinks by
    it when a step is refused.  The extrapolated point, after one more ECM
    step, is kept only if that step passes the kernel's output test (no
    zero or NaN cell) and its log-likelihood is at least ll, that of the
    last accepted iterate; otherwise the plain double step is kept, which
    ECM never makes worse.  A point that underflows to a zero cell is
    refused before the map would read it.
    """
    face, it1 = _step(ecm, it)
    if face is not ecm:
        return face, it1, face.loglik(it1), step_max, 1
    face, it2 = _step(ecm, it1)
    if face is not ecm:
        return face, it2, face.loglik(it2), step_max, 2
    x0, x1, x2 = (np.log(i.flat) for i in (it, it1, it2))
    r = x1 - x0
    v = x2 - x1 - r
    # the Euclidean norm as numpy.linalg.norm computes it
    v_norm = math.sqrt(v @ v)
    if v_norm == 0:
        return ecm, it2, ecm.loglik(it2), step_max, 2
    alpha = max(min(-math.sqrt(r @ r) / v_norm, -1.0), -step_max)
    spent = 2
    jump = None
    # a long extrapolation can overflow or underflow cells, and the sweep
    # of an overflowed cell leaves NaN, which fails the kernel's test
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        step = np.exp(x0 - 2.0 * alpha * r + alpha * alpha * v)
        if np.minimum.reduce(step, initial=math.inf) > 0:
            jump = ecm.kernel(_Iterate(step, True))
            spent = 3
    if jump is not None and (ll_jump := ecm.loglik(jump)) >= ll:
        if alpha == -step_max:
            step_max *= SQUAREM_STEP_FACTOR
        return ecm, jump, ll_jump, step_max, spent
    step_max = max(step_max / SQUAREM_STEP_FACTOR, 1.0)
    return ecm, it2, ecm.loglik(it2), step_max, spent


def _is_face(zero, groups) -> bool:
    """Whether the zero cells, a mask over the flat cells of the cross,
    are exactly the union of the margin cells of the generating class
    that they empty.  groups holds each margin's group index and size (the
    map's _groups); a margin cell is empty when it holds no live cell.

    Minus the indicators of those margin cells is then a direction in the
    model's span that is negative on every zero cell and zero on the live
    ones, so a fit with these zeros is a limit of fits of the model: it
    lies on a face (Fienberg & Rinaldo 2012).
    """
    covered = np.zeros_like(zero)
    for group, size in groups:
        covered |= (np.bincount(group, ~zero, size) == 0)[group]
    return bool(np.array_equal(covered, zero))


def _zeros_stay_down(mu, before, ecm) -> bool:
    """Whether the likelihood lets the zero cells of the raveled fit mu of
    ecm's table stay at zero.

    Each zero cell is reopened at REOPEN_SHARE of its value in before, the
    raveled fit before any cell was zeroed, and DECAY_WINDOW ECM steps run
    on the probe's live cells, each half of the window one call of the
    map's kernel (_steps).  A half whose output fails the kernel's end
    test is replayed step by step and restricted to the live cells after
    the step that left a zero.  Over both halves of the window the
    difference of log iterates (a direction in the model's span) must be
    negative on every reopened cell.
    """
    reopened = (mu == 0) & (before > 0)
    probe = np.where(reopened, REOPEN_SHARE * before, mu)
    marks = _checkpoint([], probe)
    em, it = ecm.restrict(probe)
    for _ in range(DECAY_WINDOW // DECAY_HALF):
        em, it = _steps(em, it, DECAY_HALF)
        marks = _checkpoint(marks, em.cross(it.flat))
    a, b, c = (m[reopened] for m in marks)
    return bool(np.logical_and.reduce((b < a) & (c < b)))


@dataclass(frozen=True)
class _FaceSolve:
    ecm: _EcmMap
    it: _Iterate
    trace: tuple
    evaluations: int
    certified: bool


def _solve_face(before, zero, floor, ecm, budget):
    """Finish an EM fit on the face where the cells of zero are zero.

    The cells of zero, a mask over the raveled fit before, are fixed at
    zero as structural zeros and SQUAREM-accelerated ECM runs on the map
    restricted to the live cells (_EcmMap.restrict), restricted again
    whenever a cycle gains a zero (_squarem_step).  Cells that in turn
    pass the decay test, checked on the full cross on a clock of its own
    every FACE_CHECK_CYCLES cycles, are zeroed too, with the rest of their
    margin cells (_decay_zeros), and the map is restricted again, so a
    face is emptied in one stage, not one per decay window.  The solve
    ends when the sufficient margins match to FACE_RESIDUAL.  The result,
    the last map and its iterate, counts when its log-likelihood is at
    least floor, that of the last iterate before zeroing (so its G2 is no
    larger), its zeros form a face over the map's group indices (_is_face)
    and the likelihood keeps them down (_zeros_stay_down).  trace holds the
    accepted log-likelihoods, at most budget of them: those of the cycles
    that reach the last accepted one, starting from floor, so that it
    extends the caller's trace monotonically.
    """
    mu = np.where(zero, 0.0, before)
    face, it = ecm.restrict(mu)
    ll = face.loglik(it)
    trace = []
    evaluations = 0
    cycles = 0
    step_max = 1.0
    marks = _checkpoint([], mu)
    while (
        math.isfinite(ll)
        and len(trace) < budget
        and evaluations < FACE_MAX_EVALUATIONS
    ):
        face, it, ll, step_max, spent = _squarem_step(it, ll, step_max, face)
        evaluations += spent
        cycles += 1
        if ll >= (trace[-1] if trace else floor):
            trace.append(ll)
        if _margin_residual(it, face) < FACE_RESIDUAL:
            mu = face.cross(it.flat)
            certified = ll >= floor and _is_face(mu == 0, ecm._groups)
            if certified:
                evaluations += DECAY_WINDOW
                certified = _zeros_stay_down(mu, before, ecm)
            return _FaceSolve(face, it, tuple(trace), evaluations, certified)
        if cycles % FACE_CHECK_CYCLES == 0:
            mu = face.cross(it.flat)
            marks = _checkpoint(marks, mu)
            decay = _decay_zeros(marks, mu, FACE_CHECK_CYCLES, ecm)
            if decay is not None:
                mu = np.where(decay[1], 0.0, mu)
                face, it = ecm.restrict(mu)
                ll = face.loglik(it)
                marks = _checkpoint([], mu)
    return _FaceSolve(face, it, tuple(trace), evaluations, False)


def fit_em(
    model,
    table: IncompleteTable,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    init: str = "uniform",
    seed=None,
) -> FitResult:
    """Expectation-maximization fit from a deterministic uniform start.

    The E step spreads each supplemental count over the cells it collapses
    in proportion to the current fit; the M step is one sweep of iterative
    proportional fitting to the model's sufficient margins, so every
    iteration applies the ECM map once, as a one-step call of the map's
    kernel (_EcmMap.kernel) with its output tested at the end of the call.
    The log-likelihood collapses each iterate once, and the next kernel
    call's E step reads that collapse.  The start has no zero cell, and
    when a step's output fails the test (a margin cell of the E step under
    zero counts alone leaves an exact zero) the step is swept again with
    the guards and the iterations run on the map restricted to its live
    cells (_step).  Iteration stops when the relative change of the
    observed-data log-likelihood drops below tol.  Cells that keep decaying
    are fixed at zero, each with the rest of its margin cells when those
    fall too (_decay_zeros), and the fit is finished on that face of the
    model (see _solve_face), whose certification probe runs each half of
    its window as one kernel call, replayed step by step when its output
    fails the test (_zeros_stay_down); that yields the limit of the
    likelihood whatever tol is.  A refused face attempt whose zero set
    completion enlarged at this hand-off is solved once more from the
    flagged cells alone, so a cell that completion took but the face keeps
    live can stay live; each attempt counts the map evaluations of both
    solves.  init="perturbed" (with a seed) jitters the start
    multiplicatively to probe for multiple modes; a seed with the uniform
    start, which draws nothing, is an error.
    """
    schema = table.schema
    if not schema.is_analysis_shape:
        raise TableError(f"shape {schema.shape} cannot be fitted")
    model = _resolve_model(model, schema)
    _check_stopping(tol, max_iter)
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
    elif seed is not None:
        raise ComputationError(
            "seed applies to init='perturbed' only; the uniform start "
            "draws nothing"
        )
    ecm = _EcmMap(table, _schedule(schema, model).sum_axes)
    # em is the map of the live cells, which the fit goes on with once an
    # iterate holds an exact zero (_step)
    em, it = ecm, _Iterate(mu.reshape(-1), True)
    trace = []
    prev = None
    converged = False
    evaluations = 0
    face_cells = 0
    attempts = 0
    # the log of the first checkpoint is taken at the first decay test,
    # which a fit that converges sooner never reaches
    marks, origin = [], it.flat
    while len(trace) < max_iter:
        em, it = _step(em, it)
        evaluations += 1
        ll = em.loglik(it)
        trace.append(ll)
        if prev is not None and math.isfinite(ll):
            if abs(ll - prev) <= tol * (abs(prev) + 1.0):
                converged = True
                break
        prev = ll
        if len(trace) % DECAY_HALF or attempts == FACE_ATTEMPTS:
            continue
        mu = em.cross(it.flat)
        marks = _checkpoint(marks or _checkpoint([], origin), mu)
        decay = _decay_zeros(marks, mu, DECAY_HALF, ecm)
        if decay is None:
            continue
        attempts += 1
        budget = max_iter - len(trace)
        flagged, zero = decay
        face = _solve_face(mu, zero, ll, ecm, budget)
        evaluations += face.evaluations
        if not face.certified and (zero != flagged).any():
            # completion can take a cell the face keeps live
            face = _solve_face(mu, flagged, ll, ecm, budget)
            evaluations += face.evaluations
        if face.certified:
            em, it = face.ecm, face.it
            zeroed = (em.cross(it.flat) == 0) & (mu > 0)
            face_cells = int(np.count_nonzero(zeroed))
            trace.extend(face.trace)
            converged = True
            break
        # a refused face leaves no trace: EM goes on from where it was
        marks, origin = [], mu
    return _finalize(
        model, table, em.cross(it.flat).reshape(dims), METHOD_EM, converged,
        trace, em.deviance(it), evaluations=evaluations,
        face_cells=face_cells,
    )


# ---------------------------------------------------------------------------
# Explicit solutions (Baker, Rosenberger & DerSimonian 1992).

def fit_closed_form(model, table: IncompleteTable) -> FitResult | None:
    """Explicit maximum likelihood fit, or None when the model has none or
    it leaves the interior (the caller should then fall back to fit_em).

    A model has one when it is a catalog member (the same mechanisms and
    terms) whose kinds fit the table's shape: on two-variable tables any
    pair of NMAR and MAR, or NMAR with MCAR; with one missing variable,
    MCAR.  That is M1, M2, M3, M5, M6, M8 and C4.

    The full stratum is the base, and each mechanism contributes one
    factor.  MCAR, taken first, rescales the base along its variable's
    axis to the variable's stratum and contributes the constant ratio of
    that stratum's total to the full total.  NMAR contributes the positive
    tilt s along its variable's axis that solves the square system
    sum(base * s) = stratum.  MAR contributes the stratum divided by the
    base's margin along its axis.  Each indicator block is the base times
    the factors of its missing variables; the block with both variables
    missing is that product, less the constants, scaled to its stratum's
    total.  A zero margin of the base, a non-square tilt system or a tilt
    that is not strictly positive means the likelihood peaks on the
    boundary.
    """
    schema = table.schema
    model = _resolve_model(model, schema)
    mechs = model.mechanisms
    kinds = sorted(m.kind for _, m in mechs)
    if schema.shape == SHAPE_TWO_BOTH:
        explicit = MECH_MCAR not in kinds or kinds == [MECH_MCAR, MECH_NMAR]
    else:
        explicit = schema.shape == SHAPE_THREE_ONE and kinds == [MECH_MCAR]
    # the kinds tell the whole model only for a member of the catalog
    if not explicit or not any(
        (m.mechanisms, m.terms) == (mechs, model.terms)
        for m in enumerate_models(schema)
    ):
        return None
    counts = (st.counts.astype(float) for st in table.strata)
    strata = dict(zip(schema.patterns(), counts))
    base = strata[()]
    factors = {}
    for v, mech in sorted(mechs, key=lambda vm: vm[1].kind != MECH_MCAR):
        p = schema.index(v)
        target = strata[(v,)]
        if mech.kind == MECH_NMAR:
            try:
                s = np.linalg.solve(np.moveaxis(base, p, -1), target)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(s) & (s > 0)):
                return None
            # NMAR is explicit on two-variable tables only: the other axis
            # is 1 - p
            factors[v] = np.expand_dims(s, 1 - p)
            continue
        coll = base.sum(axis=p)
        if not np.all(coll > 0):
            return None
        if mech.kind == MECH_MAR:
            factors[v] = np.expand_dims(target / coll, p)
        else:
            tot1 = base.sum()
            tot2 = target.sum()
            plus = np.expand_dims((coll + target) / coll, p)
            base = base * plus * (tot1 / (tot1 + tot2))
            factors[v] = tot2 / tot1
    mu = np.zeros(full_cross_dims(schema))
    for pat, y in strata.items():
        block = base
        for v in pat:
            # the MCAR constant stays out of the both-missing block: it is 0
            # when its variable's stratum is empty, and the normalisation
            # below could not absorb it
            if len(pat) == 1 or model.mechanism(v).kind != MECH_MCAR:
                block = block * factors[v]
        if len(pat) == 2 and block.sum() > 0:
            block = y * block / block.sum()
        elif len(pat) == 2 and y > 0:
            return None
        mu[(Ellipsis,) + tuple(int(m in pat) for m in schema.missing)] = block
    return _finalize(
        model, table, mu, METHOD_CLOSED, True, (), _g2_from_mu(mu, table)
    )


def fit_model(
    model,
    table: IncompleteTable,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FitResult:
    """Fit one model, using the explicit solution when it applies (fit_em
    forces EM).  A bad tol or max_iter is rejected either way."""
    model = _resolve_model(model, table.schema)
    _check_stopping(tol, max_iter)
    closed = fit_closed_form(model, table)
    if closed is not None:
        return closed
    return fit_em(model, table, tol=tol, max_iter=max_iter)


def fit_all(
    table: IncompleteTable,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple:
    """Fit the full catalog, ranked by G2 rounded to RANK_DECIMALS places
    (ties: fewer parameters, then id).

    The rounding keeps the order from hanging on differences that the
    solver's stopping point decides, such as two fits that reach the same
    boundary limit to within 1e-8.
    """
    fits = [
        fit_model(m, table, tol=tol, max_iter=max_iter)
        for m in enumerate_models(table.schema)
    ]
    fits.sort(
        key=lambda f: (round(f.G2, RANK_DECIMALS), f.n_params, f.model_id)
    )
    return tuple(fits)


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
    MAR mechanism (or a boundary fit) are not applicable.  The difference
    cancels from both sides, so the classification is read off the odds
    themselves, the non-response odds strictly between the extreme
    response odds: through exp and log an exact tie could round either
    way.
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
            strong = r_min < omega < r_max
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
