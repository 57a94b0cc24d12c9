"""Catalogs of log-linear non-response models for incomplete tables.

One rule makes every catalog (Baker, Rosenberger & DerSimonian 1992).  Each
variable subject to missingness takes one mechanism: NMAR (its recording
indicator depends on the variable itself), MAR with each other variable in
declared order as donor (the indicator depends on that variable), or MCAR
(the indicator depends on no variable).  The catalog is the product of
these choices over the missing variables.  Every model's terms are every
subset of the substantive variables (the intercept first), every nonempty
subset of the indicators, and exactly one variable-by-indicator term per
non-MCAR mechanism.

Only the ids depend on the shape, and they are stable strings.
Two-variable tables carry M1..M9, named by their pair of kinds;
three-variable tables with one missing variable carry C1..C4, numbered in
product order; three-variable tables with two missing variables carry
sixteen models, each named D<g>: plus its mechanisms, where the group
D1..D6 is decided by the set of kinds.  Positional labels Y1, Y2, Y3 in
ids and summaries refer to variables in declared order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import TableError
from .tables import (
    SHAPE_THREE_ONE,
    SHAPE_TWO_BOTH,
    TableSchema,
    indicator_factor,
)

MECH_MCAR = "MCAR"
MECH_NMAR = "NMAR"
MECH_MAR = "MAR"

DF_POISSON_CELLS = "poisson-cells"

# schemas whose model catalog, observation map and screening plan stay
# cached; a process that meets more schemas rebuilds the least recently used
SCHEMA_CACHE_SIZE = 64


def y_label(schema: TableSchema, var: str) -> str:
    """Positional label (Y1, Y2, Y3) for a variable."""
    return f"Y{schema.index(var) + 1}"


@dataclass(frozen=True)
class Mechanism:
    kind: str
    donor: str | None = None

    def __post_init__(self):
        if self.kind not in (MECH_MCAR, MECH_NMAR, MECH_MAR):
            raise TableError(f"unknown mechanism kind {self.kind}")
        if self.kind == MECH_MAR and not self.donor:
            raise TableError("MAR mechanism needs a donor variable")
        if self.kind != MECH_MAR and self.donor is not None:
            raise TableError(f"{self.kind} takes no donor")

    def display(self, schema: TableSchema) -> str:
        if self.kind == MECH_MAR:
            return f"MAR({y_label(schema, self.donor)})"
        return self.kind


@dataclass(frozen=True)
class NonresponseModel:
    """A mechanism assignment together with its log-linear term list."""

    id: str
    mechanisms: tuple  # ((missing var, Mechanism), ...) in declared order
    terms: tuple  # factor-name tuples; () is the intercept

    def mechanism(self, var: str) -> Mechanism:
        for v, m in self.mechanisms:
            if v == var:
                return m
        raise KeyError(var)

    def mechanism_display(self, schema: TableSchema) -> str:
        return ",".join(
            f"{y_label(schema, v)}={m.display(schema)}"
            for v, m in self.mechanisms
        )


def full_cross_dims(schema: TableSchema) -> tuple:
    """Extents of the complete cross: substantive axes then one 2-level
    axis per recording indicator, all in declared order."""
    dims = [l for _, l in schema.variables]
    dims.extend(2 for _ in schema.missing)
    return tuple(dims)


def factor_axes(schema: TableSchema) -> dict:
    axes = {n: i for i, n in enumerate(schema.names)}
    base = len(schema.names)
    for k, m in enumerate(schema.missing):
        axes[indicator_factor(m)] = base + k
    return axes


@dataclass(frozen=True, eq=False)
class ObservationMap:
    """The linear map from the complete cross to the observed cells.

    The observed cells are every stratum's counts raveled in C order and
    concatenated in schema.patterns() order; offsets[k]:offsets[k + 1]
    holds pattern k, whose counts have extents shapes[k].  obs_index gives,
    for each cell of the complete cross (raveled in C order), the observed
    cell it is summed into.  It holds no even share of a count whose cells
    all have zero fit: the E step of a fit reads the live cells alone
    (fitting._EcmMap.restrict), so such a count is spread nowhere.
    """

    patterns: tuple
    offsets: tuple
    shapes: tuple
    obs_index: np.ndarray

    def collapse(self, mu) -> np.ndarray:
        """Expectations of the observed cells, flat."""
        return np.bincount(
            self.obs_index, np.ravel(mu), minlength=self.offsets[-1]
        )

    def split(self, flat) -> tuple:
        """One array per pattern from a flat observed-cell vector."""
        return tuple(
            flat[a:b].reshape(shape)
            for a, b, shape in zip(self.offsets, self.offsets[1:], self.shapes)
        )


@functools.lru_cache(maxsize=SCHEMA_CACHE_SIZE)
def observation_map(schema: TableSchema) -> ObservationMap:
    """The observation map of a schema, built once and shared."""
    obs_index = np.empty(full_cross_dims(schema), dtype=np.intp)
    offsets = [0]
    shapes = []
    for pat in schema.patterns():
        # numbered in C order over the recorded axes, repeated along the
        # unrecorded ones
        keep = [1 if v in pat else l for v, l in schema.variables]
        cells = np.arange(offsets[-1], offsets[-1] + math.prod(keep))
        ind = tuple(1 if m in pat else 0 for m in schema.missing)
        obs_index[(Ellipsis,) + ind] = cells.reshape(keep)
        offsets.append(offsets[-1] + cells.size)
        observed = schema.observed_for(pat)
        shapes.append(tuple(schema.levels(v) for v in observed))
    obs_index = obs_index.ravel()
    obs_index.flags.writeable = False
    return ObservationMap(
        schema.patterns(), tuple(offsets), tuple(shapes), obs_index
    )


def observed_counts(table) -> np.ndarray:
    """A table's counts in the observed-cell order of its observation map."""
    return np.concatenate([np.ravel(st.counts) for st in table.strata])


def factor_levels(schema: TableSchema) -> dict:
    lv = {n: schema.levels(n) for n in schema.names}
    for m in schema.missing:
        lv[indicator_factor(m)] = 2
    return lv


def _base_terms(schema: TableSchema) -> list:
    """Every subset of the variables (the intercept first), then every
    nonempty subset of the indicators."""
    inds = [indicator_factor(m) for m in schema.missing]
    return [
        term
        for factors, smallest in ((schema.names, 0), (inds, 1))
        for size in range(smallest, len(factors) + 1)
        for term in itertools.combinations(factors, size)
    ]


def _make_model(schema, model_id, mechanisms) -> NonresponseModel:
    # one (variable, indicator) term per non-MCAR mechanism, already in
    # axis order; each names a distinct indicator with one variable, and
    # no base term does, so the terms are distinct
    terms = _base_terms(schema) + [
        (mech.donor or v, indicator_factor(v))
        for v, mech in mechanisms
        if mech.kind != MECH_MCAR
    ]
    return NonresponseModel(model_id, tuple(mechanisms), tuple(terms))


# the two-variable catalog M1..M9 by the kinds of (Y1, Y2)
_M_KINDS = (
    (MECH_NMAR, MECH_MCAR),
    (MECH_NMAR, MECH_MAR),
    (MECH_NMAR, MECH_NMAR),
    (MECH_MAR, MECH_MCAR),
    (MECH_MAR, MECH_MAR),
    (MECH_MAR, MECH_NMAR),
    (MECH_MCAR, MECH_MAR),
    (MECH_MCAR, MECH_NMAR),
    (MECH_MCAR, MECH_MCAR),
)

# the groups D1..D6 of the two-missing catalog by the set of kinds
_D_GROUPS = (
    {MECH_MCAR},
    {MECH_NMAR},
    {MECH_MAR},
    {MECH_MCAR, MECH_NMAR},
    {MECH_MCAR, MECH_MAR},
    {MECH_NMAR, MECH_MAR},
)


def _options(schema: TableSchema, var: str) -> tuple:
    donors = (Mechanism(MECH_MAR, d) for d in schema.names if d != var)
    return (Mechanism(MECH_NMAR), *donors, Mechanism(MECH_MCAR))


@functools.lru_cache(maxsize=SCHEMA_CACHE_SIZE)
def enumerate_models(schema: TableSchema) -> tuple:
    """The complete model catalog for the schema's shape, built once per
    schema and shared."""
    if not schema.is_analysis_shape:
        raise TableError(f"shape {schema.shape} has no model catalog")
    combos = itertools.product(*(_options(schema, v) for v in schema.missing))
    ranked = []
    for pos, mechs in enumerate(combos):
        model = _make_model(schema, "", tuple(zip(schema.missing, mechs)))
        kinds = tuple(m.kind for m in mechs)
        if schema.shape == SHAPE_TWO_BOTH:
            rank = _M_KINDS.index(kinds)
            mid = f"M{rank + 1}"
        elif schema.shape == SHAPE_THREE_ONE:
            rank = pos
            mid = f"C{rank + 1}"
        else:
            rank = _D_GROUPS.index(set(kinds))
            mid = f"D{rank + 1}:{model.mechanism_display(schema)}"
        ranked.append((rank, replace(model, id=mid)))
    # stable: equal ranks keep their order in the product
    ranked.sort(key=lambda rm: rm[0])
    return tuple(m for _, m in ranked)


def get_model(schema: TableSchema, model_id: str) -> NonresponseModel:
    for model in enumerate_models(schema):
        if model.id == model_id:
            return model
    raise TableError(f"unknown model id {model_id}")


def parameter_count(model: NonresponseModel, schema: TableSchema) -> int:
    lv = factor_levels(schema)
    total = 0
    for term in model.terms:
        cols = 1
        for f in term:
            cols *= lv[f] - 1
        total += cols
    return total


def observed_statistic_count(schema: TableSchema) -> int:
    """Number of observed cell counts across all strata."""
    return observation_map(schema).offsets[-1]


def degrees_of_freedom(model: NonresponseModel, schema: TableSchema) -> int:
    """Residual degrees of freedom, floored at zero: observed statistics
    less free parameters (the poisson-cells convention)."""
    stats = observed_statistic_count(schema)
    return max(stats - parameter_count(model, schema), 0)


def is_perfect_fit(model: NonresponseModel, schema: TableSchema) -> bool:
    """Parameter count equals the number of observed statistics.

    By shape, for the catalog of enumerate_models: with two variables (I
    and J levels) M3 and M5 always are, and M2 and M6 are when I = J; with
    one missing variable only C1 is, when that variable's levels equal
    the product of the other two; with two missing variables no model is.
    """
    return parameter_count(model, schema) == observed_statistic_count(
        schema
    )


@dataclass(frozen=True, eq=False)
class DesignStructure:
    """Sum-to-zero coded design over the complete cross.

    columns has one row per cell of the full cross (flattened in C order)
    and one column per free parameter; column_terms names the term behind
    each column.  margins lists, per term, the factors whose margin is the
    term's sufficient statistic; generating_class keeps only the maximal
    ones (those drive the fitting margins).
    """

    cell_shape: tuple
    factor_names: tuple
    columns: np.ndarray
    column_terms: tuple
    margins: tuple
    generating_class: tuple


def _effects_coding(levels: int) -> np.ndarray:
    mat = np.zeros((levels, levels - 1))
    mat[: levels - 1, :] = np.eye(levels - 1)
    mat[levels - 1, :] = -1.0
    return mat


def generating_class(model: NonresponseModel) -> tuple:
    """Maximal terms under factor-set inclusion."""
    sets = [set(t) for t in model.terms]
    out = []
    for i, t in enumerate(model.terms):
        if not t:
            continue
        if any(
            set(t) < other for j, other in enumerate(sets) if j != i
        ):
            continue
        out.append(t)
    return tuple(out)


def build_design(
    model: NonresponseModel, schema: TableSchema
) -> DesignStructure:
    dims = full_cross_dims(schema)
    axes = factor_axes(schema)
    lv = factor_levels(schema)
    names = tuple(sorted(axes, key=axes.get))
    grids = np.indices(dims)
    n_cells = int(np.prod(dims))
    cols = [np.ones(n_cells)]
    col_terms = [()]
    for term in model.terms:
        if not term:
            continue
        codes = {f: _effects_coding(lv[f]) for f in term}
        ranges = [range(lv[f] - 1) for f in term]
        for combo in itertools.product(*ranges):
            col = np.ones(dims)
            for f, m in zip(term, combo):
                col = col * codes[f][grids[axes[f]], m]
            cols.append(col.reshape(-1))
            col_terms.append(term)
    columns = np.column_stack(cols)
    return DesignStructure(
        cell_shape=dims,
        factor_names=names,
        columns=columns,
        column_terms=tuple(col_terms),
        margins=tuple(t for t in model.terms if t),
        generating_class=generating_class(model),
    )


def model_summary(model: NonresponseModel, schema: TableSchema) -> dict:
    return {
        "id": model.id,
        "mechanisms": model.mechanism_display(schema),
        "parameters": parameter_count(model, schema),
        "df": degrees_of_freedom(model, schema),
        "perfect_fit": is_perfect_fit(model, schema),
    }
