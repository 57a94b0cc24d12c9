"""Catalogs of log-linear non-response models for incomplete tables.

Each model pairs every variable subject to missingness with a mechanism:
MCAR (its recording indicator depends on no variable), NMAR (the indicator
depends on the variable itself), or MAR with a named donor (the indicator
depends on another, recorded, variable).  The model's terms are the
intercept, all main effects, the fully saturated association block among
the substantive variables, the association among the indicators when there
are two, and exactly one variable-by-indicator term per non-MCAR mechanism.

Model ids are stable strings.  Two-variable tables carry the nine-model
family M1..M9, three-variable tables with one missing variable carry C1..C4,
and three-variable tables with two missing variables carry sixteen models
split into the six groups D1..D6 by mechanism type.  Positional labels
Y1, Y2, Y3 in ids and summaries refer to variables in declared order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TableError
from .tables import (
    SHAPE_THREE_ONE,
    SHAPE_THREE_TWO,
    SHAPE_TWO_BOTH,
    TableSchema,
)

MECH_MCAR = "MCAR"
MECH_NMAR = "NMAR"
MECH_MAR = "MAR"

DF_POISSON_CELLS = "poisson-cells"
DF_MULTINOMIAL = "multinomial"
DF_CONVENTIONS = (DF_POISSON_CELLS, DF_MULTINOMIAL)

# schemas whose observation map and screening plan stay cached; a process
# that meets more schemas rebuilds the least recently used
SCHEMA_CACHE_SIZE = 64


def indicator_factor(var: str) -> str:
    """Name of the recording indicator factor for a variable."""
    return f"R({var})"


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
    cell it is summed into, and cells_per_obs counts those cells.
    """

    patterns: tuple
    offsets: tuple
    shapes: tuple
    obs_index: np.ndarray
    cells_per_obs: np.ndarray

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
    cells_per_obs = np.bincount(obs_index, minlength=offsets[-1])
    for arr in (obs_index, cells_per_obs):
        arr.flags.writeable = False
    return ObservationMap(
        schema.patterns(), tuple(offsets), tuple(shapes), obs_index,
        cells_per_obs,
    )


def observed_counts(table) -> np.ndarray:
    """A table's counts in the observed-cell order of its observation map."""
    return np.concatenate([np.ravel(st.counts) for st in table.strata])


def factor_levels(schema: TableSchema) -> dict:
    lv = {n: schema.levels(n) for n in schema.names}
    for m in schema.missing:
        lv[indicator_factor(m)] = 2
    return lv


def _sorted_term(schema: TableSchema, factors) -> tuple:
    axes = factor_axes(schema)
    return tuple(sorted(factors, key=lambda f: axes[f]))


def _base_terms(schema: TableSchema) -> list:
    names = schema.names
    terms = [()]
    for n in names:
        terms.append((n,))
    for pair in itertools.combinations(names, 2):
        terms.append(pair)
    if len(names) == 3:
        terms.append(tuple(names))
    inds = [indicator_factor(m) for m in schema.missing]
    for r in inds:
        terms.append((r,))
    if len(inds) == 2:
        terms.append(tuple(inds))
    return terms


def _mechanism_terms(schema: TableSchema, mechanisms) -> list:
    terms = []
    for v, mech in mechanisms:
        r = indicator_factor(v)
        if mech.kind == MECH_NMAR:
            terms.append(_sorted_term(schema, (v, r)))
        elif mech.kind == MECH_MAR:
            terms.append(_sorted_term(schema, (mech.donor, r)))
    return terms


def _make_model(schema, model_id, mechanisms) -> NonresponseModel:
    # every mechanism term pairs a variable with a distinct indicator, and
    # no base term does, so the terms are already distinct
    terms = _base_terms(schema) + _mechanism_terms(schema, mechanisms)
    return NonresponseModel(model_id, tuple(mechanisms), tuple(terms))


_M_CATALOG = (
    ("M1", MECH_NMAR, MECH_MCAR),
    ("M2", MECH_NMAR, MECH_MAR),
    ("M3", MECH_NMAR, MECH_NMAR),
    ("M4", MECH_MAR, MECH_MCAR),
    ("M5", MECH_MAR, MECH_MAR),
    ("M6", MECH_MAR, MECH_NMAR),
    ("M7", MECH_MCAR, MECH_MAR),
    ("M8", MECH_MCAR, MECH_NMAR),
    ("M9", MECH_MCAR, MECH_MCAR),
)


def enumerate_models(schema: TableSchema) -> tuple:
    """The complete model catalog for the schema's shape."""
    shape = schema.shape
    if shape == SHAPE_TWO_BOTH:
        v1, v2 = schema.missing
        out = []
        for mid, k1, k2 in _M_CATALOG:
            m1 = Mechanism(k1, v2 if k1 == MECH_MAR else None)
            m2 = Mechanism(k2, v1 if k2 == MECH_MAR else None)
            out.append(_make_model(schema, mid, ((v1, m1), (v2, m2))))
        return tuple(out)
    if shape == SHAPE_THREE_ONE:
        v = schema.missing[0]
        donors = [n for n in schema.names if n != v]
        specs = [
            ("C1", Mechanism(MECH_NMAR)),
            ("C2", Mechanism(MECH_MAR, donors[0])),
            ("C3", Mechanism(MECH_MAR, donors[1])),
            ("C4", Mechanism(MECH_MCAR)),
        ]
        return tuple(
            _make_model(schema, mid, ((v, m),)) for mid, m in specs
        )
    if shape == SHAPE_THREE_TWO:
        v1, v2 = schema.missing

        def options(v):
            donors = [n for n in schema.names if n != v]
            opts = [Mechanism(MECH_NMAR)]
            opts.extend(Mechanism(MECH_MAR, d) for d in donors)
            opts.append(Mechanism(MECH_MCAR))
            return opts

        def group(m1, m2):
            kinds = {m1.kind, m2.kind}
            if kinds == {MECH_MCAR}:
                return 1
            if kinds == {MECH_NMAR}:
                return 2
            if kinds == {MECH_MAR}:
                return 3
            if kinds == {MECH_MCAR, MECH_NMAR}:
                return 4
            if kinds == {MECH_MCAR, MECH_MAR}:
                return 5
            return 6

        combos = itertools.product(options(v1), options(v2))
        out = []
        for m1, m2 in sorted(combos, key=lambda pair: group(*pair)):
            g = group(m1, m2)
            mid = (
                f"D{g}:{y_label(schema, v1)}={m1.display(schema)},"
                f"{y_label(schema, v2)}={m2.display(schema)}"
            )
            out.append(_make_model(schema, mid, ((v1, m1), (v2, m2))))
        return tuple(out)
    raise TableError(f"shape {shape} has no model catalog")


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
    less free parameters (the poisson-cells convention).

    The multinomial convention removes the fixed total from each side
    first, which gives the same number, so DF_CONVENTIONS only names the
    accepted spellings.
    """
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
