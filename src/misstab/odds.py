"""Exact odds screening for the missingness class of incomplete tables.

For each variable subject to missingness, the counts collapsed into its
supplemental stratum yield non-response odds over pairs of levels of the
other variables, while the fully classified stratum yields the matching
response odds at every level of the assessed variable.  A non-response odds
falling strictly inside the open interval spanned by the response odds is
compatible with missingness that ignores the observed variables; a value on
or outside the interval ends points to missingness driven by an observed
variable (class MAR).  All arithmetic on the verdict path is exact integer
arithmetic; no floats enter any comparison.

Every count a check reads sits at a fixed position of the table's flat
observed-cell vector, so a ScreeningPlan (one per schema) holds every check
as index arrays into it and screens a whole matrix of replicate tables at
once by cross-multiplication.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ComputationError, TableError
from .models import observation_map, observed_counts
from .tables import IncompleteTable, TableSchema

MEMBERSHIP_INSIDE = "inside"
MEMBERSHIP_OUTSIDE = "outside"
MEMBERSHIP_UNDEFINED = "undefined"

CLASS_MAR = "MAR"
CLASS_MCAR_OR_NMAR = "MCAR-or-NMAR"
CLASS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CountRatio:
    """A ratio of two raw counts, kept unreduced for display."""

    numerator: int
    denominator: int

    @property
    def defined(self) -> bool:
        # A zero on either side leaves the odds undefined rather than
        # zero or infinite; such entries are excluded and reported.
        return self.numerator > 0 and self.denominator > 0

    @property
    def fraction(self) -> Fraction:
        if not self.defined:
            raise ComputationError("undefined odds has no rational value")
        return Fraction(self.numerator, self.denominator)

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class OddsQuery:
    """One containment check.

    missing_var: the variable whose supplemental stratum supplies the
    non-response odds (and indexes the response odds entries).
    target: the variable whose level pair forms each odds.
    pair: 1-based (a, a') with a != a'.
    conditioning: fixed levels for every remaining variable, as
    (name, level) pairs (empty for two-variable tables).
    """

    missing_var: str
    target: str
    pair: tuple
    conditioning: tuple = ()

    def label(self) -> str:
        cond = "".join(f" | {n}={l}" for n, l in self.conditioning)
        return f"{self.target}({self.pair[0]},{self.pair[1]}){cond}"


@dataclass(frozen=True)
class OddsInterval:
    """Response odds at each level of the assessed variable.

    values: (level, ratio) for every level; minimum and maximum are the
    attaining entries among the defined ones, or None when every entry is
    undefined.
    """

    values: tuple
    minimum: CountRatio | None
    maximum: CountRatio | None

    @property
    def defined(self) -> bool:
        return self.minimum is not None

    @property
    def partial(self) -> bool:
        return any(not r.defined for _, r in self.values)

    @property
    def degenerate(self) -> bool:
        return (
            self.defined and _cross_compare(self.minimum, self.maximum) == 0
        )

    def __str__(self):
        if not self.defined:
            return "(undefined)"
        return f"({self.minimum}, {self.maximum})"


def _cross_compare(x: CountRatio, y: CountRatio) -> int:
    return x.numerator * y.denominator - y.numerator * x.denominator


_BY_VALUE = functools.cmp_to_key(_cross_compare)


def _build_interval(values) -> OddsInterval:
    defined = [r for _, r in values if r.defined]
    if not defined:
        return OddsInterval(tuple(values), None, None)
    lo = min(defined, key=_BY_VALUE)
    hi = max(defined, key=_BY_VALUE)
    return OddsInterval(tuple(values), lo, hi)


def _validate_query(schema: TableSchema, query: OddsQuery):
    if not schema.is_analysis_shape:
        raise TableError(
            f"shape {schema.shape} does not support odds assessment"
        )
    if query.missing_var not in schema.missing:
        raise TableError(
            f"{query.missing_var} is not subject to missingness"
        )
    if query.target == query.missing_var:
        raise TableError("target must differ from the assessed variable")
    lt = schema.levels(query.target)
    a, b = query.pair
    if not (1 <= a <= lt and 1 <= b <= lt) or a == b:
        raise TableError(f"bad level pair {query.pair} for {query.target}")
    rest = [
        n
        for n in schema.names
        if n not in (query.missing_var, query.target)
    ]
    got = [n for n, _ in query.conditioning]
    if got != rest:
        raise TableError(
            f"conditioning must fix exactly {rest}, got {got}"
        )
    for n, l in query.conditioning:
        if not 1 <= l <= schema.levels(n):
            raise TableError(f"bad conditioning level {n}={l}")


def response_odds(table: IncompleteTable, query: OddsQuery) -> OddsInterval:
    """Interval of fully classified odds across the assessed variable.

    Raises when every entry is undefined (a zero count in each ratio).
    """
    interval = _response_interval(table, query)
    if not interval.defined:
        raise ComputationError("no defined response odds")
    return interval


def _response_interval(table, query) -> OddsInterval:
    schema = table.schema
    _validate_query(schema, query)
    counts = table.full.counts
    fixed = dict(query.conditioning)
    a, b = query.pair
    values = []
    for lvl in range(1, schema.levels(query.missing_var) + 1):
        idx_num = []
        idx_den = []
        for name in schema.names:
            if name == query.missing_var:
                idx_num.append(lvl - 1)
                idx_den.append(lvl - 1)
            elif name == query.target:
                idx_num.append(a - 1)
                idx_den.append(b - 1)
            else:
                idx_num.append(fixed[name] - 1)
                idx_den.append(fixed[name] - 1)
        num = int(counts[tuple(idx_num)])
        den = int(counts[tuple(idx_den)])
        values.append((lvl, CountRatio(num, den)))
    return _build_interval(values)


def nonresponse_odds(table: IncompleteTable, query: OddsQuery) -> CountRatio:
    """Odds over the target pair in the assessed variable's supplemental
    stratum.  A zero count on either side makes the value undefined."""
    schema = table.schema
    _validate_query(schema, query)
    st = table.stratum({query.missing_var})
    fixed = dict(query.conditioning)
    a, b = query.pair
    idx_num = []
    idx_den = []
    for name in st.observed:
        if name == query.target:
            idx_num.append(a - 1)
            idx_den.append(b - 1)
        else:
            idx_num.append(fixed[name] - 1)
            idx_den.append(fixed[name] - 1)
    num = int(st.counts[tuple(idx_num)])
    den = int(st.counts[tuple(idx_den)])
    return CountRatio(num, den)


def membership(value, interval) -> str:
    """Strict open-interval membership with exact rational comparison.

    Undefined inputs propagate; an endpoint hit or a degenerate interval
    counts as outside.
    """
    if value is None or interval is None:
        return MEMBERSHIP_UNDEFINED
    if isinstance(value, CountRatio):
        if not value.defined:
            return MEMBERSHIP_UNDEFINED
        v = value.fraction
    else:
        v = Fraction(value)
    if not interval.defined:
        return MEMBERSHIP_UNDEFINED
    lo = interval.minimum.fraction
    hi = interval.maximum.fraction
    if lo == hi:
        return MEMBERSHIP_OUTSIDE
    return MEMBERSHIP_INSIDE if lo < v < hi else MEMBERSHIP_OUTSIDE


def list_queries(schema: TableSchema) -> tuple:
    """Every containment check for the schema, in deterministic order.

    Ordered by assessed missing variable (declared order), then target
    variable (declared order), then level pair (lexicographic), then
    conditioning level (ascending).
    """
    if not schema.is_analysis_shape:
        raise TableError(
            f"shape {schema.shape} does not support odds assessment"
        )
    queries = []
    for v in schema.missing:
        for t in schema.names:
            if t == v:
                continue
            rest = [n for n in schema.names if n not in (v, t)]
            pairs = itertools.combinations(
                range(1, schema.levels(t) + 1), 2
            )
            for pair in pairs:
                if rest:
                    c = rest[0]
                    for lvl in range(1, schema.levels(c) + 1):
                        queries.append(
                            OddsQuery(v, t, pair, ((c, lvl),))
                        )
                else:
                    queries.append(OddsQuery(v, t, pair, ()))
    return tuple(queries)


# Replicate x check x level cells one screening step holds at most, so the
# memory of a bootstrap does not grow with its replicate count.
_BLOCK_CELLS = 1 << 18


class Screening(NamedTuple):
    """Memberships of every check (columns, in list_queries order) in every
    screened table (rows)."""

    value_defined: np.ndarray  # no zero in the non-response odds
    interval_defined: np.ndarray  # some response odds without a zero
    outside: np.ndarray  # defined, and on or outside the open interval

    @property
    def defined(self) -> np.ndarray:
        return self.value_defined & self.interval_defined


@dataclass(frozen=True, eq=False)
class ScreeningPlan:
    """Every containment check of a schema as positions in the flat
    observed-cell vector (the order of models.observed_counts).

    Check q reads its non-response odds as c[value_num[q]] /
    c[value_den[q]] and its response odds at level l + 1 of the assessed
    variable as c[odds_num[q, l]] / c[odds_den[q, l]]; rows are padded to
    the largest level count and odds_valid marks the real entries.
    family[q] is the position of the assessed variable in schema.missing.
    """

    queries: tuple
    family: np.ndarray
    value_num: np.ndarray
    value_den: np.ndarray
    odds_num: np.ndarray
    odds_den: np.ndarray
    odds_valid: np.ndarray

    @property
    def block_rows(self) -> int:
        """Tables screened per step."""
        return max(1, _BLOCK_CELLS // self.odds_num.size)

    def screen(self, counts) -> Screening:
        """Memberships of every check in each row of a tables x
        observed-cells count matrix.

        Exact: a defined response odds a/b lies below the non-response
        odds n/d iff a*d < n*b, so a check is inside iff some defined
        response odds lies below and some above (a degenerate interval is
        therefore outside).  Every product is at most the largest count
        squared; while that stays below 2**63 the products are int64,
        otherwise the same expressions run on Python ints.
        """
        counts = np.asarray(counts)
        if counts.size and int(counts.max()) ** 2 >= 2**63:
            counts = counts.astype(object)
        n = counts[:, self.value_num]
        d = counts[:, self.value_den]
        a = counts[:, self.odds_num]
        b = counts[:, self.odds_den]
        usable = self.odds_valid & (a > 0) & (b > 0)
        ad = a * d[..., np.newaxis]
        nb = n[..., np.newaxis] * b
        below = (usable & (ad < nb)).any(axis=-1)
        above = (usable & (ad > nb)).any(axis=-1)
        value_defined = (n > 0) & (d > 0)
        interval_defined = usable.any(axis=-1)
        outside = value_defined & interval_defined & ~(below & above)
        return Screening(value_defined, interval_defined, outside)


@functools.lru_cache(maxsize=None)
def screening_plan(schema: TableSchema) -> ScreeningPlan:
    """The screening plan of a schema, built once and shared."""
    queries = list_queries(schema)
    omap = observation_map(schema)

    def positions(pattern):
        k = omap.patterns.index(pattern)
        cells = np.arange(omap.offsets[k], omap.offsets[k + 1])
        return cells.reshape(omap.shapes[k])

    full = positions(())
    margins = {v: positions((v,)) for v in schema.missing}
    width = max(schema.levels(v) for v in schema.missing)
    value = np.zeros((2, len(queries)), dtype=np.intp)
    odds = np.zeros((2, len(queries), width), dtype=np.intp)
    valid = np.zeros((len(queries), width), dtype=bool)
    family = np.empty(len(queries), dtype=np.intp)
    for q, query in enumerate(queries):
        v = query.missing_var
        for side, level in enumerate(query.pair):
            at = dict(query.conditioning)
            at[query.target] = level
            value[side, q] = margins[v][
                tuple(at[n] - 1 for n in schema.observed_for((v,)))
            ]
            row = full[
                tuple(at[n] - 1 if n in at else slice(None)
                      for n in schema.names)
            ]
            odds[side, q, : row.size] = row
        valid[q, : schema.levels(v)] = True
        family[q] = schema.missing.index(v)
    for arr in (value, odds, valid, family):
        arr.flags.writeable = False
    return ScreeningPlan(
        queries, family, value[0], value[1], odds[0], odds[1], valid
    )


@dataclass(frozen=True)
class QueryRecord:
    query: OddsQuery
    value: CountRatio | None
    interval: OddsInterval | None
    membership: str
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "missing_var": self.query.missing_var,
            "target": self.query.target,
            "pair": list(self.query.pair),
            "conditioning": [list(c) for c in self.query.conditioning],
            "value": (
                [self.value.numerator, self.value.denominator]
                if self.value is not None
                else None
            ),
            "interval": (
                {
                    "values": [
                        [lvl, [r.numerator, r.denominator]]
                        for lvl, r in self.interval.values
                    ],
                    "min": (
                        [
                            self.interval.minimum.numerator,
                            self.interval.minimum.denominator,
                        ]
                        if self.interval.defined
                        else None
                    ),
                    "max": (
                        [
                            self.interval.maximum.numerator,
                            self.interval.maximum.denominator,
                        ]
                        if self.interval.defined
                        else None
                    ),
                }
                if self.interval is not None
                else None
            ),
            "membership": self.membership,
            "note": self.note,
        }


@dataclass(frozen=True)
class FamilyAssessment:
    """All checks whose non-response odds come from one variable's
    supplemental stratum."""

    variable: str
    records: tuple
    suggested_class: str

    def counts(self) -> dict:
        out = {
            MEMBERSHIP_INSIDE: 0,
            MEMBERSHIP_OUTSIDE: 0,
            MEMBERSHIP_UNDEFINED: 0,
        }
        for r in self.records:
            out[r.membership] += 1
        return out

    def as_dict(self) -> dict:
        return {
            "variable": self.variable,
            "suggested_class": self.suggested_class,
            "records": [r.as_dict() for r in self.records],
        }


@dataclass(frozen=True)
class AssessmentVerdict:
    families: tuple
    suggested_class: str
    statement: str

    def family(self, variable: str) -> FamilyAssessment:
        for fam in self.families:
            if fam.variable == variable:
                return fam
        raise KeyError(variable)

    @property
    def records(self) -> tuple:
        return tuple(r for fam in self.families for r in fam.records)

    def as_dict(self) -> dict:
        return {
            "suggested_class": self.suggested_class,
            "statement": self.statement,
            "families": [f.as_dict() for f in self.families],
        }


def _classify(records) -> str:
    memberships = [r.membership for r in records]
    if any(m == MEMBERSHIP_OUTSIDE for m in memberships):
        return CLASS_MAR
    if all(m == MEMBERSHIP_UNDEFINED for m in memberships):
        return CLASS_INCONCLUSIVE
    return CLASS_MCAR_OR_NMAR


def assess(table: IncompleteTable) -> AssessmentVerdict:
    """Run every containment check and classify each missing variable.

    Any defined non-response odds on or outside its response interval
    suggests MAR; all defined values strictly inside leave MCAR and NMAR
    in play; a family with no defined check at all is inconclusive.
    """
    schema = table.schema
    plan = screening_plan(schema)
    flat = observed_counts(table)
    result = plan.screen(flat[np.newaxis])
    value_num = flat[plan.value_num].tolist()
    value_den = flat[plan.value_den].tolist()
    odds_num = flat[plan.odds_num].tolist()
    odds_den = flat[plan.odds_den].tolist()
    defined = result.defined[0].tolist()
    outside = result.outside[0].tolist()
    records = {v: [] for v in schema.missing}
    for q, query in enumerate(plan.queries):
        value = CountRatio(value_num[q], value_den[q])
        levels = range(1, schema.levels(query.missing_var) + 1)
        interval = _build_interval(
            [
                (lvl, CountRatio(num, den))
                for lvl, num, den in zip(levels, odds_num[q], odds_den[q])
            ]
        )
        if not defined[q]:
            status = MEMBERSHIP_UNDEFINED
        elif outside[q]:
            status = MEMBERSHIP_OUTSIDE
        else:
            status = MEMBERSHIP_INSIDE
        notes = []
        if not value.defined:
            notes.append("non-response odds undefined (zero count)")
        if not interval.defined:
            notes.append("no defined response odds")
        elif interval.partial:
            notes.append("interval omits undefined entries")
        if interval.defined and interval.degenerate:
            notes.append("degenerate interval (all response odds equal)")
        records[query.missing_var].append(
            QueryRecord(query, value, interval, status, "; ".join(notes))
        )
    families = [
        FamilyAssessment(v, tuple(recs), _classify(recs))
        for v, recs in records.items()
    ]
    overall_records = [r for f in families for r in f.records]
    overall = _classify(overall_records)
    n_out = sum(
        1 for r in overall_records if r.membership == MEMBERSHIP_OUTSIDE
    )
    n_def = sum(
        1 for r in overall_records if r.membership != MEMBERSHIP_UNDEFINED
    )
    joint = " or ".join(schema.missing)
    if overall == CLASS_MAR:
        statement = (
            f"{n_out} of {n_def} defined non-response odds fall outside "
            f"their response odds intervals; suggested class for {joint}: MAR"
        )
    elif overall == CLASS_MCAR_OR_NMAR:
        statement = (
            f"all {n_def} defined non-response odds lie strictly inside "
            f"their response odds intervals; suggested class for {joint}: "
            "MCAR-or-NMAR"
        )
    else:
        statement = (
            "every non-response odds is undefined; "
            f"suggested class for {joint}: inconclusive"
        )
    return AssessmentVerdict(tuple(families), overall, statement)
