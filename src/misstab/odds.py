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

The checks (OddsQuery) and the records of a verdict (CountRatio,
OddsInterval, QueryRecord) are named tuples.  A large schema has
thousands of checks, and assess builds every record in the call,
thousands on a large table; as frozen dataclasses most of their time went
to building them and to the garbage collection those allocations set
off.  A named tuple has no instance dict and no per-field setattr, and
the checks of each variable pair and the records of each family are
built from the columns of their fields by mapping tuple.__new__ over the
type and the zipped rows (_build): the same instances as calling the
type, without running its generated __new__, so no Python frame runs per
check or record.  They compare equal to plain tuples of their fields, and
_replace copies one with a field changed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ComputationError, TableError
from .models import SCHEMA_CACHE_SIZE, observation_map, observed_counts
from .tables import IncompleteTable, TableSchema

MEMBERSHIP_INSIDE = "inside"
MEMBERSHIP_OUTSIDE = "outside"
MEMBERSHIP_UNDEFINED = "undefined"

# Membership codes: positions in _MEMBERSHIPS.
_INSIDE, _OUTSIDE, _UNDEFINED = range(3)
_MEMBERSHIPS = np.array(
    [MEMBERSHIP_INSIDE, MEMBERSHIP_OUTSIDE, MEMBERSHIP_UNDEFINED], dtype=object
)

CLASS_MAR = "MAR"
CLASS_MCAR_OR_NMAR = "MCAR-or-NMAR"
CLASS_INCONCLUSIVE = "inconclusive"


class CountRatio(NamedTuple):
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


class OddsQuery(NamedTuple):
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


class OddsInterval(NamedTuple):
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


def list_queries(schema: TableSchema) -> tuple:
    """Every containment check for the schema, in deterministic order.

    Ordered by assessed missing variable (declared order), then target
    variable (declared order), then level pair (lexicographic), then the
    levels of the remaining variables (lexicographic).  These are the
    checks of screening_plan(schema), which raises TableError on a schema
    it refuses.
    """
    return screening_plan(schema).queries


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


def _exact(counts) -> np.ndarray:
    """counts as int64 while the largest count plus one, squared, stays
    below 2**63, so every product of two counts is exact; else as Python
    ints."""
    counts = np.asarray(counts)
    if counts.size and (int(counts.max()) + 1) ** 2 >= 2**63:
        return counts.astype(object)
    return counts


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
        squared, and exact (see _exact).
        """
        counts = _exact(counts)
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


# Plan entries (checks times the widest level count of a missing variable)
# a schema may need.  The plan holds 17 bytes per entry, and assessing one
# table peaks at about 63 bytes per entry on top, 17 of which the verdict
# keeps; so the budget bounds an assessment near 320 MiB.  A 30x30x30 table
# with two missing variables needs 1 566 000 entries.
PLAN_ENTRY_BUDGET = 1 << 22


def _blocks(schema: TableSchema):
    """The blocks of checks in screening order, one per assessed missing
    variable v (declared order) and target t (declared order, v skipped):
    (v, t, the remaining variables, the block's check count).  A block
    holds one check per level pair of t and levels of the rest."""
    cells = math.prod(l for _, l in schema.variables)
    for v in schema.missing:
        for t, l in schema.variables:
            if t != v:
                rest = [n for n in schema.names if n not in (v, t)]
                count = cells // (schema.levels(v) * l) * math.comb(l, 2)
                yield v, t, rest, count


def plan_entries(schema: TableSchema) -> int:
    """Entries of the schema's screening plan, from its levels alone."""
    checks = sum(count for *_, count in _blocks(schema))
    return checks * max((schema.levels(v) for v in schema.missing), default=0)


@functools.lru_cache(maxsize=SCHEMA_CACHE_SIZE)
def screening_plan(schema: TableSchema) -> ScreeningPlan:
    """The screening plan of a schema, built once and shared.

    A schema of a shape screening does not cover, or one whose plan would
    exceed PLAN_ENTRY_BUDGET entries, raises TableError before any check
    is built.
    """
    if not schema.is_analysis_shape:
        raise TableError(
            f"shape {schema.shape} does not support odds assessment"
        )
    entries = plan_entries(schema)
    if entries > PLAN_ENTRY_BUDGET:
        raise TableError(
            f"screening needs {entries} plan entries, over the budget of"
            f" {PLAN_ENTRY_BUDGET}"
        )
    omap = observation_map(schema)

    def positions(pattern, order):
        """The flat positions of a stratum's cells, its axes in order."""
        k = omap.patterns.index(pattern)
        cells = np.arange(omap.offsets[k], omap.offsets[k + 1], dtype=np.intp)
        names = schema.observed_for(pattern)
        return cells.reshape(omap.shapes[k]).transpose(
            [names.index(n) for n in order]
        )

    width = max(schema.levels(v) for v in schema.missing)
    n_checks = entries // width
    value = np.zeros((2, n_checks), dtype=np.intp)
    odds = np.zeros((2, n_checks, width), dtype=np.intp)
    valid = np.zeros((n_checks, width), dtype=bool)
    family = np.empty(n_checks, dtype=np.intp)
    queries = []
    start = 0
    for v, t, rest, count in _blocks(schema):
        # the level pairs of t in lexicographic order, each over the
        # levels of the rest in lexicographic order
        pairs = itertools.combinations(range(1, schema.levels(t) + 1), 2)
        conditions = itertools.product(
            *([(c, l) for l in range(1, schema.levels(c) + 1)] for c in rest)
        )
        queries.extend(_build(
            OddsQuery,
            itertools.repeat(v, count),
            itertools.repeat(t, count),
            *zip(*itertools.product(pairs, conditions)),
        ))
        margin = positions((v,), [t, *rest])
        full = positions((), [t, *rest, v])
        rows = slice(start, start + count)
        for side, level in enumerate(np.triu_indices(schema.levels(t), 1)):
            value[side, rows] = margin[level].reshape(-1)
            odds[side, rows, : schema.levels(v)] = full[level].reshape(
                -1, schema.levels(v)
            )
        valid[rows, : schema.levels(v)] = True
        family[rows] = schema.missing.index(v)
        start += count
    for arr in (value, odds, valid, family):
        arr.flags.writeable = False
    return ScreeningPlan(
        tuple(queries), family, value[0], value[1], odds[0], odds[1], valid
    )


def _ratio_json(ratio: CountRatio | None):
    """A count ratio as [numerator, denominator], or None."""
    if ratio is None:
        return None
    return [ratio.numerator, ratio.denominator]


class QueryRecord(NamedTuple):
    query: OddsQuery
    value: CountRatio | None
    interval: OddsInterval | None
    membership: str
    note: str = ""

    def as_dict(self) -> dict:
        interval = self.interval
        return {
            "missing_var": self.query.missing_var,
            "target": self.query.target,
            "pair": list(self.query.pair),
            "conditioning": [list(c) for c in self.query.conditioning],
            "value": _ratio_json(self.value),
            "interval": (
                {
                    "values": [
                        [lvl, _ratio_json(r)] for lvl, r in interval.values
                    ],
                    "min": _ratio_json(interval.minimum),
                    "max": _ratio_json(interval.maximum),
                }
                if interval is not None
                else None
            ),
            "membership": self.membership,
            "note": self.note,
        }


def _note(value_undefined, interval_undefined, partial, degenerate) -> str:
    notes = []
    if value_undefined:
        notes.append("non-response odds undefined (zero count)")
    if interval_undefined:
        notes.append("no defined response odds")
    elif partial:
        notes.append("interval omits undefined entries")
    if degenerate:
        notes.append("degenerate interval (all response odds equal)")
    return "; ".join(notes)


# Every note, at 8 * (non-response odds undefined) + 4 * (no defined
# response odds) + 2 * (some response odds undefined) + degenerate.
_NOTES = np.array(
    [_note(*flags) for flags in itertools.product((False, True), repeat=4)],
    dtype=object,
)


def _build(record_type, *columns):
    """Records of a named tuple type, one per row of the columns of its
    fields.  tuple.__new__ makes the same instances as calling the type
    does, without running the type's generated __new__ (a Python frame)
    once per record."""
    return map(tuple.__new__, itertools.repeat(record_type), zip(*columns))


def _family_records(queries, value, odds, codes) -> tuple:
    """The records of one family's checks, from the counts they read.

    value[:, q] is check q's non-response (numerator, denominator),
    odds[:, q, l] its response odds at level l + 1 of the assessed
    variable, and codes[q] its membership as a position in _MEMBERSHIPS.
    Equal (numerator, denominator) pairs share one CountRatio.
    """
    nums, dens = odds
    n_checks, n_levels = nums.shape
    rows = np.arange(n_checks)
    usable = (nums > 0) & (dens > 0)
    # the interval ends are the first entries of least and of greatest
    # value among the usable ones, compared by cross-multiplication
    lo = hi = usable.argmax(axis=1)
    for l in range(1, n_levels):
        n, d, ok = nums[:, l], dens[:, l], usable[:, l]
        lo = np.where(ok & (n * dens[rows, lo] < nums[rows, lo] * d), l, lo)
        hi = np.where(ok & (n * dens[rows, hi] > nums[rows, hi] * d), l, hi)
    defined = usable.any(axis=1)
    degenerate = defined & (
        nums[rows, lo] * dens[rows, hi] == nums[rows, hi] * dens[rows, lo]
    )
    notes = (
        8 * ((value[0] == 0) | (value[1] == 0))
        + 4 * ~defined
        + 2 * ~usable.all(axis=1)
        + degenerate
    )
    num = np.concatenate([value[0], nums.ravel()])
    den = np.concatenate([value[1], dens.ravel()])
    # one CountRatio per distinct (numerator, denominator) and one tuple
    # per distinct (level, ratio) entry; (M + 1)**2 < 2**63 for the
    # largest count M (see _exact), so the keys are exact
    base = int(den.max(initial=0)) + 1
    keys, inverse = np.unique(num * base + den, return_inverse=True)
    ratios = np.fromiter(
        itertools.chain(
            _build(
                CountRatio, (keys // base).tolist(), (keys % base).tolist()
            ),
            [None],
        ),
        dtype=object,
        count=len(keys) + 1,
    )  # the last one stands for an undefined interval end
    at = inverse[n_checks:].reshape(n_checks, n_levels)
    keys, entry = np.unique(
        at * n_levels + np.arange(n_levels), return_inverse=True
    )
    entries = np.fromiter(
        zip((keys % n_levels + 1).tolist(), ratios[keys // n_levels].tolist()),
        dtype=object,
        count=len(keys),
    )
    intervals = _build(
        OddsInterval,
        map(tuple, entries[entry.reshape(n_checks, n_levels)].tolist()),
        ratios[np.where(defined, at[rows, lo], -1)].tolist(),
        ratios[np.where(defined, at[rows, hi], -1)].tolist(),
    )
    return tuple(
        _build(
            QueryRecord,
            queries,
            ratios[inverse[:n_checks]].tolist(),
            intervals,
            _MEMBERSHIPS[codes].tolist(),
            _NOTES[notes].tolist(),
        )
    )


@dataclass(frozen=True)
class FamilyAssessment:
    """All checks whose non-response odds come from one variable's
    supplemental stratum."""

    variable: str
    records: tuple
    suggested_class: str

    def counts(self) -> dict:
        counts = dict.fromkeys(_MEMBERSHIPS, 0)
        for r in self.records:
            counts[r.membership] += 1
        return counts

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


def _classify(tally) -> str:
    inside, outside, _ = tally
    if outside:
        return CLASS_MAR
    if inside:
        return CLASS_MCAR_OR_NMAR
    return CLASS_INCONCLUSIVE


def assess(table: IncompleteTable) -> AssessmentVerdict:
    """Run every containment check and classify each missing variable.

    Any defined non-response odds on or outside its response interval
    suggests MAR; all defined values strictly inside leave MCAR and NMAR
    in play; a family with no defined check at all is inconclusive.  The
    classes and the statement come from the plan's arrays; the records
    are built from the counts each check reads, a family at a time.
    """
    schema = table.schema
    plan = screening_plan(schema)
    flat = _exact(observed_counts(table))
    result = plan.screen(flat[np.newaxis])
    codes = np.where(
        result.defined[0],
        np.where(result.outside[0], _OUTSIDE, _INSIDE),
        _UNDEFINED,
    )
    n_fam = len(schema.missing)
    tallies = np.bincount(
        plan.family * len(_MEMBERSHIPS) + codes,
        minlength=n_fam * len(_MEMBERSHIPS),
    ).reshape(n_fam, len(_MEMBERSHIPS))
    value = flat[np.stack([plan.value_num, plan.value_den])]
    odds = flat[np.stack([plan.odds_num, plan.odds_den])]
    bounds = np.searchsorted(plan.family, np.arange(n_fam + 1)).tolist()
    families = []
    for k, v in enumerate(schema.missing):
        rows = slice(bounds[k], bounds[k + 1])
        records = _family_records(
            plan.queries[rows],
            value[:, rows],
            odds[:, rows, : schema.levels(v)],
            codes[rows],
        )
        families.append(
            FamilyAssessment(v, records, _classify(tallies[k].tolist()))
        )
    totals = tallies.sum(axis=0).tolist()
    overall = _classify(totals)
    n_in, n_out, _ = totals
    n_def = n_in + n_out
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
