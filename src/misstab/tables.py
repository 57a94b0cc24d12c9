"""Incomplete contingency tables with supplemental margins.

A table couples a fully classified stratum (every variable recorded) with
supplemental strata in which one or more variables went unrecorded, so those
counts are collapsed over the unrecorded variables' levels.  Analysis
front ends support three layouts: two variables with both subject to
missingness, three variables with one subject to missingness, and three
variables with two subject to missingness.  Two further layouts are accepted
as containers only (three variables all subject to missingness, and tables
with no missing variable at all) because subtable extraction needs them.

Levels are 1-based in every public interface.  Count arrays are stored as
read-only int64 arrays indexed by the observed variables in declared order.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import TableError

SHAPE_TWO_BOTH = "IxJx2x2"
SHAPE_THREE_ONE = "IxJxKx2"
SHAPE_THREE_TWO = "IxJxKx2x2"
SHAPE_THREE_ALL = "IxJxKx2x2x2"
SHAPE_COMPLETE = "complete"

# Layouts the assessment and fitting front ends accept.
ANALYSIS_SHAPES = (SHAPE_TWO_BOTH, SHAPE_THREE_ONE, SHAPE_THREE_TWO)

# Largest table total: counts are int64 and so are replicate draws of N.
INT64_MAX = int(np.iinfo(np.int64).max)


def _as_count_array(raw, where):
    try:
        arr = np.asarray(raw)
    except Exception as exc:
        raise TableError(f"{where}: cannot read counts ({exc})")
    if arr.dtype == object:
        if arr.size and all(type(x) is int for x in arr.flat):
            raise TableError(f"{where}: count outside the int64 range")
        raise TableError(f"{where}: ragged or non-numeric counts")
    if np.issubdtype(arr.dtype, np.floating):
        if not np.all(np.isfinite(arr)) or np.any(arr != np.floor(arr)):
            raise TableError(f"{where}: counts must be integers")
    elif not (np.issubdtype(arr.dtype, np.integer) or arr.dtype == bool):
        raise TableError(f"{where}: counts must be integers")
    if arr.size and int(arr.max()) > INT64_MAX:
        raise TableError(f"{where}: count outside the int64 range")
    arr = arr.astype(np.int64)
    if np.any(arr < 0):
        flat = int(np.argmin(arr.reshape(-1)))
        idx = np.unravel_index(flat, arr.shape) if arr.ndim else ()
        pos = ", ".join(str(i + 1) for i in idx)
        raise TableError(f"{where}[{pos}]: negative count")
    arr.flags.writeable = False
    return arr


def indicator_factor(var: str) -> str:
    """Name of the recording indicator factor for a variable."""
    return f"R({var})"


def _is_int(x) -> bool:
    """An integer that is not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A real number that is not a bool."""
    real = (int, float, np.integer, np.floating)
    return isinstance(x, real) and not isinstance(x, bool)


def _name(where, name) -> str:
    if not isinstance(name, str) or not name:
        raise TableError(f"{where}: name must be a nonempty string")
    return str(name)


def _sequence(where, items) -> tuple:
    """Items as a tuple; a bare string is not taken for a sequence."""
    if isinstance(items, str):
        raise TableError(f"{where}: must be a sequence, not one string")
    try:
        return tuple(items)
    except TypeError:
        raise TableError(f"{where}: must be a sequence") from None


def _variable(i, entry) -> tuple:
    try:
        name, levels = entry
    except (TypeError, ValueError):
        raise TableError(
            f"variables[{i}]: must be a (name, levels) pair"
        ) from None
    name = _name(f"variables[{i}]", name)
    return name, _levels(name, levels)


def _levels(name, levels) -> int:
    if isinstance(levels, (float, np.floating)) and float(levels).is_integer():
        levels = int(levels)
    if not _is_int(levels):
        raise TableError(f"variable {name}: levels must be an integer")
    return int(levels)


def pattern_label(unobserved) -> str:
    """Human-readable label for a missingness pattern."""
    names = tuple(unobserved)
    if not names:
        return "{fully observed}"
    return "{" + ", ".join(names) + " unobserved}"


@dataclass(frozen=True)
class TableSchema:
    """Variable layout of an incomplete table.

    variables: ordered (name, levels) pairs; the declared order fixes the
    axis order of every count array.  Names are distinct nonempty strings,
    and none spells the recording indicator of a missing variable (R(name));
    levels are integers of at least 2.
    missing: a sequence of the names of the variables subject to
    missingness, kept in declared order.
    """

    variables: tuple
    missing: tuple

    def __post_init__(self):
        variables = tuple(
            _variable(i, v)
            for i, v in enumerate(_sequence("variables", self.variables))
        )
        names = [n for n, _ in variables]
        if len(variables) not in (2, 3):
            raise TableError("a table needs 2 or 3 variables")
        if len(set(names)) != len(names):
            raise TableError("duplicate variable name")
        for n, l in variables:
            if l < 2:
                raise TableError(f"variable {n}: needs at least 2 levels")
        missing = tuple(
            _name(f"missing[{i}]", m)
            for i, m in enumerate(_sequence("missing", self.missing))
        )
        if len(set(missing)) != len(missing):
            raise TableError("duplicate name in missing list")
        for m in missing:
            if m not in names:
                raise TableError(f"missing list names unknown variable {m}")
        # canonical order follows the declared variable order
        missing = tuple(n for n in names if n in missing)
        for m in missing:
            if indicator_factor(m) in names:
                raise TableError(
                    f"variable {indicator_factor(m)} is named like the"
                    f" recording indicator of missing variable {m}"
                )
        if len(variables) == 2 and len(missing) == 1:
            raise TableError(
                "a 2-variable table must have both variables missing or none"
            )
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "missing", missing)

    @property
    def names(self) -> tuple:
        return tuple(n for n, _ in self.variables)

    def levels(self, name: str) -> int:
        for n, l in self.variables:
            if n == name:
                return l
        raise TableError(f"unknown variable {name}")

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.variables):
            if n == name:
                return i
        raise TableError(f"unknown variable {name}")

    @property
    def shape(self) -> str:
        n, m = len(self.variables), len(self.missing)
        if m == 0:
            return SHAPE_COMPLETE
        if n == 2:
            return SHAPE_TWO_BOTH
        return {1: SHAPE_THREE_ONE, 2: SHAPE_THREE_TWO, 3: SHAPE_THREE_ALL}[m]

    @property
    def is_analysis_shape(self) -> bool:
        return self.shape in ANALYSIS_SHAPES

    def patterns(self) -> tuple:
        """All missingness patterns, as tuples of unobserved names.

        Ordered by number of unobserved variables, then declared order, so
        the fully observed pattern comes first.
        """
        out = []
        for size in range(len(self.missing) + 1):
            for combo in itertools.combinations(self.missing, size):
                out.append(combo)
        return tuple(out)

    def observed_for(self, unobserved) -> tuple:
        unobs = set(unobserved)
        return tuple(n for n in self.names if n not in unobs)


@dataclass(frozen=True, eq=False)
class Stratum:
    """Counts for one missingness pattern.

    observed: names of the variables recorded in this stratum, in declared
    order.  counts: read-only int64 array with one axis per observed
    variable (0-dimensional when nothing is observed).
    """

    observed: tuple
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "observed", tuple(self.observed))
        object.__setattr__(
            self, "counts", _as_count_array(self.counts, "counts")
        )

    @property
    def total(self) -> int:
        # Python ints: an int64 sum would wrap silently
        return sum(self.counts.ravel().tolist())

    def __eq__(self, other):
        if not isinstance(other, Stratum):
            return NotImplemented
        return self.observed == other.observed and np.array_equal(
            self.counts, other.counts
        )

    def __repr__(self):
        return f"Stratum(observed={self.observed!r}, total={self.total})"


@dataclass(frozen=True, eq=False)
class IncompleteTable:
    """A full stratum plus one supplemental stratum per missingness pattern.

    Immutable.  Every pattern over the schema's missing variables must be
    present exactly once, and each stratum's count array must match the
    extents of its observed variables.
    """

    schema: TableSchema
    strata: tuple
    # the total count, summed once: the table cannot change
    N: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        strata = tuple(self.strata)
        by_pattern = {}
        names = self.schema.names
        for st in strata:
            if not isinstance(st, Stratum):
                raise TableError("strata must be Stratum instances")
            for v in st.observed:
                if v not in names:
                    raise TableError(f"stratum observes unknown variable {v}")
            if tuple(st.observed) != self.schema.observed_for(
                set(names) - set(st.observed)
            ):
                raise TableError(
                    "stratum observed variables must follow declared order"
                )
            unobs = tuple(n for n in names if n not in st.observed)
            for v in unobs:
                if v not in self.schema.missing:
                    raise TableError(
                        f"variable {v} is not subject to missingness"
                    )
            if unobs in by_pattern:
                raise TableError(
                    f"duplicate stratum for pattern {pattern_label(unobs)}"
                )
            want = tuple(self.schema.levels(v) for v in st.observed)
            if st.counts.shape != want:
                raise TableError(
                    f"stratum {pattern_label(unobs)}: counts extents "
                    f"{st.counts.shape} do not match variables {want}"
                )
            by_pattern[unobs] = st
        ordered = []
        for pat in self.schema.patterns():
            if pat not in by_pattern:
                raise TableError(
                    f"missing stratum for pattern {pattern_label(pat)}"
                )
            ordered.append(by_pattern.pop(pat))
        if by_pattern:
            extra = next(iter(by_pattern))
            raise TableError(
                f"unexpected stratum for pattern {pattern_label(extra)}"
            )
        object.__setattr__(self, "strata", tuple(ordered))
        total = sum(st.total for st in ordered)
        if total > INT64_MAX:
            raise TableError(
                f"total count {total} overflows int64 (max {INT64_MAX})"
            )
        object.__setattr__(self, "N", total)

    def pattern_of(self, stratum: Stratum) -> tuple:
        return tuple(
            n for n in self.schema.names if n not in stratum.observed
        )

    def stratum(self, unobserved) -> Stratum:
        """Stratum whose unobserved set equals the given names."""
        unobs = set(unobserved)
        for st in self.strata:
            if set(self.pattern_of(st)) == unobs:
                return st
        raise TableError(
            f"no stratum for pattern {pattern_label(sorted(unobs))}"
        )

    @property
    def full(self) -> Stratum:
        return self.strata[0]

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, IncompleteTable):
            return NotImplemented
        return self.schema == other.schema and all(
            a == b for a, b in zip(self.strata, other.strata)
        )

    def __repr__(self):
        return (
            f"IncompleteTable(shape={self.schema.shape}, N={self.N}, "
            f"strata={len(self.strata)})"
        )


def _table_from_nested(variables, missing, strata_counts) -> IncompleteTable:
    schema = TableSchema(tuple(variables), tuple(missing))
    strata = []
    for unobs, counts in strata_counts.items():
        observed = schema.observed_for(unobs)
        strata.append(Stratum(observed, counts))
    return IncompleteTable(schema, tuple(strata))


def load_table(text: str) -> IncompleteTable:
    """Parse the structured document format.

    The document is a JSON object with keys `variables` (list of
    {name, levels}), `missing` (list of names), and `strata` (list of
    {observed: [names], counts: nested arrays in declared axis order}).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableError(f"parse error: {exc}")
    if not isinstance(doc, dict):
        raise TableError("document root must be an object")
    for key in ("variables", "missing", "strata"):
        if key not in doc:
            raise TableError(f"document lacks required key {key}")
    raw_vars = doc["variables"]
    if not isinstance(raw_vars, list):
        raise TableError("variables: must be a list")
    variables = []
    for i, item in enumerate(raw_vars):
        if (
            not isinstance(item, dict)
            or "name" not in item
            or "levels" not in item
        ):
            raise TableError(f"variables[{i}]: needs name and levels")
        levels = item["levels"]
        if isinstance(levels, float) and levels.is_integer():
            levels = int(levels)
        if isinstance(levels, bool) or not isinstance(levels, int):
            raise TableError(f"variables[{i}].levels: must be an integer")
        variables.append((item["name"], levels))
    missing = doc["missing"]
    if not isinstance(missing, list):
        raise TableError("missing: must be a list")
    schema = TableSchema(tuple(variables), tuple(missing))
    raw_strata = doc["strata"]
    if not isinstance(raw_strata, list):
        raise TableError("strata: must be a list")
    strata = []
    for i, item in enumerate(raw_strata):
        if (
            not isinstance(item, dict)
            or "observed" not in item
            or "counts" not in item
        ):
            raise TableError(f"strata[{i}]: needs observed and counts")
        if not isinstance(item["observed"], list):
            raise TableError(f"strata[{i}].observed: must be a list")
        observed = tuple(item["observed"])
        counts = _as_count_array(item["counts"], f"strata[{i}].counts")
        strata.append(Stratum(observed, counts))
    return IncompleteTable(schema, tuple(strata))


def dump_table(table: IncompleteTable) -> str:
    """Serialize to the structured document format.

    load_table(dump_table(t)) reproduces t exactly.
    """
    doc = {
        "variables": [
            {"name": n, "levels": l} for n, l in table.schema.variables
        ],
        "missing": list(table.schema.missing),
        "strata": [
            {"observed": list(st.observed), "counts": st.counts.tolist()}
            for st in table.strata
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_table_csv(text: str) -> IncompleteTable:
    """Parse the flat CSV variant.

    One row per cell.  The header names one column per variable plus a
    final `count` column.  Cells carry the 1-based level index for each
    observed variable and the literal `*` for each unobserved one.  A
    variable is treated as subject to missingness when any row stars it;
    its level count is the largest index appearing in its column.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(c.strip() for c in row)]
    if not rows:
        raise TableError("empty CSV document")
    header = [c.strip() for c in rows[0]]
    if "count" not in header:
        raise TableError("CSV header needs a count column")
    count_col = header.index("count")
    var_names = [c for i, c in enumerate(header) if i != count_col]
    if not var_names:
        raise TableError("CSV header names no variables")
    var_cols = [i for i in range(len(header)) if i != count_col]
    levels = {n: 0 for n in var_names}
    missing = []
    parsed = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise TableError(f"CSV row {r}: wrong number of fields")
        key = []
        for n, col in zip(var_names, var_cols):
            cell = row[col].strip()
            if cell == "*":
                key.append(None)
                if n not in missing:
                    missing.append(n)
                continue
            try:
                lvl = int(cell)
            except ValueError:
                raise TableError(f"CSV row {r}: bad level {cell!r} for {n}")
            if lvl < 1:
                raise TableError(f"CSV row {r}: level index must be >= 1")
            levels[n] = max(levels[n], lvl)
            key.append(lvl)
        try:
            cnt = int(row[count_col].strip())
        except ValueError:
            raise TableError(f"CSV row {r}: bad count {row[count_col]!r}")
        if cnt < 0:
            raise TableError(f"CSV row {r}: negative count")
        if cnt > INT64_MAX:
            raise TableError(f"CSV row {r}: count outside the int64 range")
        parsed.append((tuple(key), cnt))
    for n in var_names:
        if levels[n] < 2:
            raise TableError(f"variable {n}: needs at least 2 levels")
    schema = TableSchema(
        tuple((n, levels[n]) for n in var_names),
        tuple(n for n in var_names if n in missing),
    )
    cells = {}
    for key, cnt in parsed:
        if key in cells:
            raise TableError(f"CSV repeats cell {key}")
        cells[key] = cnt
    strata = []
    for pat in schema.patterns():
        observed = schema.observed_for(pat)
        dims = tuple(schema.levels(v) for v in observed)
        arr = np.zeros(dims, dtype=np.int64)
        for combo in itertools.product(*(range(1, d + 1) for d in dims)):
            lookup = {v: c for v, c in zip(observed, combo)}
            key = tuple(lookup.get(n) for n in var_names)
            if key not in cells:
                raise TableError(
                    f"CSV lacks cell {key} for pattern {pattern_label(pat)}"
                )
            arr[tuple(c - 1 for c in combo)] = cells.pop(key)
        strata.append(Stratum(observed, arr))
    if cells:
        raise TableError(f"CSV has rows for unknown pattern: {next(iter(cells))}")
    return IncompleteTable(schema, tuple(strata))


def sniff_and_load(text: str) -> IncompleteTable:
    """Load either document format, deciding by the leading character."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return load_table(text)
    return load_table_csv(text)


def subtable(table: IncompleteTable, keep_patterns) -> IncompleteTable:
    """Restrict a table to a subset of its missingness patterns.

    Each kept pattern is a collection of unobserved variable names (the
    empty collection keeps the full stratum, which is mandatory).  The
    kept set must form the complete lattice of subsets of its union, so
    the result is itself a valid table whose missing variables are that
    union.  Applying subtable twice with the same patterns is a no-op.
    """
    names = table.schema.names
    keep = set()
    for pat in keep_patterns:
        for v in pat:
            if v not in names:
                raise TableError(f"pattern names unknown variable {v}")
            if v not in table.schema.missing:
                raise TableError(
                    f"pattern names variable not subject to missingness: {v}"
                )
        keep.add(tuple(n for n in names if n in set(pat)))
    if () not in keep:
        raise TableError("subtable must keep the fully observed pattern")
    union = tuple(n for n in names if any(n in p for p in keep))
    want = {
        combo
        for size in range(len(union) + 1)
        for combo in itertools.combinations(union, size)
    }
    if keep != want:
        raise TableError(
            "kept patterns must form all subsets of the missing variables "
            f"{pattern_label(union)}"
        )
    schema = TableSchema(table.schema.variables, union)
    strata = tuple(table.stratum(pat) for pat in schema.patterns())
    return IncompleteTable(schema, strata)


def scale_counts(table: IncompleteTable, c: int) -> IncompleteTable:
    """Multiply every count by a positive integer."""
    if not _is_int(c) or c < 1:
        raise TableError("scale factor must be an integer >= 1")
    # no count exceeds the total, so no scaled count can wrap either
    total = table.N * int(c)
    if total > INT64_MAX:
        raise TableError(
            f"scaling by {c} gives total count {total}, which overflows"
            f" int64 (max {INT64_MAX})"
        )
    strata = tuple(
        Stratum(st.observed, st.counts * int(c)) for st in table.strata
    )
    return IncompleteTable(table.schema, strata)


# ---------------------------------------------------------------------------
# Built-in datasets.

def _smoking_birthweight() -> IncompleteTable:
    return _table_from_nested(
        [("smoking", 2), ("birthweight", 2)],
        ["smoking", "birthweight"],
        {
            (): [[4512, 21009], [3394, 24132]],
            ("smoking",): [142, 464],
            ("birthweight",): [1049, 1135],
            ("smoking", "birthweight"): 1224,
        },
    )


def _bone_density() -> IncompleteTable:
    return _table_from_nested(
        [("density", 3), ("income", 3)],
        ["density", "income"],
        {
            (): [[621, 290, 284], [260, 131, 117], [93, 30, 18]],
            ("density",): [456, 156, 266],
            ("income",): [135, 69, 27],
            ("density", "income"): 45,
        },
    )


def _spo_full() -> IncompleteTable:
    # One originally empty fully classified cell is recorded as 2 so that
    # every observed count is positive.
    return _table_from_nested(
        [("secession", 2), ("attendance", 2), ("independence", 2)],
        ["secession", "attendance", "independence"],
        {
            (): [
                [[1191, 8], [8, 2]],
                [[158, 68], [7, 14]],
            ],
            ("secession",): [[90, 2], [1, 2]],
            ("attendance",): [[107, 3], [18, 43]],
            ("independence",): [[21, 4], [29, 3]],
            ("secession", "attendance"): [19, 8],
            ("secession", "independence"): [109, 25],
            ("attendance", "independence"): [9, 31],
            ("secession", "attendance", "independence"): 96,
        },
    )


def _spo_y1() -> IncompleteTable:
    return subtable(_spo_full(), [(), ("secession",)])


def _spo_y1y2() -> IncompleteTable:
    return subtable(
        _spo_full(),
        [(), ("secession",), ("attendance",), ("secession", "attendance")],
    )


_BUILTINS = {
    "smoking-birthweight": (
        _smoking_birthweight,
        "maternal smoking by infant birth weight, both subject to nonresponse",
    ),
    "bone-density": (
        _bone_density,
        "bone mineral density by family income, both subject to nonresponse",
    ),
    "spo-full": (
        _spo_full,
        "three opinion questions, every combination of nonresponse (container)",
    ),
    "spo-y1": (
        _spo_y1,
        "three opinion questions with nonresponse on the first only",
    ),
    "spo-y1y2": (
        _spo_y1y2,
        "three opinion questions with nonresponse on the first two",
    ),
}


def builtin_dataset_names() -> tuple:
    return tuple(_BUILTINS)


def builtin_dataset_description(name: str) -> str:
    if name not in _BUILTINS:
        raise TableError(f"unknown dataset {name}")
    return _BUILTINS[name][1]


def builtin_dataset(name: str) -> IncompleteTable:
    """Return one of the packaged example tables by name."""
    if name not in _BUILTINS:
        known = ", ".join(_BUILTINS)
        raise TableError(f"unknown dataset {name} (choose from: {known})")
    return _BUILTINS[name][0]()
