"""Independent re-derivation of odds screening with stdlib Fractions.

Written from the definition of a containment check, not from
``misstab.odds``: for a missing variable V, a target T with level pair
(a, b) and, in three-variable tables, a fixed level of the remaining
variable, the non-response odds is count(T=a) / count(T=b) in the stratum
where only V is unobserved; the response odds at each level of V are the
same ratio in the fully classified stratum.  The check is undefined when
the non-response odds or every response odds has a zero count, "outside"
when the defined response odds are all equal or do not strictly enclose
the value, and "inside" otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def _ratio(counts, index_num, index_den):
    num = int(counts[index_num])
    den = int(counts[index_den])
    if num == 0 or den == 0:
        return None
    return Fraction(num, den)


def _index(space, levels):
    """Index into a count array whose axes are the variables in space."""
    return tuple(levels[n] for n in space)


def memberships(table):
    """(missing variable, target, pair, conditioning, membership) per check,
    in the order misstab lists its queries."""
    schema = table.schema
    names = schema.names
    full = table.full.counts
    out = []
    for v in schema.missing:
        margin_names = tuple(n for n in names if n != v)
        margin = table.stratum({v}).counts
        for t in names:
            if t == v:
                continue
            rest = [n for n in names if n not in (v, t)]
            fixed_levels = (
                [{rest[0]: c} for c in range(schema.levels(rest[0]))]
                if rest
                else [{}]
            )
            for a, b in combinations(range(schema.levels(t)), 2):
                for fixed in fixed_levels:
                    value = _ratio(
                        margin,
                        _index(margin_names, {**fixed, t: a}),
                        _index(margin_names, {**fixed, t: b}),
                    )
                    response = [
                        r
                        for r in (
                            _ratio(
                                full,
                                _index(names, {**fixed, t: a, v: lv}),
                                _index(names, {**fixed, t: b, v: lv}),
                            )
                            for lv in range(schema.levels(v))
                        )
                        if r is not None
                    ]
                    if value is None or not response:
                        status = "undefined"
                    elif min(response) < value < max(response):
                        status = "inside"
                    else:
                        status = "outside"
                    cond = tuple((n, c + 1) for n, c in fixed.items())
                    out.append((v, t, (a + 1, b + 1), cond, status))
    return out


def tallies(tables, missing):
    """Bootstrap tallies over replicate tables: per missing variable and
    overall, the replicates counted (every check defined), excluded, and
    suggesting MAR (some defined check outside)."""
    fam = {v: [0, 0, 0] for v in missing}
    overall = [0, 0, 0]
    for table in tables:
        by_var = {v: [] for v in missing}
        for v, *_, status in memberships(table):
            by_var[v].append(status)
        all_defined = True
        any_mar = False
        for v in missing:
            if "undefined" in by_var[v]:
                fam[v][1] += 1
                all_defined = False
                continue
            fam[v][0] += 1
            if "outside" in by_var[v]:
                fam[v][2] += 1
                any_mar = True
        if all_defined:
            overall[0] += 1
            overall[2] += int(any_mar)
        else:
            overall[1] += 1
    return {
        "families": [[v, *fam[v]] for v in missing],
        "overall": overall,
    }
