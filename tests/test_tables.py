"""Table containers, serialization, and the builtin datasets."""

import json
import re

import numpy as np
import pytest

from misstab import (
    IncompleteTable,
    Stratum,
    TableError,
    TableSchema,
    builtin_dataset,
    builtin_dataset_description,
    builtin_dataset_names,
    dump_table,
    indicator_factor,
    load_table,
    load_table_csv,
    scale_counts,
    sniff_and_load,
    subtable,
)
from misstab.tables import (
    ANALYSIS_SHAPES,
    INT64_MAX,
    SHAPE_COMPLETE,
    SHAPE_THREE_ALL,
    SHAPE_THREE_ONE,
    SHAPE_THREE_TWO,
    SHAPE_TWO_BOTH,
    pattern_label,
)


class TestSchema:
    def test_shapes(self):
        assert TableSchema((("a", 2), ("b", 2)), ("a", "b")).shape == SHAPE_TWO_BOTH
        assert TableSchema((("a", 2), ("b", 2), ("c", 2)), ("a",)).shape == SHAPE_THREE_ONE
        assert TableSchema((("a", 2), ("b", 2), ("c", 2)), ("a", "b")).shape == SHAPE_THREE_TWO
        assert TableSchema((("a", 2), ("b", 2), ("c", 2)), ("a", "b", "c")).shape == SHAPE_THREE_ALL
        assert TableSchema((("a", 2), ("b", 3)), ()).shape == SHAPE_COMPLETE

    def test_analysis_shapes(self):
        assert ANALYSIS_SHAPES == (SHAPE_TWO_BOTH, SHAPE_THREE_ONE, SHAPE_THREE_TWO)
        assert TableSchema((("a", 2), ("b", 2)), ("a", "b")).is_analysis_shape
        assert not TableSchema((("a", 2), ("b", 2)), ()).is_analysis_shape

    def test_missing_follows_declared_order(self):
        schema = TableSchema((("a", 2), ("b", 2), ("c", 2)), ("c", "a"))
        assert schema.missing == ("a", "c")

    def test_patterns_ordering(self):
        schema = TableSchema((("a", 2), ("b", 2), ("c", 2)), ("a", "b"))
        assert schema.patterns() == ((), ("a",), ("b",), ("a", "b"))

    def test_observed_for(self):
        schema = TableSchema((("a", 2), ("b", 2), ("c", 2)), ("a", "b"))
        assert schema.observed_for(("b",)) == ("a", "c")

    def test_levels_and_index(self):
        schema = TableSchema((("a", 2), ("b", 3)), ("a", "b"))
        assert schema.levels("b") == 3
        assert schema.index("b") == 1
        with pytest.raises(TableError):
            schema.levels("z")

    def test_rejects_bad_layouts(self):
        with pytest.raises(TableError):
            TableSchema((("a", 2),), ("a",))
        with pytest.raises(TableError):
            TableSchema((("a", 2), ("a", 2)), ("a",))
        with pytest.raises(TableError):
            TableSchema((("a", 1), ("b", 2)), ("a", "b"))
        with pytest.raises(TableError):
            TableSchema((("a", 2), ("b", 2)), ("a",))
        with pytest.raises(TableError):
            TableSchema((("a", 2), ("b", 2)), ("z",))
        with pytest.raises(TableError):
            TableSchema((("a", 2), ("b", 2)), ("a", "a"))
        # names used to pass through str(): None and 3 became "None", "3"
        for variables, missing, field in (
            (((None, 2), (3, 2)), (None, 3), r"variables\[0\]: name"),
            ((("a", 2), (3, 2)), ("a",), r"variables\[1\]: name"),
            ((("a", 2), ("", 2)), ("a",), r"variables\[1\]: name"),
            ((("a", 2), ("b", 2)), ("a", None), r"missing\[1\]: name"),
            ((("a", 2), ("b", 2)), ("a", 2), r"missing\[1\]: name"),
        ):
            with pytest.raises(TableError, match=field):
                TableSchema(variables, missing)

    def test_rejects_a_bare_string_as_missing(self):
        # "ab" used to be split into the letters a and b
        with pytest.raises(TableError, match="missing: must be a sequence"):
            TableSchema((("a", 2), ("b", 2)), "ab")
        with pytest.raises(TableError, match="missing: must be a sequence"):
            TableSchema((("a", 2), ("b", 2)), None)

    @pytest.mark.parametrize(
        "entry", [("b", 2, 1), ("b",), "b", None, 2, "bcd"]
    )
    def test_rejects_a_variable_that_is_not_a_pair(self, entry):
        # ("b", 2, 1) used to raise a bare ValueError from unpacking
        with pytest.raises(TableError, match=r"variables\[1\]: must be a"):
            TableSchema((("a", 2), entry), ("a",))

    @pytest.mark.parametrize("levels", [2.7, "3", None, True, [2]])
    def test_rejects_levels_that_are_not_integers(self, levels):
        # 2.7 and "3" used to be truncated and parsed, None a TypeError
        with pytest.raises(TableError, match="variable a: levels must be"):
            TableSchema((("a", levels), ("b", 2)), ("a", "b"))

    def test_integral_levels_of_any_type(self):
        schema = TableSchema((("a", 2.0), ("b", np.int64(3))), ("a", "b"))
        assert schema.variables == (("a", 2), ("b", 3))
        assert all(type(l) is int for _, l in schema.variables)

    def test_rejects_a_variable_named_like_an_indicator(self):
        # the name would share the indicator's axis of the complete cross
        name = indicator_factor("a")
        clashes = (
            ((("a", 2), (name, 2)), ("a", name)),
            ((("a", 2), ("b", 2), (name, 3)), ("a",)),
            ((("a", 2), ("b", 2), (name, 3)), ("a", "b")),
        )
        for variables, missing in clashes:
            with pytest.raises(TableError, match=re.escape(name)):
                TableSchema(variables, missing)
        # the indicator of a variable that is never missing is no factor
        schema = TableSchema((("a", 2), ("b", 2), (name, 2)), ("b",))
        assert schema.names == ("a", "b", name)

    def test_load_rejects_a_variable_named_like_an_indicator(self):
        text = dump_table(builtin_dataset("smoking-birthweight"))
        clash = text.replace('"birthweight"', '"R(smoking)"')
        with pytest.raises(TableError, match=re.escape("R(smoking)")):
            load_table(clash)

    def test_pattern_label(self):
        assert pattern_label(()) == "{fully observed}"
        assert pattern_label(("a", "b")) == "{a, b unobserved}"


class TestStratum:
    def test_counts_are_read_only_int64(self):
        st = Stratum(("a",), [1, 2])
        assert st.counts.dtype == np.int64
        with pytest.raises(ValueError):
            st.counts[0] = 5

    def test_accepts_integral_floats(self):
        st = Stratum(("a",), [1.0, 2.0])
        assert st.total == 3

    def test_rejects_fractional_negative_and_ragged(self):
        with pytest.raises(TableError):
            Stratum(("a",), [1.5, 2.0])
        with pytest.raises(TableError, match="negative"):
            Stratum(("a", "b"), [[1, 2], [3, -4]])
        with pytest.raises(TableError):
            Stratum(("a",), [[1, 2], [3]])
        with pytest.raises(TableError):
            Stratum(("a",), ["x", "y"])

    def test_total_is_exact_past_int64(self):
        st = Stratum(("a",), [2**62, 2**62])
        assert st.total == 2**63  # an int64 sum wraps to -2**63

    def test_rejects_counts_outside_int64(self):
        for raw in ([2**63], [2**64], [1.0e19], [2.0**63]):
            with pytest.raises(TableError, match="int64"):
                Stratum(("a",), raw)
        assert Stratum(("a",), [INT64_MAX]).total == INT64_MAX

    def test_equality(self):
        assert Stratum(("a",), [1, 2]) == Stratum(("a",), [1, 2])
        assert Stratum(("a",), [1, 2]) != Stratum(("a",), [2, 1])


class TestTableValidation:
    def _schema(self):
        return TableSchema((("a", 2), ("b", 2)), ("a", "b"))

    def _strata(self):
        return {
            (): Stratum(("a", "b"), [[1, 2], [3, 4]]),
            ("a",): Stratum(("b",), [5, 6]),
            ("b",): Stratum(("a",), [7, 8]),
            ("a", "b"): Stratum((), 9),
        }

    def test_valid_table(self):
        t = IncompleteTable(self._schema(), tuple(self._strata().values()))
        assert t.N == 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9
        assert t.full.observed == ("a", "b")
        assert t.stratum({"a"}).total == 11

    def test_missing_stratum(self):
        st = self._strata()
        del st[("a",)]
        with pytest.raises(TableError, match="missing stratum"):
            IncompleteTable(self._schema(), tuple(st.values()))

    def test_duplicate_stratum(self):
        st = list(self._strata().values()) + [Stratum(("b",), [1, 1])]
        with pytest.raises(TableError, match="duplicate stratum"):
            IncompleteTable(self._schema(), tuple(st))

    def test_wrong_extents(self):
        st = self._strata()
        st[("a",)] = Stratum(("b",), [5, 6, 7])
        with pytest.raises(TableError, match="extents"):
            IncompleteTable(self._schema(), tuple(st.values()))

    def test_total_beyond_int64(self):
        schema = TableSchema((("a", 2), ("b", 2)), ("a", "b"))
        big = 2**61
        strata = (
            Stratum(("a", "b"), [[big, big], [big, big]]),
            Stratum(("b",), [0, 0]),
            Stratum(("a",), [0, 0]),
            Stratum((), 0),
        )
        with pytest.raises(TableError, match=f"total count {2**63} overflows"):
            IncompleteTable(schema, strata)

    def test_stratum_lookup_error(self):
        t = IncompleteTable(self._schema(), tuple(self._strata().values()))
        with pytest.raises(TableError):
            t.stratum({"a", "z"})

    def test_pattern_of(self):
        t = IncompleteTable(self._schema(), tuple(self._strata().values()))
        assert t.pattern_of(t.strata[1]) == ("a",)


class TestBuiltins:
    def test_names_and_descriptions(self):
        names = builtin_dataset_names()
        assert names == (
            "smoking-birthweight",
            "bone-density",
            "spo-full",
            "spo-y1",
            "spo-y1y2",
        )
        for n in names:
            assert builtin_dataset_description(n)
        with pytest.raises(TableError):
            builtin_dataset("nope")
        with pytest.raises(TableError):
            builtin_dataset_description("nope")

    def test_totals(self):
        assert builtin_dataset("smoking-birthweight").N == 57061
        assert builtin_dataset("bone-density").N == 2998
        assert builtin_dataset("spo-full").N == 2076
        assert builtin_dataset("spo-y1").N == 1551
        assert builtin_dataset("spo-y1y2").N == 1749

    def test_spot_counts(self, smoking_table, bone_table, opinion_one_table):
        assert smoking_table.full.counts[0, 0] == 4512
        assert bone_table.stratum({"density"}).counts[0] == 456
        assert opinion_one_table.full.counts[0, 0, 0] == 1191
        assert opinion_one_table.stratum({"secession"}).counts[0, 0] == 90

    def test_shapes(self, smoking_table, opinion_one_table, opinion_two_table):
        assert smoking_table.schema.shape == SHAPE_TWO_BOTH
        assert opinion_one_table.schema.shape == SHAPE_THREE_ONE
        assert opinion_two_table.schema.shape == SHAPE_THREE_TWO
        assert builtin_dataset("spo-full").schema.shape == SHAPE_THREE_ALL

    def test_subtables_derive_from_full_container(self):
        full = builtin_dataset("spo-full")
        assert subtable(full, [(), ("secession",)]) == builtin_dataset("spo-y1")
        keep = [(), ("secession",), ("attendance",), ("secession", "attendance")]
        assert subtable(full, keep) == builtin_dataset("spo-y1y2")

    @pytest.mark.parametrize("name", builtin_dataset_names())
    def test_each_builtin_is_read_only(self, name):
        table = builtin_dataset(name)
        for st in table.strata:
            with pytest.raises(ValueError, match="read-only"):
                st.counts[...] = 0
        with pytest.raises(TableError, match="unknown dataset"):
            builtin_dataset(name + "-nope")

    def test_a_table_equals_itself_without_comparing_strata(
        self, monkeypatch
    ):
        table = builtin_dataset("bone-density")

        def refuse(*args):
            raise AssertionError("strata compared")

        monkeypatch.setattr(Stratum, "__eq__", refuse)
        assert table == table and not table != table
        with pytest.raises(AssertionError, match="strata compared"):
            _ = table == subtable(table, [(), ("density",), ("income",),
                                          ("density", "income")])


class TestSubtable:
    def test_idempotent(self, opinion_two_table):
        keep = [(), ("secession",), ("attendance",), ("secession", "attendance")]
        once = subtable(builtin_dataset("spo-full"), keep)
        assert subtable(once, keep) == once

    def test_requires_full_pattern(self):
        with pytest.raises(TableError, match="fully observed"):
            subtable(builtin_dataset("spo-full"), [("secession",)])

    def test_requires_subset_lattice(self):
        with pytest.raises(TableError, match="all subsets"):
            subtable(
                builtin_dataset("spo-full"),
                [(), ("secession", "attendance")],
            )

    def test_rejects_non_missing_variable(self, opinion_one_table):
        with pytest.raises(TableError, match="not subject to missingness"):
            subtable(opinion_one_table, [(), ("attendance",)])

    def test_rejects_unknown_variable(self, opinion_two_table):
        # a misspelled or unknown name was dropped, leaving a complete table
        for name in ("nosuch", "Secession"):
            with pytest.raises(TableError, match=f"unknown variable {name}"):
                subtable(opinion_two_table, [(), (name,)])


class TestScaleCounts:
    def test_scales_every_stratum(self, smoking_table):
        t = scale_counts(smoking_table, 7)
        assert t.N == 7 * smoking_table.N
        assert t.full.counts[0, 0] == 7 * 4512
        assert t.schema == smoking_table.schema

    def test_identity(self, smoking_table):
        assert scale_counts(smoking_table, 1) == smoking_table

    def test_rejects_bad_factors(self, smoking_table):
        for c in (0, -2, 1.5, True):
            with pytest.raises(TableError):
                scale_counts(smoking_table, c)

    def test_overflow_names_the_exact_total(self, smoking_table):
        # int64 products wrapped: 10**15 reported N = 1720767778871345152
        # and 3 * 10**15 failed with "negative count"
        for c in (10**15, 3 * 10**15):
            with pytest.raises(TableError, match="overflows int64") as err:
                scale_counts(smoking_table, c)
            assert str(57061 * c) in str(err.value)

    def test_largest_factor_keeps_the_exact_total(self, smoking_table):
        c = INT64_MAX // 57061
        t = scale_counts(smoking_table, c)
        assert t.N == 57061 * c
        assert t.full.counts[1, 1] == 24132 * c


class TestSerialization:
    def test_round_trip_all_builtins(self):
        for name in builtin_dataset_names():
            t = builtin_dataset(name)
            assert load_table(dump_table(t)) == t

    def test_sniff_picks_format(self, proportional_table):
        assert sniff_and_load(dump_table(proportional_table)) == proportional_table
        csv_text = (
            "first,second,count\n"
            "1,1,3\n1,2,5\n2,1,7\n2,2,11\n"
            "*,1,10\n*,2,16\n"
            "1,*,8\n2,*,18\n"
            "*,*,26\n"
        )
        assert sniff_and_load(csv_text) == proportional_table

    def test_csv_matches_structured(self, proportional_table):
        csv_text = (
            "first,second,count\n"
            "1,1,3\n1,2,5\n2,1,7\n2,2,11\n"
            "*,1,10\n*,2,16\n"
            "1,*,8\n2,*,18\n"
            "*,*,26\n"
        )
        assert load_table_csv(csv_text) == proportional_table

    def test_load_errors(self):
        with pytest.raises(TableError, match="parse error"):
            load_table("{not json")
        with pytest.raises(TableError, match="root"):
            load_table("[1, 2]")
        with pytest.raises(TableError, match="required key"):
            load_table('{"variables": []}')
        with pytest.raises(TableError, match="name and levels"):
            load_table('{"variables": [{"name": "a"}], "missing": [], "strata": []}')
        # a level count that is not integral and an observed list that is
        # not a list used to crash, truncate or split into letters
        table = builtin_dataset("smoking-birthweight")
        cases = [
            ("variables", "levels", None, r"variables\[0\]\.levels"),
            ("variables", "levels", 2.5, r"variables\[0\]\.levels"),
            ("variables", "levels", "2", r"variables\[0\]\.levels"),
            ("strata", "observed", 5, r"strata\[0\]\.observed"),
            ("strata", "observed", "smoking", r"strata\[0\]\.observed"),
        ]
        for section, key, value, field in cases:
            doc = json.loads(dump_table(table))
            doc[section][0][key] = value
            with pytest.raises(TableError, match=field):
                load_table(json.dumps(doc))
        # names used to pass through str(): a number or null name was kept
        # as "3" or "None"
        for name in (3, None, "", ["smoking"]):
            doc = json.loads(dump_table(table))
            doc["variables"][0]["name"] = name
            with pytest.raises(TableError, match=r"variables\[0\]: name"):
                load_table(json.dumps(doc))
            doc = json.loads(dump_table(table))
            doc["missing"][1] = name
            with pytest.raises(TableError, match=r"missing\[1\]: name"):
                load_table(json.dumps(doc))
        doc = json.loads(dump_table(table))
        doc["variables"][0]["levels"] = 2.0
        assert load_table(json.dumps(doc)) == table

    def test_csv_errors(self):
        with pytest.raises(TableError, match="empty"):
            load_table_csv("")
        with pytest.raises(TableError, match="count column"):
            load_table_csv("a,b\n1,1\n")
        with pytest.raises(TableError, match="bad level"):
            load_table_csv("a,b,count\nx,1,3\n")
        with pytest.raises(TableError, match="repeats"):
            load_table_csv(
                "a,b,count\n1,1,1\n1,1,2\n1,2,1\n2,1,1\n2,2,1\n"
                "*,1,1\n*,2,1\n1,*,1\n2,*,1\n*,*,1\n"
            )
        with pytest.raises(TableError, match="lacks cell"):
            load_table_csv(
                "a,b,count\n1,1,1\n1,2,1\n2,1,1\n"
                "*,1,1\n*,2,1\n1,*,1\n2,*,1\n*,*,1\n"
            )
