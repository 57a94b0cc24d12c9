"""Exact odds screening: values, intervals, memberships, verdicts."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from misstab import (
    CLASS_INCONCLUSIVE,
    CLASS_MAR,
    CLASS_MCAR_OR_NMAR,
    ComputationError,
    CountRatio,
    FamilyAssessment,
    IncompleteTable,
    MEMBERSHIP_INSIDE,
    MEMBERSHIP_OUTSIDE,
    MEMBERSHIP_UNDEFINED,
    OddsInterval,
    OddsQuery,
    QueryRecord,
    Stratum,
    TableError,
    TableSchema,
    assess,
    builtin_dataset,
    builtin_dataset_names,
    list_queries,
    odds,
    scale_counts,
)
from misstab.odds import PLAN_ENTRY_BUDGET, plan_entries, screening_plan


def make_two_var(full, margin_first, margin_second, both):
    schema = TableSchema((("a", 2), ("b", 2)), ("a", "b"))
    return IncompleteTable(
        schema,
        (
            Stratum(("a", "b"), full),
            Stratum(("b",), margin_first),
            Stratum(("a",), margin_second),
            Stratum((), both),
        ),
    )


class TestCountRatio:
    def test_display_is_unreduced(self):
        assert str(CountRatio(142, 464)) == "142/464"

    def test_defined(self):
        assert CountRatio(3, 4).defined
        assert not CountRatio(0, 4).defined
        assert not CountRatio(3, 0).defined

    def test_fraction(self):
        assert CountRatio(6, 4).fraction == Fraction(3, 2)
        with pytest.raises(ComputationError):
            CountRatio(0, 4).fraction


class TestRecordTypes:
    def test_fields(self):
        assert CountRatio._fields == ("numerator", "denominator")
        assert OddsInterval._fields == ("values", "minimum", "maximum")
        assert QueryRecord._fields == (
            "query", "value", "interval", "membership", "note"
        )

    def test_repr_and_str(self, smoking_table):
        rec = assess(smoking_table).records[0]
        assert repr(rec) == (
            "QueryRecord(query=OddsQuery(missing_var='smoking', "
            "target='birthweight', pair=(1, 2), conditioning=()), "
            "value=CountRatio(numerator=142, denominator=464), "
            "interval=OddsInterval(values=((1, CountRatio(numerator=4512, "
            "denominator=21009)), (2, CountRatio(numerator=3394, "
            "denominator=24132))), minimum=CountRatio(numerator=3394, "
            "denominator=24132), maximum=CountRatio(numerator=4512, "
            "denominator=21009)), membership='outside', note='')"
        )
        assert str(rec.value) == "142/464"
        assert str(rec.interval) == "(3394/24132, 4512/21009)"
        assert str(OddsInterval(((1, CountRatio(0, 3)),), None, None)) == (
            "(undefined)"
        )

    def test_tuples_of_their_fields(self, smoking_table):
        rec = assess(smoking_table).records[0]
        assert rec.value == (142, 464)
        assert rec == tuple(rec)
        assert rec._replace(note="x") == (*rec[:4], "x")
        assert QueryRecord(rec.query, None, None, "undefined").note == ""

    @pytest.mark.parametrize(
        "obj,field",
        [
            (CountRatio(3, 4), "numerator"),
            (OddsInterval((), None, None), "minimum"),
            (QueryRecord(OddsQuery("a", "b", (1, 2)), None, None, "x"), "note"),
        ],
    )
    def test_fields_cannot_be_assigned(self, obj, field):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)

    def test_family_records_are_built_in_assess(self, bone_table):
        # a field holding the records, not a property that builds them
        # when first read, so assess pays for them
        assert "records" in {f.name for f in dataclasses.fields(
            FamilyAssessment
        )}
        assert not hasattr(FamilyAssessment, "records")
        for fam in assess(bone_table).families:
            records = vars(fam)["records"]
            assert type(records) is tuple and records
            assert all(type(r) is QueryRecord for r in records)


    @pytest.mark.parametrize(
        "fixture",
        ["smoking_table", "bone_table", "opinion_one_table",
         "opinion_two_table"],
    )
    def test_records_are_exact_instances(self, request, fixture):
        # built without calling the types, yet the same as a call builds
        verdict = assess(request.getfixturevalue(fixture))
        for rec in verdict.records:
            interval = rec.interval
            assert type(rec) is QueryRecord
            assert type(rec.value) is CountRatio
            assert type(interval) is OddsInterval
            for end in (interval.minimum, interval.maximum):
                assert end is None or type(end) is CountRatio
            assert all(type(r) is CountRatio for _, r in interval.values)
            rebuilt = QueryRecord(
                rec.query,
                CountRatio(*rec.value),
                OddsInterval(
                    tuple((lvl, CountRatio(*r)) for lvl, r in interval.values),
                    None if interval.minimum is None
                    else CountRatio(*interval.minimum),
                    None if interval.maximum is None
                    else CountRatio(*interval.maximum),
                ),
                rec.membership,
                rec.note,
            )
            assert rec == rebuilt and rec.note == rebuilt.note
            assert repr(rec) == repr(rebuilt)


class TestListQueries:
    def test_counts_per_shape(
        self, smoking_table, bone_table, opinion_one_table, opinion_two_table
    ):
        assert len(list_queries(smoking_table.schema)) == 2
        assert len(list_queries(bone_table.schema)) == 6
        assert len(list_queries(opinion_one_table.schema)) == 4
        assert len(list_queries(opinion_two_table.schema)) == 8
        for table in (smoking_table, opinion_two_table):
            schema = table.schema
            assert list_queries(schema) is screening_plan(schema).queries

    def test_two_variable_order(self, smoking_table):
        q1, q2 = list_queries(smoking_table.schema)
        assert (q1.missing_var, q1.target, q1.pair) == ("smoking", "birthweight", (1, 2))
        assert (q2.missing_var, q2.target, q2.pair) == ("birthweight", "smoking", (1, 2))

    def test_pair_order(self, bone_table):
        pairs = [q.pair for q in list_queries(bone_table.schema) if q.missing_var == "density"]
        assert pairs == [(1, 2), (1, 3), (2, 3)]

    def test_conditioning_order(self, opinion_one_table):
        qs = list_queries(opinion_one_table.schema)
        assert [(q.target, q.conditioning) for q in qs] == [
            ("attendance", (("independence", 1),)),
            ("attendance", (("independence", 2),)),
            ("independence", (("attendance", 1),)),
            ("independence", (("attendance", 2),)),
        ]

    def test_rejects_container_shapes(self):
        from misstab import builtin_dataset

        with pytest.raises(TableError):
            list_queries(builtin_dataset("spo-full").schema)

    def test_rejects_a_complete_table(self):
        schema = TableSchema((("a", 2), ("b", 3)), ())
        table = IncompleteTable(
            schema, (Stratum(("a", "b"), np.ones((2, 3), int)),)
        )
        refused = "shape complete does not support odds assessment"
        with pytest.raises(TableError, match=refused):
            list_queries(schema)
        with pytest.raises(TableError, match=refused):
            assess(table)

    def test_label(self):
        q = OddsQuery("a", "b", (1, 3), (("c", 2),))
        assert q.label() == "b(1,3) | c=2"


class TestSmokingScreening:
    def test_records_are_exact(self, smoking_table):
        verdict = assess(smoking_table)
        (rec_s,) = verdict.family("smoking").records
        assert (rec_s.value.numerator, rec_s.value.denominator) == (142, 464)
        assert str(rec_s.interval) == "(3394/24132, 4512/21009)"
        assert rec_s.membership == MEMBERSHIP_OUTSIDE
        (rec_b,) = verdict.family("birthweight").records
        assert (rec_b.value.numerator, rec_b.value.denominator) == (1049, 1135)
        assert str(rec_b.interval) == "(21009/24132, 4512/3394)"
        assert rec_b.membership == MEMBERSHIP_INSIDE

    def test_family_classes(self, smoking_table):
        verdict = assess(smoking_table)
        assert verdict.family("smoking").suggested_class == CLASS_MAR
        assert verdict.family("birthweight").suggested_class == CLASS_MCAR_OR_NMAR
        assert verdict.suggested_class == CLASS_MAR
        assert verdict.statement == (
            "1 of 2 defined non-response odds fall outside their response "
            "odds intervals; suggested class for smoking or birthweight: MAR"
        )

    def test_as_dict(self, smoking_table):
        d = assess(smoking_table).as_dict()
        assert d["suggested_class"] == "MAR"
        rec = d["families"][0]["records"][0]
        assert rec["value"] == [142, 464]
        assert rec["interval"]["min"] == [3394, 24132]
        assert rec["interval"]["max"] == [4512, 21009]


class TestBoneScreening:
    # (target pair, value, interval, membership) per family
    DENSITY = [
        ((1, 2), (456, 156), "(260/131, 93/30)", MEMBERSHIP_INSIDE),
        ((1, 3), (456, 266), "(621/284, 93/18)", MEMBERSHIP_OUTSIDE),
        ((2, 3), (156, 266), "(290/284, 30/18)", MEMBERSHIP_OUTSIDE),
    ]
    INCOME = [
        ((1, 2), (135, 69), "(290/131, 284/117)", MEMBERSHIP_OUTSIDE),
        ((1, 3), (135, 27), "(621/93, 284/18)", MEMBERSHIP_OUTSIDE),
        ((2, 3), (69, 27), "(260/93, 117/18)", MEMBERSHIP_OUTSIDE),
    ]

    def test_exactly_six_memberships(self, bone_table):
        verdict = assess(bone_table)
        assert len(verdict.records) == 6
        for fam_name, expected in (("density", self.DENSITY), ("income", self.INCOME)):
            fam = verdict.family(fam_name)
            got = [
                (r.query.pair, (r.value.numerator, r.value.denominator),
                 str(r.interval), r.membership)
                for r in fam.records
            ]
            assert got == expected

    def test_membership_tallies(self, bone_table):
        verdict = assess(bone_table)
        assert verdict.family("density").counts()[MEMBERSHIP_INSIDE] == 1
        assert verdict.family("density").counts()[MEMBERSHIP_OUTSIDE] == 2
        assert verdict.family("income").counts()[MEMBERSHIP_OUTSIDE] == 3
        assert verdict.suggested_class == CLASS_MAR


class TestOpinionScreening:
    ONE_MISSING = [
        ("attendance", (("independence", 1),), (90, 1), "(158/7, 1191/8)", MEMBERSHIP_INSIDE),
        ("attendance", (("independence", 2),), (2, 2), "(8/2, 68/14)", MEMBERSHIP_OUTSIDE),
        ("independence", (("attendance", 1),), (90, 2), "(158/68, 1191/8)", MEMBERSHIP_INSIDE),
        ("independence", (("attendance", 2),), (1, 2), "(7/14, 8/2)", MEMBERSHIP_OUTSIDE),
    ]
    ATTENDANCE = [
        ("secession", (("independence", 1),), (107, 18), "(8/7, 1191/158)", MEMBERSHIP_INSIDE),
        ("secession", (("independence", 2),), (3, 43), "(8/68, 2/14)", MEMBERSHIP_OUTSIDE),
        ("independence", (("secession", 1),), (107, 3), "(8/2, 1191/8)", MEMBERSHIP_INSIDE),
        ("independence", (("secession", 2),), (18, 43), "(7/14, 158/68)", MEMBERSHIP_OUTSIDE),
    ]

    @staticmethod
    def _rows(fam):
        return [
            (r.query.target, r.query.conditioning,
             (r.value.numerator, r.value.denominator),
             str(r.interval), r.membership)
            for r in fam.records
        ]

    def test_one_missing_memberships(self, opinion_one_table):
        verdict = assess(opinion_one_table)
        assert self._rows(verdict.family("secession")) == self.ONE_MISSING
        assert verdict.suggested_class == CLASS_MAR
        assert verdict.statement == (
            "2 of 4 defined non-response odds fall outside their response "
            "odds intervals; suggested class for secession: MAR"
        )

    def test_two_missing_memberships(self, opinion_two_table):
        verdict = assess(opinion_two_table)
        assert self._rows(verdict.family("secession")) == self.ONE_MISSING
        assert self._rows(verdict.family("attendance")) == self.ATTENDANCE
        assert verdict.suggested_class == CLASS_MAR

    def test_endpoint_hit_counts_as_outside(self, opinion_one_table):
        verdict = assess(opinion_one_table)
        rec = verdict.family("secession").records[3]
        assert rec.value.fraction == rec.interval.minimum.fraction
        assert rec.membership == MEMBERSHIP_OUTSIDE


class TestProportionalFixture:
    def test_all_inside(self, proportional_table):
        verdict = assess(proportional_table)
        assert [r.membership for r in verdict.records] == [
            MEMBERSHIP_INSIDE,
            MEMBERSHIP_INSIDE,
        ]
        assert verdict.suggested_class == CLASS_MCAR_OR_NMAR

    def test_brute_force(self, proportional_table):
        # recompute every odds directly from the raw counts
        full = proportional_table.full.counts
        m_first = proportional_table.stratum({"first"}).counts
        m_second = proportional_table.stratum({"second"}).counts
        value_first = Fraction(int(m_first[0]), int(m_first[1]))
        odds_first = [Fraction(int(full[i, 0]), int(full[i, 1])) for i in range(2)]
        assert min(odds_first) < value_first < max(odds_first)
        value_second = Fraction(int(m_second[0]), int(m_second[1]))
        odds_second = [Fraction(int(full[0, j]), int(full[1, j])) for j in range(2)]
        assert min(odds_second) < value_second < max(odds_second)


class TestDegenerateAndUndefined:
    def test_zero_value_is_undefined(self):
        t = make_two_var([[2, 3], [4, 5]], [0, 7], [1, 1], 2)
        verdict = assess(t)
        (rec,) = verdict.family("a").records
        assert rec.membership == MEMBERSHIP_UNDEFINED
        assert "undefined" in rec.note
        assert verdict.family("a").suggested_class == CLASS_INCONCLUSIVE

    def test_outside_elsewhere_still_suggests_mar(self):
        t = make_two_var([[2, 3], [4, 5]], [0, 7], [1, 1], 2)
        verdict = assess(t)
        (rec,) = verdict.family("b").records
        assert rec.membership == MEMBERSHIP_OUTSIDE
        assert verdict.suggested_class == CLASS_MAR

    def test_degenerate_interval_is_outside(self):
        t = make_two_var([[2, 4], [3, 6]], [1, 2], [1, 1], 0)
        verdict = assess(t)
        (rec,) = verdict.family("a").records
        assert rec.interval.degenerate
        # the ends are the first entries of least and of greatest value
        assert str(rec.interval) == "(2/4, 2/4)"
        assert rec.membership == MEMBERSHIP_OUTSIDE
        assert "degenerate" in rec.note

    def test_partial_interval_notes_omission(self):
        t = make_two_var([[0, 3], [4, 5]], [2, 2], [1, 1], 0)
        verdict = assess(t)
        (rec,) = verdict.family("a").records
        assert rec.interval.partial
        assert "omits undefined entries" in rec.note

    def test_no_defined_response_odds(self):
        t = make_two_var([[0, 3], [0, 5]], [2, 2], [1, 1], 0)
        (rec,) = assess(t).family("a").records
        assert rec.membership == MEMBERSHIP_UNDEFINED
        assert "no defined response odds" in rec.note

    def test_assess_rejects_container_shape(self):
        from misstab import builtin_dataset

        with pytest.raises(TableError):
            assess(builtin_dataset("spo-full"))


def cube_table(levels):
    """A seeded levels^3 table with Y1 and Y2 missing, every observed cell
    Poisson with mean 50."""
    names = ("Y1", "Y2", "Y3")
    schema = TableSchema(tuple((n, levels) for n in names), ("Y1", "Y2"))
    rng = np.random.default_rng(0)
    return IncompleteTable(
        schema,
        tuple(
            Stratum(obs, rng.poisson(50, size=(levels,) * len(obs)))
            for obs in map(schema.observed_for, schema.patterns())
        ),
    )


class TestColumnarVerdict:
    def test_verdict_matches_its_records(self):
        # the classes and the statement come from one count over the
        # plan's family column; walk the records instead
        verdict = assess(cube_table(20))
        tallies = {}
        for v in ("Y1", "Y2"):
            tally = dict.fromkeys(
                (MEMBERSHIP_INSIDE, MEMBERSHIP_OUTSIDE, MEMBERSHIP_UNDEFINED), 0
            )
            for rec in verdict.family(v).records:
                assert rec.query.missing_var == v
                tally[rec.membership] += 1
            assert verdict.family(v).counts() == tally
            assert verdict.family(v).suggested_class == CLASS_MAR
            tallies[v] = tally
        n_out = tallies["Y1"]["outside"] + tallies["Y2"]["outside"]
        n_in = tallies["Y1"]["inside"] + tallies["Y2"]["inside"]
        assert n_out and n_in
        assert verdict.suggested_class == CLASS_MAR
        assert verdict.statement == (
            f"{n_out} of {n_out + n_in} defined non-response odds fall "
            "outside their response odds intervals; suggested class for "
            "Y1 or Y2: MAR"
        )
        assert len(verdict.records) == 2 * 2 * 190 * 20

    def test_equal_counts_share_one_ratio(self):
        verdict = assess(cube_table(4))
        for fam in verdict.families:
            by_counts = {}
            for rec in fam.records:
                for ratio in (rec.value, *(r for _, r in rec.interval.values)):
                    key = (ratio.numerator, ratio.denominator)
                    assert by_counts.setdefault(key, ratio) is ratio
        for rec in verdict.records:
            ends = (rec.interval.minimum, rec.interval.maximum)
            assert all(
                any(end is r for _, r in rec.interval.values) for end in ends
            )

    def test_equal_by_value(self, bone_table, smoking_table):
        first, second = assess(bone_table), assess(bone_table)
        assert first == second and hash(first) == hash(second)
        assert assess(bone_table) != assess(smoking_table)
        # the same memberships from other counts are another verdict
        assert assess(scale_counts(bone_table, 2)) != first

    def test_counts_no_check_reads_do_not_matter(self):
        # the stratum with both variables unobserved enters no odds
        t1 = make_two_var([[2, 3], [4, 5]], [3, 7], [1, 2], 2)
        t2 = make_two_var([[2, 3], [4, 5]], [3, 7], [1, 2], 9)
        assert t1 != t2
        assert assess(t1) == assess(t2)


class TestPlanBudget:
    SCHEMAS = [
        TableSchema((("a", 2), ("b", 5)), ("a", "b")),
        TableSchema((("a", 4), ("b", 2), ("c", 3)), ("b",)),
        TableSchema((("a", 3), ("b", 5), ("c", 2)), ("a", "c")),
        TableSchema((("a", 6), ("b", 2), ("c", 4)), ("b", "c")),
    ]

    @pytest.mark.parametrize("schema", SCHEMAS, ids=str)
    def test_entries_from_levels_match_the_plan(self, schema):
        assert plan_entries(schema) == screening_plan(schema).odds_num.size

    @pytest.mark.parametrize("name", builtin_dataset_names())
    def test_builtin_entries_match_the_plan(self, name):
        schema = builtin_dataset(name).schema
        if schema.is_analysis_shape:
            assert plan_entries(schema) == screening_plan(schema).odds_num.size

    def test_thirty_cubed_fits_the_budget(self):
        big = TableSchema(
            (("Y1", 30), ("Y2", 30), ("Y3", 30)), ("Y1", "Y2")
        )
        assert plan_entries(big) == 2 * 2 * 435 * 30 * 30
        assert plan_entries(big) <= PLAN_ENTRY_BUDGET

    def test_oversized_table_is_refused_before_listing(self, monkeypatch):
        schema = TableSchema((("a", 400), ("b", 400), ("c", 2)), ("a", "b"))
        table = IncompleteTable(
            schema,
            tuple(
                Stratum(obs, np.ones([schema.levels(n) for n in obs], int))
                for obs in map(schema.observed_for, schema.patterns())
            ),
        )

        def refuse(*args):
            raise AssertionError("a check was built")

        monkeypatch.setattr(odds, "_build", refuse)
        assert plan_entries(schema) > PLAN_ENTRY_BUDGET
        with pytest.raises(TableError, match="plan entries, over the budget"):
            screening_plan(schema)
        with pytest.raises(TableError, match="plan entries, over the budget"):
            assess(table)
