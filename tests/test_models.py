"""Model catalog enumeration, counting rules, and design matrices."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from misstab import (
    MECH_MAR,
    MECH_MCAR,
    MECH_NMAR,
    Mechanism,
    NonresponseModel,
    OddsQuery,
    TableError,
    TableSchema,
    build_design,
    builtin_dataset,
    degrees_of_freedom,
    enumerate_models,
    generating_class,
    get_model,
    indicator_factor,
    is_perfect_fit,
    list_queries,
    model_summary,
    observed_statistic_count,
    parameter_count,
)
from misstab.models import (
    SCHEMA_CACHE_SIZE,
    factor_axes,
    full_cross_dims,
    observation_map,
    y_label,
)
from misstab.odds import screening_plan
from misstab.tables import SHAPE_THREE_ONE, SHAPE_THREE_TWO, SHAPE_TWO_BOTH

D_IDS = (
    "D1:Y1=MCAR,Y2=MCAR",
    "D2:Y1=NMAR,Y2=NMAR",
    "D3:Y1=MAR(Y2),Y2=MAR(Y1)",
    "D3:Y1=MAR(Y2),Y2=MAR(Y3)",
    "D3:Y1=MAR(Y3),Y2=MAR(Y1)",
    "D3:Y1=MAR(Y3),Y2=MAR(Y3)",
    "D4:Y1=NMAR,Y2=MCAR",
    "D4:Y1=MCAR,Y2=NMAR",
    "D5:Y1=MAR(Y2),Y2=MCAR",
    "D5:Y1=MAR(Y3),Y2=MCAR",
    "D5:Y1=MCAR,Y2=MAR(Y1)",
    "D5:Y1=MCAR,Y2=MAR(Y3)",
    "D6:Y1=NMAR,Y2=MAR(Y1)",
    "D6:Y1=NMAR,Y2=MAR(Y3)",
    "D6:Y1=MAR(Y2),Y2=NMAR",
    "D6:Y1=MAR(Y3),Y2=NMAR",
)


class TestCatalogs:
    def test_two_variable_catalog(self, smoking_table):
        ids = [m.id for m in enumerate_models(smoking_table.schema)]
        assert ids == [f"M{k}" for k in range(1, 10)]

    def test_one_missing_catalog(self, opinion_one_table):
        models = enumerate_models(opinion_one_table.schema)
        assert [m.id for m in models] == ["C1", "C2", "C3", "C4"]
        displays = [m.mechanism_display(opinion_one_table.schema) for m in models]
        assert displays == ["Y1=NMAR", "Y1=MAR(Y2)", "Y1=MAR(Y3)", "Y1=MCAR"]

    def test_two_missing_catalog(self, opinion_two_table):
        ids = tuple(m.id for m in enumerate_models(opinion_two_table.schema))
        assert ids == D_IDS

    def test_two_missing_group_sizes(self, opinion_two_table):
        ids = [m.id for m in enumerate_models(opinion_two_table.schema)]
        per_group = {g: sum(1 for i in ids if i.startswith(f"D{g}:")) for g in range(1, 7)}
        assert per_group == {1: 1, 2: 1, 3: 4, 4: 2, 5: 4, 6: 4}

    def test_get_model(self, opinion_two_table):
        m = get_model(opinion_two_table.schema, "D6:Y1=NMAR,Y2=MAR(Y3)")
        assert m.mechanism("secession").kind == MECH_NMAR
        assert m.mechanism("attendance") == Mechanism(MECH_MAR, "independence")
        with pytest.raises(TableError):
            get_model(opinion_two_table.schema, "M99")

    def test_container_shape_has_no_catalog(self):
        with pytest.raises(TableError):
            enumerate_models(builtin_dataset("spo-full").schema)

    def test_m_catalog_mechanisms(self, smoking_table):
        schema = smoking_table.schema
        kinds = {
            m.id: (m.mechanism("smoking").kind, m.mechanism("birthweight").kind)
            for m in enumerate_models(schema)
        }
        assert kinds["M1"] == (MECH_NMAR, MECH_MCAR)
        assert kinds["M3"] == (MECH_NMAR, MECH_NMAR)
        assert kinds["M5"] == (MECH_MAR, MECH_MAR)
        assert kinds["M9"] == (MECH_MCAR, MECH_MCAR)
        assert get_model(schema, "M4").mechanism_display(schema) == "Y1=MAR(Y2),Y2=MCAR"


class TestMechanism:
    def test_validation(self):
        with pytest.raises(TableError):
            Mechanism("weird")
        with pytest.raises(TableError):
            Mechanism(MECH_MAR)
        with pytest.raises(TableError):
            Mechanism(MECH_MCAR, donor="x")

    def test_labels(self, smoking_table):
        schema = smoking_table.schema
        assert indicator_factor("smoking") == "R(smoking)"
        assert y_label(schema, "smoking") == "Y1"
        assert y_label(schema, "birthweight") == "Y2"
        assert Mechanism(MECH_MAR, "birthweight").display(schema) == "MAR(Y2)"
        assert Mechanism(MECH_NMAR).display(schema) == "NMAR"


class TestCounting:
    def test_observed_statistics(
        self, smoking_table, bone_table, opinion_one_table, opinion_two_table
    ):
        assert observed_statistic_count(smoking_table.schema) == 9
        assert observed_statistic_count(bone_table.schema) == 16
        assert observed_statistic_count(opinion_one_table.schema) == 12
        assert observed_statistic_count(opinion_two_table.schema) == 18

    def test_parameter_counts_two_variable(self, smoking_table, bone_table):
        s2, s3 = smoking_table.schema, bone_table.schema
        expected_2 = {"M9": 7, "M1": 8, "M4": 8, "M7": 8, "M5": 9, "M2": 9}
        for mid, n in expected_2.items():
            assert parameter_count(get_model(s2, mid), s2) == n
        expected_3 = {"M9": 12, "M4": 14, "M5": 16, "M2": 16, "M3": 16, "M6": 16}
        for mid, n in expected_3.items():
            assert parameter_count(get_model(s3, mid), s3) == n

    def test_parameter_counts_three_variable(self, opinion_one_table, opinion_two_table):
        s1, s2 = opinion_one_table.schema, opinion_two_table.schema
        assert parameter_count(get_model(s1, "C4"), s1) == 9
        for mid in ("C1", "C2", "C3"):
            assert parameter_count(get_model(s1, mid), s1) == 10
        by_group = {1: 11, 2: 13, 3: 13, 4: 12, 5: 12, 6: 13}
        for m in enumerate_models(s2):
            group = int(m.id[1])
            assert parameter_count(m, s2) == by_group[group], m.id

    def test_df_values(self, bone_table, opinion_one_table, opinion_two_table):
        s = bone_table.schema
        assert degrees_of_freedom(get_model(s, "M4"), s) == 2
        assert degrees_of_freedom(get_model(s, "M5"), s) == 0
        assert degrees_of_freedom(get_model(s, "M9"), s) == 4
        s1 = opinion_one_table.schema
        assert degrees_of_freedom(get_model(s1, "C3"), s1) == 2
        assert degrees_of_freedom(get_model(s1, "C4"), s1) == 3
        s2 = opinion_two_table.schema
        assert degrees_of_freedom(get_model(s2, "D1:Y1=MCAR,Y2=MCAR"), s2) == 7
        assert degrees_of_freedom(get_model(s2, "D6:Y1=NMAR,Y2=MAR(Y3)"), s2) == 5

    def test_perfect_fit_predicate(
        self, smoking_table, bone_table, opinion_one_table, opinion_two_table
    ):
        for table in (smoking_table, bone_table):
            perfect = {
                m.id
                for m in enumerate_models(table.schema)
                if is_perfect_fit(m, table.schema)
            }
            assert perfect == {"M2", "M3", "M5", "M6"}
        rect = TableSchema((("a", 2), ("b", 3)), ("a", "b"))
        perfect_rect = {
            m.id for m in enumerate_models(rect) if is_perfect_fit(m, rect)
        }
        assert perfect_rect == {"M3", "M5"}
        for table in (opinion_one_table, opinion_two_table):
            assert not any(
                is_perfect_fit(m, table.schema)
                for m in enumerate_models(table.schema)
            )


class TestDesign:
    def test_full_cross_dims(self, smoking_table, opinion_two_table):
        assert full_cross_dims(smoking_table.schema) == (2, 2, 2, 2)
        assert full_cross_dims(opinion_two_table.schema) == (2, 2, 2, 2, 2)

    def test_generating_class_m5(self, smoking_table):
        m5 = get_model(smoking_table.schema, "M5")
        assert set(generating_class(m5)) == {
            ("smoking", "birthweight"),
            ("R(smoking)", "R(birthweight)"),
            ("birthweight", "R(smoking)"),
            ("smoking", "R(birthweight)"),
        }

    def test_design_structure(self, smoking_table):
        m5 = get_model(smoking_table.schema, "M5")
        ds = build_design(m5, smoking_table.schema)
        assert ds.cell_shape == (2, 2, 2, 2)
        assert ds.factor_names == (
            "smoking",
            "birthweight",
            "R(smoking)",
            "R(birthweight)",
        )
        assert ds.columns.shape == (16, 9)
        assert np.linalg.matrix_rank(ds.columns) == 9
        assert ds.column_terms[0] == ()
        # every non-intercept column is sum-to-zero coded
        assert np.abs(ds.columns[:, 1:].sum(axis=0)).max() < 1e-12
        assert ds.margins == m5.terms[1:]
        assert ds.generating_class == generating_class(m5)

    def test_design_column_count_matches_parameters(self, bone_table):
        schema = bone_table.schema
        for mid in ("M1", "M4", "M9"):
            m = get_model(schema, mid)
            ds = build_design(m, schema)
            assert ds.columns.shape == (
                int(np.prod(full_cross_dims(schema))),
                parameter_count(m, schema),
            )
            assert np.linalg.matrix_rank(ds.columns) == parameter_count(m, schema)

    def test_model_summary(self, bone_table):
        schema = bone_table.schema
        summary = model_summary(get_model(schema, "M4"), schema)
        assert summary == {
            "id": "M4",
            "mechanisms": "Y1=MAR(Y2),Y2=MCAR",
            "parameters": 14,
            "df": 2,
            "perfect_fit": False,
        }


@pytest.mark.parametrize(
    "cached", [enumerate_models, observation_map, screening_plan]
)
def test_schema_caches_are_bounded(cached):
    for k in range(SCHEMA_CACHE_SIZE + 5):
        cached(TableSchema(((f"a{k}", 2), ("b", 2)), (f"a{k}", "b")))
    assert cached.cache_info().currsize == SCHEMA_CACHE_SIZE


# ---------------------------------------------------------------------------
# Oracles: the catalog and the check list written out shape by shape, as
# they were before one rule over the missing variables generated both.

_ORACLE_M_CATALOG = (
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


def _oracle_model(schema, model_id, mechanisms):
    names = schema.names
    terms = [()]
    terms.extend((n,) for n in names)
    terms.extend(itertools.combinations(names, 2))
    if len(names) == 3:
        terms.append(tuple(names))
    inds = [indicator_factor(m) for m in schema.missing]
    terms.extend((r,) for r in inds)
    if len(inds) == 2:
        terms.append(tuple(inds))
    axes = factor_axes(schema)
    for v, mech in mechanisms:
        if mech.kind == MECH_MCAR:
            continue
        source = v if mech.kind == MECH_NMAR else mech.donor
        pair = (source, indicator_factor(v))
        terms.append(tuple(sorted(pair, key=axes.get)))
    return NonresponseModel(model_id, tuple(mechanisms), tuple(terms))


def _oracle_enumerate_models(schema):
    shape = schema.shape
    if shape == SHAPE_TWO_BOTH:
        v1, v2 = schema.missing
        out = []
        for mid, k1, k2 in _ORACLE_M_CATALOG:
            m1 = Mechanism(k1, v2 if k1 == MECH_MAR else None)
            m2 = Mechanism(k2, v1 if k2 == MECH_MAR else None)
            out.append(_oracle_model(schema, mid, ((v1, m1), (v2, m2))))
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
            _oracle_model(schema, mid, ((v, m),)) for mid, m in specs
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
            out.append(_oracle_model(schema, mid, ((v1, m1), (v2, m2))))
        return tuple(out)
    raise TableError(f"shape {shape} has no model catalog")


def _oracle_list_queries(schema):
    queries = []
    for v in schema.missing:
        for t in schema.names:
            if t == v:
                continue
            rest = [n for n in schema.names if n not in (v, t)]
            pairs = itertools.combinations(range(1, schema.levels(t) + 1), 2)
            for pair in pairs:
                if rest:
                    c = rest[0]
                    for lvl in range(1, schema.levels(c) + 1):
                        queries.append(OddsQuery(v, t, pair, ((c, lvl),)))
                else:
                    queries.append(OddsQuery(v, t, pair, ()))
    return tuple(queries)


@st.composite
def analysis_schemas(draw):
    """Two or three variables of 2-5 levels under shuffled names, with
    any analysable missing set, listed in any order."""
    n = draw(st.sampled_from([2, 3]))
    names = draw(st.permutations(["Y1", "Y2", "Y3", "b", "a"]))[:n]
    levels = draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))
    if n == 2:
        missing = names
    else:
        missing = draw(
            st.sampled_from(
                [c for r in (1, 2) for c in itertools.combinations(names, r)]
            )
        )
    missing = draw(st.permutations(list(missing)))
    return TableSchema(tuple(zip(names, levels)), tuple(missing))


# missing variables that are not leading, which no built-in table has
_TRAILING_MISSING = [
    (("Y1", 3), ("Y2", 2), ("Y3", 4), ("Y1", "Y3")),
    (("Y1", 2), ("Y2", 3), ("Y3", 2), ("Y2",)),
    (("Y1", 2), ("Y2", 5), ("Y3", 3), ("Y3",)),
    (("Y1", 4), ("Y2", 2), ("Y3", 3), ("Y2", "Y3")),
]


class TestOneRuleMatchesTheOracles:
    @settings(max_examples=300, deadline=None)
    @given(analysis_schemas())
    def test_random_schemas(self, schema):
        # ids, order, mechanisms and terms, then every check in order
        assert enumerate_models(schema) == _oracle_enumerate_models(schema)
        assert list_queries(schema) == _oracle_list_queries(schema)

    @pytest.mark.parametrize("spec", _TRAILING_MISSING)
    def test_trailing_missing_variables(self, spec):
        *variables, missing = spec
        schema = TableSchema(tuple(variables), missing)
        models = enumerate_models(schema)
        assert models == _oracle_enumerate_models(schema)
        assert list_queries(schema) == _oracle_list_queries(schema)
        assert len(models) == {1: 4, 2: 16}[len(missing)]

    def test_builtin_tables(self):
        for name in ("smoking-birthweight", "bone-density", "spo-y1", "spo-y1y2"):
            schema = builtin_dataset(name).schema
            assert enumerate_models(schema) == _oracle_enumerate_models(schema)
            assert list_queries(schema) == _oracle_list_queries(schema)
