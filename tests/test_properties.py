"""Invariant properties: exact screening algebra, EM behavior, and
model-based containment, checked across the catalog and random tables."""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from misstab import (
    CLASS_INCONCLUSIVE,
    CLASS_MAR,
    CLASS_MCAR_OR_NMAR,
    IncompleteTable,
    MECH_MAR,
    MECH_MCAR,
    MECH_NMAR,
    NonresponseModel,
    Stratum,
    TableSchema,
    assess,
    bootstrap_assess,
    builtin_dataset,
    collapse_cross,
    dump_table,
    enumerate_models,
    fit_closed_form,
    fit_em,
    fitted_containment,
    g_squared,
    generating_class,
    indicator_factor,
    is_perfect_fit,
    load_table,
    scale_counts,
)
from misstab.fitting import FitResult, _e_step, _ipf, _loglik, _margin_axes
from misstab.models import full_cross_dims

DATASET_NAMES = ("smoking-birthweight", "bone-density", "spo-y1", "spo-y1y2")
ALL_CASES = [
    (name, model.id)
    for name in DATASET_NAMES
    for model in enumerate_models(builtin_dataset(name).schema)
]
FIT_FIXTURE = {
    "smoking-birthweight": "smoking_fits",
    "bone-density": "bone_fits",
    "spo-y1": "opinion_one_fits",
    "spo-y1y2": "opinion_two_fits",
}
TABLE_FIXTURE = {
    "smoking-birthweight": "smoking_table",
    "bone-density": "bone_table",
    "spo-y1": "opinion_one_table",
    "spo-y1y2": "opinion_two_table",
}


@st.composite
def both_missing_tables(draw):
    i = draw(st.integers(2, 3))
    j = draw(st.integers(2, 3))
    cell = st.integers(0, 60)
    full = draw(
        st.lists(
            st.lists(cell, min_size=j, max_size=j), min_size=i, max_size=i
        )
    )
    margin_a_missing = draw(st.lists(cell, min_size=j, max_size=j))
    margin_b_missing = draw(st.lists(cell, min_size=i, max_size=i))
    both = draw(cell)
    schema = TableSchema((("a", i), ("b", j)), ("a", "b"))
    return IncompleteTable(
        schema,
        (
            Stratum(("a", "b"), full),
            Stratum(("b",), margin_a_missing),
            Stratum(("a",), margin_b_missing),
            Stratum((), both),
        ),
    )


def reference_screening(table):
    """Independent re-derivation of every screening record with stdlib
    fractions only."""
    full = table.full.counts
    out = {}
    for v, other, margin, axis in (
        ("a", "b", table.stratum({"a"}).counts, 0),
        ("b", "a", table.stratum({"b"}).counts, 1),
    ):
        levels = int(full.shape[1 - axis])
        records = []
        for p0, p1 in itertools.combinations(range(1, levels + 1), 2):
            num, den = int(margin[p0 - 1]), int(margin[p1 - 1])
            value = Fraction(num, den) if num > 0 and den > 0 else None
            odds = []
            for lvl in range(full.shape[axis]):
                sel = (
                    (lvl, p0 - 1, lvl, p1 - 1)
                    if axis == 0
                    else (p0 - 1, lvl, p1 - 1, lvl)
                )
                a, b = int(full[sel[0], sel[1]]), int(full[sel[2], sel[3]])
                if a > 0 and b > 0:
                    odds.append(Fraction(a, b))
            if value is None or not odds:
                status = "undefined"
            elif min(odds) == max(odds):
                status = "outside"
            elif min(odds) < value < max(odds):
                status = "inside"
            else:
                status = "outside"
            records.append(((p0, p1), value, odds, status))
        statuses = [r[3] for r in records]
        if any(s == "outside" for s in statuses):
            cls = CLASS_MAR
        elif all(s == "undefined" for s in statuses):
            cls = CLASS_INCONCLUSIVE
        else:
            cls = CLASS_MCAR_OR_NMAR
        out[v] = (records, cls)
    return out


class TestScreeningAlgebra:
    @settings(max_examples=120, deadline=None)
    @given(both_missing_tables())
    def test_matches_reference(self, table):
        verdict = assess(table)
        expected = reference_screening(table)
        for fam in verdict.families:
            records, cls = expected[fam.variable]
            assert fam.suggested_class == cls
            assert len(fam.records) == len(records)
            for rec, (pair, value, odds, status) in zip(fam.records, records):
                assert rec.query.pair == pair
                assert rec.membership == status
                if value is not None:
                    assert rec.value.fraction == value
                if odds:
                    assert rec.interval.minimum.fraction == min(odds)
                    assert rec.interval.maximum.fraction == max(odds)

    @settings(max_examples=60, deadline=None)
    @given(both_missing_tables(), st.sampled_from([2, 7, 100]))
    def test_scale_invariance_random(self, table, factor):
        base = assess(table)
        scaled = assess(scale_counts(table, factor))
        assert [r.membership for r in scaled.records] == [
            r.membership for r in base.records
        ]
        assert [f.suggested_class for f in scaled.families] == [
            f.suggested_class for f in base.families
        ]

    @pytest.mark.parametrize("name", DATASET_NAMES)
    @pytest.mark.parametrize("factor", [2, 7, 100])
    def test_scale_invariance_datasets(self, request, name, factor):
        table = request.getfixturevalue(TABLE_FIXTURE[name])
        base = assess(table)
        scaled = assess(scale_counts(table, factor))
        assert [r.membership for r in scaled.records] == [
            r.membership for r in base.records
        ]
        assert scaled.suggested_class == base.suggested_class

    @settings(max_examples=60, deadline=None)
    @given(both_missing_tables())
    def test_serialization_round_trip(self, table):
        assert load_table(dump_table(table)) == table


class TestEmMonotonicity:
    @pytest.mark.parametrize(
        "name,model_id", ALL_CASES, ids=[f"{n}-{m}" for n, m in ALL_CASES]
    )
    def test_loglik_never_decreases(self, request, name, model_id):
        table = request.getfixturevalue(TABLE_FIXTURE[name])
        fit = fit_em(model_id, table)
        trace = np.asarray(fit.loglik_trace)
        assert trace.size >= 1
        diffs = np.diff(trace)
        floor = -1e-9 * (np.abs(trace[:-1]) + 1.0)
        assert np.all(diffs >= floor)


class TestStationarity:
    # interior stationary points must reproduce their own sufficient
    # margins; boundary fits are exempt (their optimum is a constrained
    # one, not a stationary point of the unrestricted likelihood)
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_sufficient_margins_match(self, request, name):
        table = request.getfixturevalue(TABLE_FIXTURE[name])
        fits = request.getfixturevalue(FIT_FIXTURE[name])
        for fit in fits:
            if fit.boundary or not fit.converged:
                continue
            if fit.method == "em":
                fit = fit_em(fit.model, table, tol=1e-15, max_iter=100000)
            mu = fit.mu_hat
            z = _e_step(mu, table)
            for axes in _margin_axes(table.schema, generating_class(fit.model)):
                have = mu.sum(axis=axes)
                want = z.sum(axis=axes)
                rel = np.abs(have - want) / np.maximum(want, 1e-9)
                assert rel.max() <= 1e-6, (name, fit.model_id, rel.max())


AGREEMENT_CASES = [
    ("smoking-birthweight", "M5", 2000),
    ("smoking-birthweight", "M6", 12000),
    ("smoking-birthweight", "M8", 12000),
    ("bone-density", "M5", 2000),
    ("spo-y1", "C4", 2000),
]


class TestClosedFormAgreement:
    # the log-likelihood stopping rule cannot push cell error below the
    # float64 likelihood plateau, so the fixed-point map is iterated
    # directly for a depth frozen per case
    @pytest.mark.parametrize(
        "name,model_id,depth",
        AGREEMENT_CASES,
        ids=[f"{n}-{m}" for n, m, _ in AGREEMENT_CASES],
    )
    def test_em_map_converges_to_closed_form(self, request, name, model_id, depth):
        table = request.getfixturevalue(TABLE_FIXTURE[name])
        closed = fit_closed_form(model_id, table)
        assert closed is not None
        schema = table.schema
        model = closed.model
        dims = full_cross_dims(schema)
        axes = _margin_axes(schema, generating_class(model))
        mu = np.full(dims, table.N / float(np.prod(dims)))
        for _ in range(depth):
            mu = _ipf(mu, _e_step(mu, table), axes)
        rel = np.abs(mu - closed.mu_hat) / np.maximum(closed.mu_hat, 1e-12)
        assert rel.max() <= 1e-6, (name, model_id, rel.max())


# Slice-and-sum reference for the observation map: each stratum is the
# complete cross at that pattern's indicator levels, summed over the
# unrecorded substantive axes.

def _oracle_slice(schema, pattern):
    ind = tuple(1 if m in set(pattern) else 0 for m in schema.missing)
    return (slice(None),) * len(schema.names) + ind


def _oracle_collapse(mu, schema, pattern):
    axes = tuple(schema.index(v) for v in pattern)
    return np.asarray(mu[_oracle_slice(schema, pattern)].sum(axis=axes))


def _oracle_e_step(mu, table):
    schema = table.schema
    z = np.zeros_like(mu)
    for st_ in table.strata:
        pat = table.pattern_of(st_)
        idx = _oracle_slice(schema, pat)
        axes = tuple(schema.index(v) for v in pat)
        size = math.prod(schema.levels(v) for v in pat)
        sl = mu[idx]
        denom = sl.sum(axis=axes, keepdims=True)
        safe = np.where(denom > 0, denom, 1.0)
        frac = np.where(denom > 0, sl / safe, 1.0 / size)
        z[idx] = np.expand_dims(st_.counts, axes) * frac
    return z


def _oracle_loglik_and_g2(mu, table):
    ll = -float(mu.sum())
    g2 = 0.0
    for st_ in table.strata:
        c = _oracle_collapse(mu, table.schema, table.pattern_of(st_))
        y = st_.counts
        mask = y > 0
        if not np.all(c[mask] > 0):
            return float("-inf"), float("inf")
        ll += float((y[mask] * np.log(c[mask])).sum())
        g2 += 2.0 * float((y[mask] * np.log(y[mask] / c[mask])).sum())
    return ll, max(g2, 0.0)


@st.composite
def analysis_tables_and_cross(draw):
    """A random table of one of the three analysis shapes, plus a fitted
    cross that may carry an all-zero block behind a positive count."""
    n_vars = draw(st.sampled_from([2, 3]))
    names = ("a", "b", "c")[:n_vars]
    levels = [draw(st.integers(2, 3)) for _ in names]
    n_missing = 2 if n_vars == 2 else draw(st.integers(1, 2))
    missing = draw(st.permutations(names))[:n_missing]
    schema = TableSchema(tuple(zip(names, levels)), missing)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = {
        pat: rng.integers(0, 30, size=[schema.levels(v) for v in
                                       schema.observed_for(pat)])
        for pat in schema.patterns()
    }
    mu = rng.uniform(0.05, 20.0, size=full_cross_dims(schema))
    if draw(st.booleans()):
        pat = draw(st.sampled_from(schema.patterns()[1:]))
        cell = tuple(
            draw(st.integers(0, schema.levels(v) - 1))
            for v in schema.observed_for(pat)
        )
        counts[pat][cell] += 1
        block = list(_oracle_slice(schema, pat))
        for v, lvl in zip(schema.observed_for(pat), cell):
            block[schema.index(v)] = lvl
        mu[tuple(block)] = 0.0
    table = IncompleteTable(
        schema,
        tuple(
            Stratum(schema.observed_for(p), c) for p, c in counts.items()
        ),
    )
    return table, mu


class TestObservationMapOracle:
    @settings(max_examples=150, deadline=None)
    @given(analysis_tables_and_cross())
    def test_collapses_match_slice_and_sum(self, case):
        table, mu = case
        schema = table.schema
        fit = SimpleNamespace(mu_hat=mu, schema=schema)
        strata = FitResult.fitted_strata(fit)
        for pat in schema.patterns():
            want = _oracle_collapse(mu, schema, pat)
            got = collapse_cross(mu, schema, pat)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                strata[pat], want, rtol=1e-12, atol=1e-12
            )
        np.testing.assert_allclose(
            _e_step(mu, table), _oracle_e_step(mu, table),
            rtol=1e-12, atol=1e-12,
        )
        ll, g2 = _oracle_loglik_and_g2(mu, table)
        for got, want in ((_loglik(mu, table), ll), (g_squared(fit, table), g2)):
            if math.isinf(want):
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _hand_parameter_count(model, schema):
    """Free parameters counted from the levels: the saturated substantive
    block, one main effect per indicator, the indicator association when
    two variables can be missing, and one donor-by-indicator term per
    mechanism (own levels less one for NMAR, the donor's for MAR)."""
    count = math.prod(l for _, l in schema.variables)
    count += 2 ** len(schema.missing) - 1
    for var, mech in model.mechanisms:
        if mech.kind == MECH_NMAR:
            count += schema.levels(var) - 1
        elif mech.kind == MECH_MAR:
            count += schema.levels(mech.donor) - 1
    return count


def _hand_statistic_count(schema):
    """Observed cells: one per level combination of the recorded
    variables, summed over every missingness pattern."""
    return sum(
        math.prod(schema.levels(n) for n in schema.names if n not in pat)
        for size in range(len(schema.missing) + 1)
        for pat in itertools.combinations(schema.missing, size)
    )


class TestPerfectFitPrediction:
    def test_two_variable_set(self, smoking_table, bone_table):
        for table in (smoking_table, bone_table):
            predicted = {
                m.id
                for m in enumerate_models(table.schema)
                if is_perfect_fit(m, table.schema)
            }
            assert predicted == {"M2", "M3", "M5", "M6"}

    def test_one_missing_set(self, opinion_one_table):
        # Y1 (I levels) missing beside J x K recorded levels: IJK + JK
        # observed statistics against IJK + 1 parameters plus I - 1 (C1,
        # NMAR), J - 1 or K - 1 (C2, C3, MAR) or 0 (C4, MCAR).  So C1 is
        # perfect exactly when I = J*K and C2-C4 never are.
        wide = TableSchema((("a", 4), ("b", 2), ("c", 2)), ("a",))
        for schema, hand_params, hand_stats, hand_set in (
            (opinion_one_table.schema, [10, 10, 10, 9], 12, set()),
            (wide, [20, 18, 18, 17], 20, {"C1"}),
        ):
            models = enumerate_models(schema)
            params = [_hand_parameter_count(m, schema) for m in models]
            stats = _hand_statistic_count(schema)
            assert (params, stats) == (hand_params, hand_stats)
            (missing,) = schema.missing
            rest = math.prod(l for n, l in schema.variables if n != missing)
            derived = {"C1"} if schema.levels(missing) == rest else set()
            assert derived == hand_set
            counted = {m.id for m, p in zip(models, params) if p == stats}
            assert counted == derived
            predicted = {m.id for m in models if is_perfect_fit(m, schema)}
            assert predicted == derived

    def test_two_missing_set(self, opinion_two_table):
        # Y1, Y2 (I, J levels) missing beside Y3 (K levels): the four
        # strata give IJK + JK + IK + K observed statistics, while a model
        # has IJK + 3 parameters plus at most max(I,J,K) - 1 per
        # mechanism.  IJK + 2 max(I,J,K) + 1 < IJK + K(I + J + 1) for any
        # levels >= 2, so no catalog member is ever a perfect fit.
        schema = opinion_two_table.schema
        models = enumerate_models(schema)
        params = [_hand_parameter_count(m, schema) for m in models]
        stats = _hand_statistic_count(schema)
        assert (min(params), max(params), stats) == (11, 13, 18)
        derived = {m.id for m, p in zip(models, params) if p == stats}
        assert derived == set()
        predicted = {m.id for m in models if is_perfect_fit(m, schema)}
        assert predicted == derived
        # control: letting each indicator depend on everything recorded
        # alongside it (R1 on Y2 x Y3, R2 on Y1 x Y3, R1 x R2 on Y3) adds
        # (JK - 1) + (IK - 1) + (K - 1) parameters to the MCAR model's IJK + 3,
        # one parameter per observed statistic, so the count decides
        y1, y2 = schema.missing
        (y3,) = (n for n in schema.names if n not in schema.missing)
        i, j, k = (schema.levels(n) for n in (y1, y2, y3))
        r1, r2 = indicator_factor(y1), indicator_factor(y2)
        (mcar,) = (
            m for m in models
            if all(mech.kind == MECH_MCAR for _, mech in m.mechanisms)
        )
        extra = (
            (y2, r1), (y3, r1), (y2, y3, r1),
            (y1, r2), (y3, r2), (y1, y3, r2),
            (y3, r1, r2),
        )
        control = NonresponseModel("saturated", (), mcar.terms + extra)
        assert i * j * k + 3 + (j * k - 1) + (i * k - 1) + (k - 1) == stats
        assert is_perfect_fit(control, schema)


class TestFittedContainment:
    # with no MAR mechanism the fitted non-response odds must sit inside
    # the span of the fitted response odds
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_non_mar_fits_contained(self, request, name):
        fits = request.getfixturevalue(FIT_FIXTURE[name])
        checked = 0
        for fit in fits:
            if fit.boundary or not fit.converged:
                continue
            if any(m.kind == MECH_MAR for _, m in fit.model.mechanisms):
                continue
            for _, _, _, _, val, lo, hi in fitted_containment(fit):
                if not (math.isfinite(val) and math.isfinite(lo)):
                    continue
                eps = 1e-9 * (1.0 + abs(hi))
                assert lo - eps <= val <= hi + eps, (name, fit.model_id)
                checked += 1
        assert checked > 0


class TestInteractionIdentity:
    def test_recorded_slice_cross_ratio(self, smoking_fits):
        # on a 2x2x2x2 cross the association effect is a quarter of the
        # log cross-product ratio of the fully recorded slice
        for fit in smoking_fits:
            if fit.boundary or fit.lambda_hat is None:
                continue
            mu = fit.mu_hat[:, :, 0, 0]
            expected = 0.25 * math.log(
                mu[0, 0] * mu[1, 1] / (mu[0, 1] * mu[1, 0])
            )
            lam = fit.lambda_hat[("smoking", "birthweight")]
            assert abs(lam[0, 0] - expected) <= 1e-8, fit.model_id


class TestLambdaStructure:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_sum_to_zero(self, request, name):
        fits = request.getfixturevalue(FIT_FIXTURE[name])
        for fit in fits:
            if fit.boundary or fit.lambda_hat is None:
                continue
            assert fit.lambda_residual <= 1e-10
            for term, arr in fit.lambda_hat.items():
                if term == ():
                    continue
                for ax in range(arr.ndim):
                    assert np.abs(arr.sum(axis=ax)).max() <= 1e-8


class TestBootstrapDeterminism:
    def test_fixed_seed_reproduces(self, opinion_one_table):
        a = bootstrap_assess(opinion_one_table, "C3", n_replicates=30, seed=11)
        b = bootstrap_assess(opinion_one_table, "C3", n_replicates=30, seed=11)
        assert a.as_dict() == b.as_dict()
