"""Invariant properties: exact screening algebra, EM behavior, and
model-based containment, checked across the catalog and random tables."""

import functools
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from misstab import (
    CLASS_INCONCLUSIVE,
    CLASS_MAR,
    CLASS_MCAR_OR_NMAR,
    CountRatio,
    IncompleteTable,
    MECH_MAR,
    MECH_MCAR,
    MECH_NMAR,
    NonresponseModel,
    OddsInterval,
    QueryRecord,
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
    fit_model,
    fitted_containment,
    generating_class,
    get_model,
    indicator_factor,
    is_perfect_fit,
    list_queries,
    load_table,
    mar_bounds,
    resample,
    scale_counts,
)
import misstab.fitting
from misstab.fitting import (
    DECAY_HALF,
    DECAY_WINDOW,
    FACE_CHECK_CYCLES,
    FACE_MAX_EVALUATIONS,
    FACE_RESIDUAL,
    REOPEN_SHARE,
    SQUAREM_STEP_FACTOR,
    FitResult,
    _EcmMap,
    _FaceSolve,
    _Iterate,
    _checkpoint,
    _decay_zeros,
    _g2_from_mu,
    _is_face,
    _margin_axes,
    _margin_group,
    _margin_groups,
    _margin_residual,
    _recover_lambda,
    _step,
    _steps,
)
from misstab.models import (
    _effects_coding,
    build_design,
    factor_axes,
    factor_levels,
    full_cross_dims,
    observation_map,
    observed_counts,
)
from misstab.bootstrap import _child_seeds
from misstab.odds import ScreeningPlan, screening_plan
from test_models import _oracle_list_queries

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
    "smoking-zero-count": "smoking_zero_count_table",
}
# a built-in with a zero count: smoking M1 certifies a 6-cell face in 106
# map applications of its full stratum's first count set to 0
ZERO_COUNT_CASES = [("smoking-zero-count", "M1")]


def _zero_counts(table, both_missing=False):
    """A two-variable table with its first fully classified count set to 0
    and, when both_missing, its count with both variables missing too."""
    full, *rest, last = table.strata
    counts = full.counts.copy()
    counts[0, 0] = 0
    if both_missing:
        last = Stratum(last.observed, np.zeros_like(last.counts))
    return IncompleteTable(
        table.schema, (Stratum(full.observed, counts), *rest, last)
    )


@pytest.fixture(scope="module")
def smoking_zero_count_table(smoking_table):
    return _zero_counts(smoking_table)


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
            axes_list = _margin_axes(table.schema, generating_class(fit.model))
            ecm = _EcmMap(table, axes_list)
            z = ecm._spread_counts(_Iterate(mu.ravel())).reshape(mu.shape)
            for axes in axes_list:
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
        ecm = _EcmMap(table, _margin_axes(schema, generating_class(model)))
        it = _Iterate(np.full(dims, table.N / float(np.prod(dims))).ravel())
        for _ in range(depth):
            it = ecm(it)
        mu = it.flat.reshape(dims)
        rel = np.abs(mu - closed.mu_hat) / np.maximum(closed.mu_hat, 1e-12)
        assert rel.max() <= 1e-6, (name, model_id, rel.max())


# Per-model closed forms (Baker, Rosenberger & DerSimonian 1992), one hand
# derivation per catalog id, as reference for the explicit solver, which
# builds every one of them from one factor per mechanism.  The
# two-variable forms take the count blocks in pattern order: y11 (both
# recorded), y21 (first missing), y12 (second missing), y22 (both missing).

def _oracle_tilt_solve(weight, target):
    """Strictly positive s with sum_i weight[i, j] * s[i] = target[j], or
    None unless the system is square, solvable and positive."""
    if weight.shape[0] != weight.shape[1]:
        return None
    try:
        s = np.linalg.solve(weight.T, target)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(s)) or not np.all(s > 0):
        return None
    return s


def _oracle_assemble(mu11, mu21, mu12, weights, y22):
    if y22 == 0:
        mu22 = np.zeros_like(weights)
    elif weights.sum() <= 0:
        return None
    else:
        mu22 = y22 * weights / weights.sum()
    mu = np.zeros(mu11.shape + (2, 2))
    for ind, block in zip(
        ((0, 0), (1, 0), (0, 1), (1, 1)), (mu11, mu21, mu12, mu22)
    ):
        mu[(Ellipsis,) + ind] = block
    return mu


def _oracle_m5(y11, y21, y12, y22):
    rows = y11.sum(axis=1)
    cols = y11.sum(axis=0)
    if not (np.all(rows > 0) and np.all(cols > 0)):
        return None
    mu21 = y21[None, :] * y11 / cols[None, :]
    mu12 = y12[:, None] * y11 / rows[:, None]
    w = y11 * (y12 / rows)[:, None] * (y21 / cols)[None, :]
    return _oracle_assemble(y11, mu21, mu12, w, y22)


def _oracle_m3(y11, y21, y12, y22):
    s = _oracle_tilt_solve(y11, y21)
    u = _oracle_tilt_solve(y11.T, y12)
    if s is None or u is None:
        return None
    w = y11 * s[:, None] * u[None, :]
    return _oracle_assemble(y11, y11 * s[:, None], y11 * u[None, :], w, y22)


def _oracle_m2(y11, y21, y12, y22):
    rows = y11.sum(axis=1)
    s = _oracle_tilt_solve(y11, y21)
    if not np.all(rows > 0) or s is None:
        return None
    mu12 = y12[:, None] * y11 / rows[:, None]
    w = y11 * s[:, None] * (y12 / rows)[:, None]
    return _oracle_assemble(y11, y11 * s[:, None], mu12, w, y22)


def _oracle_m1(y11, y21, y12, y22):
    rows11 = y11.sum(axis=1)
    tot11 = y11.sum()
    tot1p = tot11 + y12.sum()
    if not (np.all(rows11 > 0) and tot11 > 0):
        return None
    mu11 = y11 * ((rows11 + y12) / rows11)[:, None] * (tot11 / tot1p)
    s = _oracle_tilt_solve(mu11, y21)
    if s is None:
        return None
    mu21 = mu11 * s[:, None]
    mu12 = mu11 * (y12.sum() / tot11)
    return _oracle_assemble(mu11, mu21, mu12, mu21, y22)


def _oracle_swapped(closed):
    """A two-variable closed form with the two variables' roles swapped."""

    def swapped(y11, y21, y12, y22):
        mu = closed(y11.T, y12, y21, y22)
        return None if mu is None else mu.transpose(1, 0, 3, 2)

    return swapped


_ORACLE_TWO_VARIABLE = {
    "M1": _oracle_m1,
    "M2": _oracle_m2,
    "M3": _oracle_m3,
    "M5": _oracle_m5,
    "M6": _oracle_swapped(_oracle_m2),
    "M8": _oracle_swapped(_oracle_m1),
}


def _oracle_c4(table):
    v = table.schema.missing[0]
    p = table.schema.index(v)
    full = table.full.counts.astype(float)
    margin = table.stratum({v}).counts.astype(float)
    coll = full.sum(axis=p)
    tot1 = full.sum()
    tot2 = margin.sum()
    if not np.all(coll > 0) or tot1 <= 0:
        return None
    plus = coll + margin
    mu1 = full * np.expand_dims(plus / coll, p) * (tot1 / (tot1 + tot2))
    mu = np.zeros(full_cross_dims(table.schema))
    mu[..., 0] = mu1
    mu[..., 1] = mu1 * (tot2 / tot1)
    return mu


def _oracle_closed(model_id, table):
    """The hand-derived closed-form mu of a catalog model, or None where
    it has none or leaves the interior."""
    if model_id == "C4":
        return _oracle_c4(table)
    if model_id not in _ORACLE_TWO_VARIABLE:
        return None
    blocks = (st_.counts.astype(float) for st_ in table.strata)
    return _ORACLE_TWO_VARIABLE[model_id](*blocks)


@st.composite
def closed_form_tables(draw):
    """A random two-variable table (square or not) or a random table with
    one of three variables missing, with about a fifth of its counts
    zero."""
    if draw(st.booleans()):
        names = ("a", "b")
        levels = [draw(st.integers(2, 4)) for _ in names]
        missing = names
    else:
        names = ("a", "b", "c")
        levels = [draw(st.integers(2, 3)) for _ in names]
        missing = (draw(st.sampled_from(names)),)
    schema = TableSchema(tuple(zip(names, levels)), missing)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    strata = []
    for pattern in schema.patterns():
        observed = schema.observed_for(pattern)
        shape = [schema.levels(v) for v in observed]
        counts = rng.integers(1, 50, size=shape) * (rng.random(shape) > 0.2)
        strata.append(Stratum(observed, counts))
    return IncompleteTable(schema, tuple(strata))


class TestExplicitSolverOracle:
    @settings(max_examples=200, deadline=None)
    @given(closed_form_tables())
    def test_one_rule_per_mechanism_matches_the_hand_forms(self, table):
        for model in enumerate_models(table.schema):
            want = _oracle_closed(model.id, table)
            fit = fit_closed_form(model, table)
            assert (fit is None) == (want is None), model.id
            if want is None:
                continue
            if model.id == "C4":
                np.testing.assert_array_equal(fit.mu_hat, want)
            else:
                np.testing.assert_allclose(
                    fit.mu_hat, want, rtol=1e-12, atol=0, err_msg=model.id
                )

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_catalog_tables_match_the_hand_forms(self, request, name):
        table = request.getfixturevalue(TABLE_FIXTURE[name])
        for model in enumerate_models(table.schema):
            want = _oracle_closed(model.id, table)
            fit = fit_closed_form(model, table)
            assert (fit is None) == (want is None), model.id
            if want is not None:
                assert fit.G2 == pytest.approx(
                    _g2_from_mu(want, table), rel=1e-12, abs=1e-12
                )


# Slice-and-sum reference for the observation map: each stratum is the
# complete cross at that pattern's indicator levels, summed over the
# unrecorded substantive axes.

def _oracle_slice(schema, pattern):
    ind = tuple(1 if m in set(pattern) else 0 for m in schema.missing)
    return (slice(None),) * len(schema.names) + ind


def _oracle_collapse(mu, schema, pattern):
    axes = tuple(schema.index(v) for v in pattern)
    block = mu[_oracle_slice(schema, pattern)]
    return np.squeeze(_oracle_margin(block, axes), axis=axes)


def _oracle_margin(x, axes):
    """x summed over axes, kept as length-1 axes.  The summed cells are
    added one at a time in C order (a running sum), as the observation map
    and the ECM map's group sums add them, so that the sums agree to the
    bit."""
    inner = sorted(axes)
    blocks = np.moveaxis(x, inner, range(len(inner)))
    size = math.prod(x.shape[a] for a in inner)
    flat = blocks.reshape((size,) + blocks.shape[len(inner):])
    return np.expand_dims(np.add.accumulate(flat, axis=0)[-1], inner)


def _oracle_e_step(mu, table):
    schema = table.schema
    z = np.zeros_like(mu)
    for st_ in table.strata:
        pat = table.pattern_of(st_)
        idx = _oracle_slice(schema, pat)
        axes = tuple(schema.index(v) for v in pat)
        size = math.prod(schema.levels(v) for v in pat)
        sl = mu[idx]
        denom = _oracle_margin(sl, axes)
        safe = np.where(denom > 0, denom, 1.0)
        frac = np.where(denom > 0, sl / safe, 1.0 / size)
        z[idx] = np.expand_dims(st_.counts, axes) * frac
    return z


def _oracle_ipf(mu, z, sum_axes_list):
    """One proportional-fitting sweep of mu to the margins of z, with an
    empty margin cell of mu scaled by 0."""
    for axes in sum_axes_list:
        target = _oracle_margin(z, axes)
        cur = _oracle_margin(mu, axes)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(cur > 0, target / np.where(cur > 0, cur, 1.0), 0.0)
        mu = mu * ratio
    return mu


def _oracle_margin_residual(mu, table, sum_axes_list):
    """Largest relative gap, over every sufficient margin, between the
    margins of mu and those of its E step."""
    z = _oracle_e_step(mu, table)
    worst = 0.0
    for axes in sum_axes_list:
        target = _oracle_margin(z, axes)
        cur = _oracle_margin(mu, axes)
        gap = np.abs(target - cur) / np.maximum(target, 1e-300)
        worst = max(worst, float(gap.max()))
    return worst


def _oracle_loglik_and_g2(mu, table):
    """The log-likelihood and G2 of mu.  The terms of the positive counts
    are concatenated stratum by stratum and summed once, as the ECM map
    and the deviance sum them, so that each agrees to the bit."""
    y = np.concatenate([np.ravel(st_.counts) for st_ in table.strata])
    c = np.concatenate([
        np.ravel(_oracle_collapse(mu, table.schema, table.pattern_of(st_)))
        for st_ in table.strata
    ])
    mask = y > 0
    y, c = y[mask].astype(float), c[mask]
    if not np.all(c > 0):
        return float("-inf"), float("inf")
    logs = float(np.add.reduce(y * np.log(c)))
    g2 = 2.0 * float(np.add.reduce(y * np.log(y / c)))
    return -float(np.add.reduce(mu.ravel())) + logs, max(g2, 0.0)


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
        # the E step reads the live cells alone, so a count behind an
        # all-zero block is spread nowhere, and the map that drops it is
        # starved, its log-likelihood -inf
        ecm, it = _EcmMap(table, ()).restrict(mu.reshape(-1))
        np.testing.assert_allclose(
            ecm.cross(ecm._spread_counts(it)).reshape(mu.shape),
            _oracle_e_step(mu, _fed(table, mu)), rtol=1e-12, atol=1e-12,
        )
        ll, g2 = _oracle_loglik_and_g2(mu, table)
        assert ecm.starved is math.isinf(ll)
        for got, want in ((ecm.loglik(it), ll), (_g2_from_mu(mu, table), g2)):
            if math.isinf(want):
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


CROSS_KINDS = ("positive", "zero-count", "empty-margin", "zero-collapse")


@st.composite
def tables_margins_and_cross(draw, kind):
    """A table of one of the three analysis shapes with positive counts,
    the sufficient margins of a catalog model and a strictly positive
    cross.  kind "zero-count" sets some observed counts to 0, one of the
    full stratum's always, and keeps the cross positive; "empty-margin"
    empties one margin cell of the cross, and "zero-collapse" empties the
    cells behind one observed count, so that the E step spreads that
    count evenly."""
    n_vars = draw(st.sampled_from([2, 3]))
    names = ("a", "b", "c")[:n_vars]
    levels = [draw(st.integers(2, 4)) for _ in names]
    n_missing = 2 if n_vars == 2 else draw(st.integers(1, 2))
    missing = draw(st.permutations(names))[:n_missing]
    schema = TableSchema(tuple(zip(names, levels)), missing)
    model = draw(st.sampled_from(enumerate_models(schema)))
    axes_list = _margin_axes(schema, generating_class(model))
    dims = full_cross_dims(schema)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = [
        rng.integers(1, 30, size=[schema.levels(v) for v in
                                  schema.observed_for(pat)])
        for pat in schema.patterns()
    ]
    if kind == "zero-count":
        # the stratum with every missing variable unrecorded stays
        # positive, so the table is never empty
        for c in counts[:-1]:
            c[rng.random(c.shape) < 0.3] = 0
        counts[0][tuple(draw(st.integers(0, d - 1)) for d in levels)] = 0
    strata = tuple(
        Stratum(schema.observed_for(pat), c)
        for pat, c in zip(schema.patterns(), counts)
    )
    mu = rng.uniform(0.05, 20.0, size=dims)
    if kind == "empty-margin":
        empty = draw(st.sampled_from(axes_list))
        cell = [
            slice(None) if a in empty else draw(st.integers(0, d - 1))
            for a, d in enumerate(dims)
        ]
        mu[tuple(cell)] = 0.0
    elif kind == "zero-collapse":
        pat = draw(st.sampled_from(schema.patterns()[1:]))
        block = list(_oracle_slice(schema, pat))
        for v in schema.observed_for(pat):
            block[schema.index(v)] = draw(st.integers(0, schema.levels(v) - 1))
        mu[tuple(block)] = 0.0
    return IncompleteTable(schema, strata), axes_list, mu


def _fed(table, mu):
    """The table with every count whose cells are all zero in the cross mu
    set to 0: the counts that a map restricted to mu's live cells spreads,
    where the oracle E step spreads the others evenly."""
    strata = []
    for st_ in table.strata:
        c = _oracle_collapse(mu, table.schema, table.pattern_of(st_))
        strata.append(Stratum(st_.observed, np.where(c > 0, st_.counts, 0)))
    return IncompleteTable(table.schema, tuple(strata))


def _live_iterates(table, axes_list, mu):
    """The map of a table on the live cells of the cross mu, with mu there
    as an iterate (restrict), as a fit reads a cross that holds zeros; and,
    when mu has no zero cell, the full map with mu raveled as a flagged
    iterate, as a fit's start and each next one the map builds are."""
    yield _EcmMap(table, axes_list).restrict(mu.reshape(-1))
    if np.all(mu > 0):
        yield _EcmMap(table, axes_list), _Iterate(mu.ravel(), True)


def _full(ecm, it):
    """An iterate of the map ecm as a shaped cross of its table."""
    return ecm.cross(it.flat).reshape(ecm._shape)


def _check_cross_kind(table, axes_list, mu, kind):
    """The cross really takes the path its kind names."""
    if kind == "positive":
        assert np.all(mu > 0)
    elif kind == "zero-count":
        assert np.all(mu > 0)
        assert np.any(observed_counts(table) == 0)
    elif kind == "empty-margin":
        assert any(np.any(_oracle_margin(mu, a) == 0) for a in axes_list)
    else:
        patterns = (table.pattern_of(s) for s in table.strata)
        assert any(
            np.any(_oracle_collapse(mu, table.schema, pat) == 0)
            for pat in patterns
        )


class TestEcmMapOracle:
    # the EM stop, the face test and the benchmark pins read these bits, so
    # the per-fit map must reproduce the plain E step and the guarded sweep,
    # each sum taken in C order, exactly, not within a tolerance
    @pytest.mark.parametrize(
        "name,model_id", ALL_CASES, ids=[f"{n}-{m}" for n, m in ALL_CASES]
    )
    def test_map_is_bit_identical(self, request, name, model_id):
        table = request.getfixturevalue(TABLE_FIXTURE[name])
        fit = fit_em(model_id, table)
        axes = _margin_axes(table.schema, generating_class(fit.model))
        dims = full_cross_dims(table.schema)
        start = np.full(dims, table.N / float(np.prod(dims)))
        states = list(_live_iterates(table, axes, start))
        for _ in range(50):
            ecm, it = states[-1]
            states.append((ecm, ecm(it)))
        # a face fit's zero cells are read through the map on its live cells
        states.extend(_live_iterates(table, axes, fit.mu_hat))
        for ecm, it in states:
            mu = _full(ecm, it)
            z = _oracle_e_step(mu, table)
            assert np.array_equal(ecm.cross(ecm._spread_counts(it)),
                                  z.ravel())
            assert np.array_equal(_full(ecm, ecm(it)),
                                  _oracle_ipf(mu, z, axes))

    @pytest.mark.parametrize(
        "name,model_id", ALL_CASES, ids=[f"{n}-{m}" for n, m in ALL_CASES]
    )
    def test_mass_on_an_empty_margin_cell(self, request, name, model_id):
        # with the all-missing block zeroed, the oracle E step spreads its
        # count evenly there, onto margin cells where mu has no mass.  The
        # map on the live cells has no cell for that count: it is starved,
        # its log-likelihood is -inf, and it spreads the count nowhere, so
        # its sweep has the oracle's bits on the table without the count
        table = request.getfixturevalue(TABLE_FIXTURE[name])
        schema = table.schema
        axes = _margin_axes(schema, generating_class(get_model(schema, model_id)))
        dims = full_cross_dims(schema)
        mu = np.full(dims, table.N / float(np.prod(dims)))
        mu[_oracle_slice(schema, schema.patterns()[-1])] = 0.0
        z = _oracle_e_step(mu, table)
        assert any(
            np.any((mu.sum(axis=a) == 0) & (z.sum(axis=a) > 0)) for a in axes
        )
        fed = _fed(table, mu)
        last = fed.strata[-1].counts
        assert not np.any(last) and np.any(table.strata[-1].counts)
        (ecm, it), = _live_iterates(table, axes, mu)
        assert ecm.starved and ecm.loglik(it) == -math.inf
        want = _oracle_ipf(mu, _oracle_e_step(mu, fed), axes)
        assert np.array_equal(_full(ecm, ecm(it)), want)

    # a strictly positive cross takes the unguarded divisions, on a table
    # with zero counts too; a cross with an emptied margin cell or a zero
    # collapse is read on its live cells, where a count with no live cell
    # starves the map and is spread nowhere; an output is flagged exactly
    # when it has no zero cell
    @pytest.mark.parametrize("kind", CROSS_KINDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_path_matches_the_oracle(self, kind, data):
        table, axes_list, mu = data.draw(tables_margins_and_cross(kind))
        _check_cross_kind(table, axes_list, mu, kind)
        fed = _fed(table, mu)
        dropped = not np.array_equal(observed_counts(fed),
                                     observed_counts(table))
        z = _oracle_e_step(mu, fed)
        twice = scale_counts(table, 2)
        want = _oracle_ipf(mu, _oracle_e_step(mu, scale_counts(fed, 2)),
                           axes_list)
        for ecm, it in _live_iterates(table, axes_list, mu):
            assert ecm.starved is dropped
            got = ecm(it)
            assert np.array_equal(_full(ecm, got),
                                  _oracle_ipf(mu, z, axes_list))
            assert got.positive == np.all(got.flat > 0)
            # an iterate another map has read gets this map's own margins
            other, _ = _EcmMap(twice, axes_list).restrict(mu.reshape(-1))
            assert np.array_equal(_full(other, other(it)), want)
            # with no margins to fit the map leaves the cross as it is
            still, _ = _EcmMap(table, ()).restrict(mu.reshape(-1))
            assert np.array_equal(_full(still, still(it)), mu)

    @pytest.mark.parametrize(
        "name,model_id", ALL_CASES + ZERO_COUNT_CASES,
        ids=[f"{n}-{m}" for n, m in ALL_CASES + ZERO_COUNT_CASES],
    )
    def test_a_positive_flag_keeps_the_bits(
        self, request, name, model_id, monkeypatch
    ):
        # every iterate a fit maps, in the EM phase, the face solve and the
        # probes of its certification, is flagged and has no zero cell, and
        # the map gives it the full-cross oracle's log-likelihood; the
        # kernel gives it the oracle's iterate after its steps, flagged,
        # exactly when that has no zero cell, and None otherwise
        table = request.getfixturevalue(TABLE_FIXTURE[name])
        schema = table.schema
        axes = _margin_axes(schema, generating_class(get_model(schema, model_id)))
        seen = []
        kernel = _EcmMap.kernel

        def recorded(ecm, it, steps=1):
            out = kernel(ecm, it, steps)
            seen.append((ecm, it, steps, out))
            return out

        monkeypatch.setattr(_EcmMap, "kernel", recorded)
        fit = fit_em(model_id, table)
        monkeypatch.undo()
        assert seen
        # a certified face ran its probe as two kernel calls of a half each
        halves = sum(steps == DECAY_HALF for _, _, steps, _ in seen)
        assert halves >= (2 if fit.face_cells else 0)
        for ecm, it, steps, out in seen:
            assert it.positive and np.all(it.flat > 0)
            mu = _full(ecm, it)
            ll = ecm.loglik(it)
            assert ll == _oracle_loglik_and_g2(mu, table)[0]
            want = mu
            for _ in range(steps):
                want = _oracle_ipf(want, _oracle_e_step(want, table), axes)
            live = ecm.cross(np.ones(it.flat.size)).reshape(mu.shape) > 0
            assert (out is not None) == bool(np.all(want[live] > 0))
            if out is not None:
                assert _full(ecm, out).tobytes() == want.tobytes()
                assert out.positive and np.all(out.flat > 0)

    def test_a_sweep_that_empties_a_margin_cell_falls_back(
        self, smoking_table
    ):
        # every cell is positive, but those of one cell of the second margin
        # are the smallest subnormal, which the first margin's ratios scale
        # to zero: the unguarded sweep divides by that empty margin cell,
        # and the map returns the guarded sweep's bits instead
        table = smoking_table
        schema = table.schema
        dims = full_cross_dims(schema)
        for model in enumerate_models(schema):
            axes = _margin_axes(schema, generating_class(model))
            mu = np.full(dims, 1e10 * table.N / math.prod(dims))
            block = tuple(
                slice(None) if a in axes[1] else 0 for a in range(len(dims))
            )
            mu[block] = 5e-324
            z = _oracle_e_step(mu, table)
            first = _oracle_ipf(mu, z, axes[:1])
            assert np.any(_oracle_margin(first, axes[1]) == 0)
            ecm = _EcmMap(table, axes)
            got = ecm(_Iterate(mu.ravel(), True))
            assert not got.positive
            want = _oracle_ipf(mu, z, axes)
            assert np.array_equal(got.flat.reshape(dims), want)
            assert np.array_equal(got.flat, ecm(_Iterate(mu.ravel())).flat)

    @pytest.mark.parametrize(
        "both_missing,sums,flagged", [(False, 6, True), (True, 9, False)],
        ids=["zero-count", "zero-target"],
    )
    def test_a_zero_count_sweeps_unguarded_until_a_target_is_zero(
        self, smoking_table, monkeypatch, both_missing, sums, flagged
    ):
        # a zero-free iterate sweeps unguarded on a table with a zero count
        # too: one bincount per margin for its E step and one for the
        # sweep.  With the both-missing count 0 as well, the margin cell of
        # the R x R term that every model holds has target 0, so the
        # unguarded result has a zero cell and is swept again with the
        # guards: a third bincount per margin, and the output is unflagged
        table = _zero_counts(smoking_table, both_missing)
        schema = table.schema
        axes = _margin_axes(schema, generating_class(get_model(schema, "M4")))
        ecm = _EcmMap(table, axes)
        dims = full_cross_dims(schema)
        mu = np.full(dims, table.N / math.prod(dims))
        groups = [group for group, _ in ecm._groups]
        seen = []
        bincount = np.bincount

        def counted(index, *args, **kwargs):
            if any(index is group for group in groups):
                seen.append(None)
            return bincount(index, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        got = ecm(_Iterate(mu.ravel(), True))
        monkeypatch.undo()
        assert len(groups) == 3 and len(seen) == sums
        assert got.positive is flagged
        want = _oracle_ipf(mu, _oracle_e_step(mu, table), axes)
        assert np.array_equal(got.flat.reshape(dims), want)


class TestMarginResidualOracle:
    @pytest.mark.parametrize("kind", CROSS_KINDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_residual_is_the_largest_margin_gap(self, kind, data):
        table, axes_list, mu = data.draw(tables_margins_and_cross(kind))
        _check_cross_kind(table, axes_list, mu, kind)
        want = _oracle_margin_residual(mu, _fed(table, mu), axes_list)
        for ecm, it in _live_iterates(table, axes_list, mu):
            assert _margin_residual(it, ecm) == want


# Floats at the edges of what the ECM loop's reductions can meet: NaN,
# signed zeros and infinities, subnormals, and (with min_side 0) arrays
# with no cells.
EDGE_FLOATS = st.one_of(
    st.sampled_from(
        [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310]
    ),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def edge_arrays(max_dims):
    return hnp.arrays(
        np.float64,
        hnp.array_shapes(
            min_dims=1, max_dims=max_dims, min_side=0, max_side=7
        ),
        elements=EDGE_FLOATS,
    )


class TestUfuncReductions:
    # the ECM loop calls ufunc reductions directly, without the method
    # wrappers; each must answer as the form it replaced does, to the byte
    @settings(max_examples=300, deadline=None)
    @given(edge_arrays(max_dims=1))
    def test_all_tests_match_the_method_form(self, x):
        positive = np.minimum.reduce(x, initial=math.inf) > 0
        assert bool(positive) == bool((x > 0).all())
        finite = np.logical_and.reduce(np.isfinite(x))
        assert bool(finite) == bool(np.isfinite(x).all())
        mask = (x > 0) & (x < 1)
        assert bool(np.logical_and.reduce(mask)) == bool(mask.all())

    @settings(max_examples=300, deadline=None)
    @given(edge_arrays(max_dims=4))
    @np.errstate(invalid="ignore", over="ignore")
    def test_sums_and_maxima_are_the_same_bytes(self, x):
        flat = x.reshape(-1)
        # loglik sums the cross through its flat view
        assert np.add.reduce(flat).tobytes() == x.sum().tobytes()
        assert np.add.reduce(flat).tobytes() == flat.sum().tobytes()
        if flat.size == 0:
            for fn in (np.maximum.reduce, np.max):
                with pytest.raises(ValueError):
                    fn(flat)
        else:
            assert np.maximum.reduce(flat).tobytes() == flat.max().tobytes()


@st.composite
def margins_and_cross(draw):
    """The sufficient margins of a catalog model of one of the three
    analysis shapes (2-5 levels a variable), and a cross with one margin
    cell emptied."""
    n_vars = draw(st.sampled_from([2, 3]))
    names = ("a", "b", "c")[:n_vars]
    levels = [draw(st.integers(2, 5)) for _ in names]
    n_missing = 2 if n_vars == 2 else draw(st.integers(1, 2))
    missing = draw(st.permutations(names))[:n_missing]
    schema = TableSchema(tuple(zip(names, levels)), missing)
    model = draw(st.sampled_from(enumerate_models(schema)))
    axes_list = _margin_axes(schema, generating_class(model))
    dims = full_cross_dims(schema)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = rng.uniform(0.05, 20.0, size=dims)
    empty = draw(st.sampled_from(axes_list))
    cell = [
        slice(None) if a in empty else draw(st.integers(0, d - 1))
        for a, d in enumerate(dims)
    ]
    mu[tuple(cell)] = 0.0
    return axes_list, mu


class TestMarginGroups:
    @settings(max_examples=100, deadline=None)
    @given(margins_and_cross())
    def test_group_sums_are_the_margins(self, case):
        # the index alone, whatever order the cells are added in
        axes_list, mu = case
        groups = _margin_groups(mu.shape, axes_list)
        assert len(groups) == len(axes_list)
        emptied = False
        for axes, (group, size) in zip(axes_list, groups):
            want = np.add.reduce(mu, axes).ravel()
            got = np.bincount(group, mu.ravel(), size)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            emptied |= bool(np.any(got == 0))
        assert emptied


def _oracle_is_face(zero, sum_axes_list):
    """The face test on the shaped zero mask by axis reduction: the union
    of the margin cells it empties (all zero over a margin's summed axes)
    must be the mask itself."""
    covered = np.zeros_like(zero)
    for axes in sum_axes_list:
        covered |= np.all(zero, axis=axes, keepdims=True)
    return bool(np.array_equal(covered, zero))


FACE_MASKS = ("random", "union", "union-less-one")


@st.composite
def face_masks(draw, kind):
    """The sufficient margins of a catalog model of one of the three
    analysis shapes (2-4 levels a variable) and a zero mask over its cross:
    random cells, a union of one to three margin cells, or such a union
    with one of its cells live again."""
    n_vars = draw(st.sampled_from([2, 3]))
    names = ("a", "b", "c")[:n_vars]
    levels = [draw(st.integers(2, 4)) for _ in names]
    n_missing = 2 if n_vars == 2 else draw(st.integers(1, 2))
    missing = draw(st.permutations(names))[:n_missing]
    schema = TableSchema(tuple(zip(names, levels)), missing)
    model = draw(st.sampled_from(enumerate_models(schema)))
    axes_list = _margin_axes(schema, generating_class(model))
    dims = full_cross_dims(schema)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return axes_list, rng.random(dims) < draw(st.sampled_from([0.1, 0.5]))
    zero = np.zeros(dims, dtype=bool)
    for _ in range(draw(st.integers(1, 3))):
        empty = draw(st.sampled_from(axes_list))
        zero[tuple(
            slice(None) if a in empty else draw(st.integers(0, d - 1))
            for a, d in enumerate(dims)
        )] = True
    if kind == "union-less-one":
        cells = np.flatnonzero(zero)
        zero.reshape(-1)[cells[draw(st.integers(0, cells.size - 1))]] = False
    return axes_list, zero


class TestFaceTestOracle:
    @pytest.mark.parametrize("kind", FACE_MASKS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_group_test_matches_the_axis_reduction(self, kind, data):
        # the flat mask against the group indices the map holds
        axes_list, zero = data.draw(face_masks(kind))
        groups = _margin_groups(zero.shape, axes_list)
        want = _oracle_is_face(zero, axes_list)
        assert _is_face(zero.reshape(-1), groups) is want
        if kind == "union":
            assert want


# Design-matrix reference for the fit diagnostics: lambda recovered by least
# squares on the sum-to-zero coded design, with each term's array
# reassembled from its coefficients, and the fitted odds read one query at
# a time from the collapsed strata.

# A long plain ECM run from the uniform start, with the slice-and-sum E
# step above.  On a boundary fit it creeps toward the limit G2 from above,
# at times very slowly (0.03% a step for the smallest cells), so it is
# read only once it has settled: its G2 moved less than 1e-9 over the last
# PLAIN_ECM_BLOCK steps, which leaves it within about 1e-8 of the limit.
PLAIN_ECM_BLOCK = 500
PLAIN_ECM_STEPS = 20000


def _settled_plain_ecm_g2(model, table):
    dims = full_cross_dims(table.schema)
    axes = _margin_axes(table.schema, generating_class(model))
    mu = np.full(dims, table.N / float(np.prod(dims)))
    last = math.inf
    for step in range(1, PLAIN_ECM_STEPS + 1):
        mu = _oracle_ipf(mu, _oracle_e_step(mu, table), axes)
        if step % PLAIN_ECM_BLOCK == 0:
            g2 = _oracle_loglik_and_g2(mu, table)[1]
            if last - g2 < 1e-9:
                return g2
            last = g2
    return None


@st.composite
def sparse_two_variable_fits(draw):
    """A catalog model and a random two-variable table whose counts are
    zero about a third of the time; the count with both variables missing
    stays positive so that the table is never empty."""
    levels = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    schema = TableSchema(tuple(zip(("a", "b"), levels)), ("a", "b"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    strata = []
    for pattern in schema.patterns():
        observed = schema.observed_for(pattern)
        shape = [schema.levels(v) for v in observed]
        counts = rng.integers(0, 30, size=shape) * (rng.random(shape) > 0.3)
        strata.append(Stratum(observed, counts if observed else 1 + counts))
    model = draw(st.sampled_from(enumerate_models(schema)))
    return model, IncompleteTable(schema, tuple(strata))


class TestFaceOracle:
    @settings(max_examples=25, deadline=None)
    @given(sparse_two_variable_fits())
    def test_face_never_undercuts_plain_ecm(self, case):
        # a face that is not a limit of fits of the model could reach a G2
        # below every fit of the model; a run that has not settled after
        # PLAIN_ECM_STEPS decides nothing
        model, table = case
        fit = fit_em(model, table, max_iter=400)
        if not fit.face_cells:
            return
        assert fit.boundary_rule == "face"
        plain = _settled_plain_ecm_g2(model, table)
        if plain is not None:
            assert fit.G2 >= plain - 1e-6


# The face solve on the full cross, with the slice-and-sum E step, sweep,
# log-likelihood and margin residual above: every iterate holds the zero
# cells, each SQUAREM cycle extrapolates over a mask of the live cells and
# scatters its jump back onto the cross, and a cycle whose plain step
# zeroes a live cell ends with that step.  The solve on the live cells
# alone (_solve_face) must reproduce it bit for bit.

def _oracle_squarem_step(mu, ll, step_max, step, loglik):
    live = mu > 0
    mu1 = step(mu)
    if np.any(live & (mu1 == 0)):
        return mu1, loglik(mu1), step_max, 1
    mu2 = step(mu1)
    if np.any(live & (mu2 == 0)):
        return mu2, loglik(mu2), step_max, 2
    x0, x1, x2 = (np.log(m[live]) for m in (mu, mu1, mu2))
    r = x1 - x0
    v = x2 - x1 - r
    v_norm = math.sqrt(v @ v)
    if v_norm == 0:
        return mu2, loglik(mu2), step_max, 2
    alpha = max(min(-math.sqrt(r @ r) / v_norm, -1.0), -step_max)
    spent = 2
    with np.errstate(all="ignore"):
        jump = np.zeros_like(mu)
        jump[live] = np.exp(x0 - 2.0 * alpha * r + alpha * alpha * v)
        if np.all(jump[live] > 0):
            jump = step(jump)
            spent = 3
            ll_jump = loglik(jump)
            if np.all(jump[live] > 0) and ll_jump >= ll:
                if alpha == -step_max:
                    step_max *= SQUAREM_STEP_FACTOR
                return jump, ll_jump, step_max, 3
    step_max = max(step_max / SQUAREM_STEP_FACTOR, 1.0)
    return mu2, loglik(mu2), step_max, spent


def _oracle_zeros_stay_down(mu, before, step):
    reopened = (mu == 0) & (before > 0)
    probe = np.where(reopened, REOPEN_SHARE * before, mu)
    marks = _checkpoint([], probe)
    for k in range(1, DECAY_WINDOW + 1):
        probe = step(probe)
        if k % DECAY_HALF == 0:
            marks = _checkpoint(marks, probe)
    a, b, c = (m[reopened] for m in marks)
    return bool(np.all((b < a) & (c < b)))


def _oracle_solve_face(before, zero, floor, ecm, budget, axes):
    """The face solve on the full cross, with the arguments of _solve_face
    and the sufficient margins' axes, as a _FaceSolve on the full map."""
    table = ecm.table
    shape = ecm._shape

    def step(mu):
        return _oracle_ipf(mu, _oracle_e_step(mu, table), axes)

    def loglik(mu):
        return _oracle_loglik_and_g2(mu, table)[0]

    def solved(mu, certified):
        return _FaceSolve(ecm, _Iterate(mu.ravel()), tuple(trace),
                          evaluations, certified)

    mu = np.where(zero, 0.0, before).reshape(shape)
    ll = loglik(mu)
    trace = []
    evaluations = 0
    cycles = 0
    step_max = 1.0
    marks = _checkpoint([], mu.ravel())
    while (
        math.isfinite(ll)
        and len(trace) < budget
        and evaluations < FACE_MAX_EVALUATIONS
    ):
        mu, ll, step_max, spent = _oracle_squarem_step(
            mu, ll, step_max, step, loglik)
        evaluations += spent
        cycles += 1
        if ll >= (trace[-1] if trace else floor):
            trace.append(ll)
        if _oracle_margin_residual(mu, table, axes) < FACE_RESIDUAL:
            certified = ll >= floor and _is_face(mu.ravel() == 0, ecm._groups)
            if certified:
                evaluations += DECAY_WINDOW
                certified = _oracle_zeros_stay_down(
                    mu, before.reshape(shape), step)
            return solved(mu, certified)
        if cycles % FACE_CHECK_CYCLES == 0:
            marks = _checkpoint(marks, mu.ravel())
            decay = _decay_zeros(marks, mu.ravel(), FACE_CHECK_CYCLES, ecm)
            if decay is not None:
                mu = np.where(decay[1].reshape(shape), 0.0, mu)
                ll = loglik(mu)
                marks = _checkpoint([], mu.ravel())
    return solved(mu, False)


def _same_face_solve(got, want):
    assert got.trace == want.trace
    assert got.evaluations == want.evaluations
    assert got.certified is want.certified
    assert (got.ecm.cross(got.it.flat).tobytes()
            == want.ecm.cross(want.it.flat).tobytes())


def _fit_against_the_oracle(model, table, monkeypatch):
    """Fit with the solve on the live cells, comparing each of its face
    solves with the full-cross oracle on the same arguments, then fit again
    with the oracle in its place: both fits must have the same bits.
    Returns the fit, each solve's start and every restriction it made, as
    the map restricted, the cross it read and the map and iterate made."""
    if not isinstance(model, NonresponseModel):
        model = get_model(table.schema, model)
    axes = _margin_axes(table.schema, generating_class(model))
    solve_face = misstab.fitting._solve_face
    restrict = _EcmMap.restrict
    starts, restrictions = [], []

    def oracle(before, zero, floor, ecm, budget):
        return _oracle_solve_face(before, zero, floor, ecm, budget, axes)

    def compared(before, zero, floor, ecm, budget):
        got = solve_face(before, zero, floor, ecm, budget)
        _same_face_solve(got, oracle(before, zero, floor, ecm, budget))
        starts.append(np.where(zero, 0.0, before))
        return got

    def recorded(ecm, flat):
        face, it = restrict(ecm, flat)
        restrictions.append((ecm, flat, face, it))
        return face, it

    monkeypatch.setattr(misstab.fitting, "_solve_face", compared)
    monkeypatch.setattr(_EcmMap, "restrict", recorded)
    fit = fit_em(model, table)
    monkeypatch.setattr(misstab.fitting, "_solve_face", oracle)
    want = fit_em(model, table)
    monkeypatch.undo()
    assert fit.loglik_trace == want.loglik_trace
    assert (fit.G2, fit.p_value) == (want.G2, want.p_value)
    assert (fit.iterations, fit.evaluations, fit.face_cells) == (
        want.iterations, want.evaluations, want.face_cells)
    assert fit.mu_hat.tobytes() == want.mu_hat.tobytes()
    return fit, starts, restrictions


def _check_restriction(ecm, flat, face, it):
    """A restriction holds the positive cells of the cross it was made
    from as a flagged iterate, and its map is starved exactly when a
    positive count keeps none of them, with a log-likelihood of -inf, as
    the full cross's; it is the map itself when every cell is live."""
    full = ecm.cross(flat)
    assert it.positive and np.all(it.flat > 0)
    assert np.array_equal(face.cross(it.flat), np.where(full > 0, full, 0.0))
    assert (face is ecm) is bool(np.all(flat > 0))
    y = observed_counts(ecm.table).ravel()
    kept = np.bincount(face._idx, minlength=y.size)
    fed = bool(np.all(kept[y > 0] > 0))
    assert face.starved is not fed
    if not fed:
        assert face.loglik(it) == -math.inf
        mu = _full(face, it)
        assert _oracle_loglik_and_g2(mu, ecm.table)[0] == -math.inf
    return fed


@st.composite
def sparse_analysis_fits(draw):
    """A catalog model and a random table of one of the three analysis
    shapes whose counts are zero about a third of the time (the stratum
    with every missing variable unrecorded keeps a positive count, so the
    table is never empty)."""
    n_vars = draw(st.sampled_from([2, 3]))
    names = ("a", "b", "c")[:n_vars]
    levels = [draw(st.integers(2, 3)) for _ in names]
    n_missing = 2 if n_vars == 2 else draw(st.integers(1, 2))
    missing = draw(st.permutations(names))[:n_missing]
    schema = TableSchema(tuple(zip(names, levels)), missing)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    strata = []
    for pattern in schema.patterns():
        observed = schema.observed_for(pattern)
        shape = [schema.levels(v) for v in observed]
        counts = rng.integers(0, 40, size=shape) * (rng.random(shape) > 0.3)
        if len(pattern) == n_missing:
            counts = counts + 1
        strata.append(Stratum(observed, counts))
    model = draw(st.sampled_from(enumerate_models(schema)))
    return model, IncompleteTable(schema, tuple(strata))


def _table(levels, missing, counts):
    names = ("a", "b", "c")[: len(levels)]
    schema = TableSchema(tuple(zip(names, levels)), missing)
    return IncompleteTable(schema, tuple(
        Stratum(schema.observed_for(p), np.array(c))
        for p, c in zip(schema.patterns(), counts)
    ))


# a flagged cell at the hand-off from EM takes the last cell of a positive
# count of the first table; a face-clock zeroing does on the second
STARVED_AT_HANDOFF = ("M3", _table(
    (2, 3), ("a", "b"),
    [[[1, 4, 1], [37, 16, 21]], [0, 15, 48], [19, 1], 39],
))
STARVED_ON_THE_FACE_CLOCK = ("D6:Y1=MAR(Y2),Y2=NMAR", _table(
    (3, 3, 3), ("a", "b"),
    [[[[42, 4, 0], [1, 15, 5], [0, 3, 2]], [[3, 8, 0], [45, 10, 3],
      [0, 7, 0]], [[7, 21, 7], [24, 13, 28], [9, 17, 0]]],
     [[7, 2, 0], [1, 7, 13], [28, 27, 15]],
     [[20, 2, 24], [19, 3, 1], [1, 6, 3]], [13, 36, 16]],
))

# a plain step of a refused face attempt of the first fit zeroes the live
# cells of a margin cell under zero counts; an extrapolated jump of the
# second fit's face solve underflows to a zero cell
ZERO_ON_A_PLAIN_STEP = ("D3:Y1=MAR(Y2),Y2=MAR(Y1)", _table(
    (3, 3, 2), ("a", "b"),
    [[[[24, 2], [4, 7], [3, 39]], [[23, 1], [36, 26], [4, 2]],
      [[1, 2], [1, 0], [0, 32]]],
     [[3, 3], [0, 2], [7, 2]], [[5, 6], [0, 23], [4, 5]], [0, 3]],
))
ZERO_ON_A_JUMP = ("C1", _table(
    (2, 2, 2), ("a",),
    [[[[0, 18], [8, 0]], [[9, 17], [9, 6]]], [[0, 30], [0, 20]]],
))


class TestLiveCellFaceSolve:
    # the face solve runs on the map restricted to the live cells, and must
    # keep the bits of the solve on the full cross: its trace, evaluations,
    # certified flag and result, and so every fit's
    @settings(max_examples=40, deadline=None)
    @given(sparse_analysis_fits())
    def test_random_fits_match_the_full_cross_solve(self, case):
        model, table = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            _, _, restrictions = _fit_against_the_oracle(
                model, table, monkeypatch
            )
        for restriction in restrictions:
            _check_restriction(*restriction)

    @pytest.mark.parametrize(
        "name,model_id", ALL_CASES, ids=[f"{n}-{m}" for n, m in ALL_CASES]
    )
    def test_catalog_fits_match_the_full_cross_solve(
        self, request, name, model_id, monkeypatch
    ):
        table = request.getfixturevalue(TABLE_FIXTURE[name])
        _fit_against_the_oracle(model_id, table, monkeypatch)

    @pytest.mark.parametrize(
        "case,made,starved",
        [(STARVED_AT_HANDOFF, 1, 1), (STARVED_ON_THE_FACE_CLOCK, 5, 2)],
        ids=["hand-off", "face-clock"],
    )
    def test_a_starved_count_keeps_a_log_likelihood_of_minus_inf(
        self, case, made, starved, monkeypatch
    ):
        # the zeroing leaves a positive count no live cell: the restricted
        # map is starved, so its log-likelihood is -inf, as the full
        # cross's is, and the solve stops there.  Each starved map is made
        # from the full map, at a face start or a face-clock zeroing
        model_id, table = case
        _, _, restrictions = _fit_against_the_oracle(
            model_id, table, monkeypatch
        )
        fed = [_check_restriction(*r) for r in restrictions]
        assert (len(fed), fed.count(False)) == (made, starved)
        for (ecm, _, _, _), kept in zip(restrictions, fed):
            assert kept or ecm._live is None

    @pytest.mark.parametrize(
        "case,ends,face_cells,evaluations",
        [(ZERO_ON_A_PLAIN_STEP, [1], 4, 208), (ZERO_ON_A_JUMP, [], 4, 130)],
        ids=["plain-step", "jump"],
    )
    def test_a_cycle_ends_where_it_would_read_a_zero_cell(
        self, case, ends, face_cells, evaluations, monkeypatch
    ):
        # a cycle whose plain step gains a zero ends with that step, one
        # map application in, and the solve goes on with the map on the
        # cells left; a jump that underflows to a zero cell is refused
        # before the map reads it.  The full-cross oracle ends each cycle
        # where this solve does
        ended = []
        squarem_step = misstab.fitting._squarem_step

        def recorded(it, ll, step_max, ecm):
            out = squarem_step(it, ll, step_max, ecm)
            if out[0] is not ecm:
                ended.append(out[-1])
            return out

        monkeypatch.setattr(misstab.fitting, "_squarem_step", recorded)
        fit, _, _ = _fit_against_the_oracle(*case, monkeypatch)
        assert ended == ends
        assert (fit.face_cells, fit.evaluations) == (face_cells, evaluations)

    @pytest.mark.parametrize(
        "name", ["bone-density", "smoking-zero-count"]
    )
    def test_face_iterates_are_flagged_and_sweep_unguarded(
        self, request, name, monkeypatch
    ):
        # every map application of the face phase (plain steps, jumps and
        # probe steps, all kernel calls) is on a flagged iterate of the
        # restricted map and passes the unguarded sweep's output test, on
        # a table with a zero count too
        applications = []
        kernel = _EcmMap.kernel

        def recorded(ecm, it, steps=1):
            out = kernel(ecm, it, steps)
            if ecm._live is not None:
                applications.append(
                    (it.positive, out is not None and out.positive))
            return out

        monkeypatch.setattr(_EcmMap, "kernel", recorded)
        fit = fit_em("M1", request.getfixturevalue(TABLE_FIXTURE[name]))
        assert fit.face_cells > 0
        assert applications and all(
            flags == (True, True) for flags in applications
        )


def _zero_reads(model, table, monkeypatch):
    """fit_em of a model, with each E step, sweep, log-likelihood and
    margin residual it takes recorded: the fit, how many it took and how
    many of them read an iterate with a zero cell."""
    reads = []

    def watched(read, at):
        # the iterate is argument at of read
        def reading(*args):
            reads.append(bool(np.all(args[at].flat > 0)))
            return read(*args)
        return reading

    for name in ("_spread_counts", "__call__", "kernel", "loglik"):
        monkeypatch.setattr(_EcmMap, name, watched(getattr(_EcmMap, name), 1))
    monkeypatch.setattr(misstab.fitting, "_margin_residual", watched(
        misstab.fitting._margin_residual, 0))
    fit = fit_em(model, table)
    monkeypatch.undo()
    return fit, len(reads), reads.count(False)


ZERO_TARGET = ("M1", _zero_counts(builtin_dataset("smoking-birthweight"),
                                  both_missing=True))


class TestTheMapReadsNoZeroCell:
    # when an iterate holds an exact zero the fit goes on with the map
    # restricted to its live cells, in the EM phase, the face solve and
    # the probes of its certification alike, so no E step, sweep,
    # log-likelihood or margin residual reads a zero cell
    @pytest.mark.parametrize(
        "case", [ZERO_TARGET, STARVED_AT_HANDOFF, STARVED_ON_THE_FACE_CLOCK,
                 ZERO_ON_A_PLAIN_STEP, ZERO_ON_A_JUMP],
        ids=["zero-target", "starved-at-hand-off", "starved-on-the-clock",
             "zero-on-a-plain-step", "zero-on-a-jump"],
    )
    def test_no_fit_phase_reads_a_zero_cell(self, case, monkeypatch):
        model_id, table = case
        fit, reads, zero_reads = _zero_reads(model_id, table, monkeypatch)
        assert reads > fit.evaluations and zero_reads == 0

    def test_a_zero_target_restricts_the_em_phase(self, monkeypatch):
        # both-missing count 0: the first sweep zeroes the cells of the
        # margin cell under it, and EM goes on with the map on the rest
        made = []
        restrict = _EcmMap.restrict

        def recorded(ecm, flat):
            face, it = restrict(ecm, flat)
            made.append(face)
            return face, it

        model_id, table = ZERO_TARGET
        monkeypatch.setattr(_EcmMap, "restrict", recorded)
        fit_em(model_id, table, max_iter=1)
        monkeypatch.undo()
        assert len(made) == 1 and made[0]._live is not None
        assert not made[0].starved

    @settings(max_examples=30, deadline=None)
    @given(sparse_analysis_fits())
    def test_random_fits_read_no_zero_cell(self, case):
        model, table = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            fit, reads, zero_reads = _zero_reads(model, table, monkeypatch)
        assert reads > fit.evaluations and zero_reads == 0

    # the EM phase alone, before any decay test: a full-cross loop of the
    # slice-and-sum E step and sweep from the uniform start, with their
    # even spread and guards, gives every log-likelihood, the result and
    # its G2 bit for bit
    @settings(max_examples=40, deadline=None)
    @given(sparse_analysis_fits())
    @example((get_model(ZERO_TARGET[1].schema, ZERO_TARGET[0]),
              ZERO_TARGET[1]))
    def test_em_phase_matches_the_full_cross_loop(self, case):
        model, table = case
        fit = fit_em(model, table, max_iter=DECAY_HALF - 1)
        assert fit.evaluations == fit.iterations
        axes = _margin_axes(table.schema, generating_class(model))
        dims = full_cross_dims(table.schema)
        mu = np.full(dims, table.N / float(np.prod(dims)))
        trace = []
        for _ in range(fit.iterations):
            mu = _oracle_ipf(mu, _oracle_e_step(mu, table), axes)
            trace.append(_oracle_loglik_and_g2(mu, table)[0])
        assert fit.loglik_trace == tuple(trace)
        assert fit.mu_hat.tobytes() == mu.tobytes()
        assert fit.G2 == _oracle_loglik_and_g2(mu, table)[1]


# the kernel's property: one call of k steps is k calls of _step.  From
# the uniform start on the zero-target table with this raveled cell (one
# that decays fast) set to MIDDLE_ZERO_SHARE, M1's first step zeroes the
# cells under the zero target and its MIDDLE_ZERO_STEP-th underflows the
# cell to an exact zero, inside one probe half
MIDDLE_ZERO_CELL = 2
MIDDLE_ZERO_SHARE = 1e-305
MIDDLE_ZERO_STEP = 13


def _stepped(ecm, it, steps):
    """steps calls of _step, and the steps after which the fit restricted."""
    restricted = []
    for step in range(1, steps + 1):
        face, it = _step(ecm, it)
        if face is not ecm:
            restricted.append(step)
        ecm = face
    return ecm, it, restricted


def _check_kernel_steps(ecm, flat, steps):
    """One _steps call of steps from the flagged iterate flat of ecm gives
    the map, its restriction, starved and the iterate of steps calls of
    _step, bit for bit; returns whether its kernel call replayed and the
    steps after which it restricted."""
    replayed = ecm.kernel(_Iterate(flat.copy(), True), steps) is None
    got_map, got = _steps(ecm, _Iterate(flat.copy(), True), steps)
    want_map, want, restricted = _stepped(
        ecm, _Iterate(flat.copy(), True), steps)
    assert (got_map is ecm) is (want_map is ecm)
    if want_map._live is None:
        assert got_map._live is None
    else:
        assert np.array_equal(got_map._live, want_map._live)
    assert got_map.starved is want_map.starved
    assert got.flat.tobytes() == want.flat.tobytes()
    assert got.positive is want.positive
    assert replayed is bool(restricted)
    return replayed, restricted


@st.composite
def kernel_starts(draw):
    """The map of a catalog model on a random sparse table of one of the
    three analysis shapes (sparse_analysis_fits), a strictly positive
    raveled cross of it, some of whose cells are tiny enough for a later
    step to underflow them, and a step count up to a probe half."""
    model, table = draw(sparse_analysis_fits())
    ecm = _EcmMap(table, _margin_axes(table.schema, generating_class(model)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = math.prod(full_cross_dims(table.schema))
    flat = table.N / size * rng.uniform(0.5, 2.0, size)
    tiny = rng.random(size) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    flat[tiny] = 10.0 ** -rng.uniform(280.0, 300.0, int(tiny.sum()))
    return ecm, flat, draw(st.integers(1, DECAY_HALF))


class TestKernel:
    # the kernel applies the map steps times under one error state and
    # tests its output once; a call that fails is replayed one step at a
    # time, so the fit restricts after the very step that left a zero
    @settings(max_examples=150, deadline=None)
    @given(kernel_starts())
    def test_kernel_steps_are_single_steps(self, case):
        _check_kernel_steps(*case)

    def _middle_zero(self):
        model_id, table = ZERO_TARGET
        schema = table.schema
        model = get_model(schema, model_id)
        ecm = _EcmMap(table, _margin_axes(schema, generating_class(model)))
        dims = full_cross_dims(schema)
        flat = np.full(math.prod(dims), table.N / math.prod(dims))
        flat[MIDDLE_ZERO_CELL] = MIDDLE_ZERO_SHARE
        return ecm, flat

    def test_a_zero_in_a_middle_step_is_replayed(self):
        ecm, flat = self._middle_zero()
        replayed, restricted = _check_kernel_steps(ecm, flat, DECAY_HALF)
        assert replayed and restricted == [1, MIDDLE_ZERO_STEP]
        # the zero stays zero through the steps after it: the call fails
        # from that step on, and not before
        for steps in (MIDDLE_ZERO_STEP - 1, MIDDLE_ZERO_STEP, DECAY_HALF):
            face, it = _step(ecm, _Iterate(flat.copy(), True))
            out = face.kernel(it, steps - 1)
            assert (out is None) is (steps >= MIDDLE_ZERO_STEP)

    # the kernel leaves the caller's error state as it found it: after a
    # boundary fit, a replayed probe half and an exception in the kernel,
    # under numpy's defaults and under a state of the caller's own
    CALLER_STATE = dict(divide="raise", over="warn", under="ignore",
                        invalid="raise")

    @pytest.mark.parametrize("state", [{}, CALLER_STATE],
                             ids=["default", "caller"])
    def test_the_error_state_is_restored(self, bone_table, state,
                                         monkeypatch):
        with np.errstate(**state):
            before = np.geterr()
            fit = fit_em("M1", bone_table)
            assert fit.face_cells > 0 and np.geterr() == before
            ecm, flat = self._middle_zero()
            face, _ = _steps(ecm, _Iterate(flat.copy(), True), DECAY_HALF)
            assert face is not ecm and np.geterr() == before
            calls = []
            bincount = np.bincount

            def failing(*args):
                calls.append(None)
                if len(calls) > 20:
                    raise MemoryError("no room for a margin")
                return bincount(*args)

            monkeypatch.setattr(np, "bincount", failing)
            with pytest.raises(MemoryError):
                ecm.kernel(_Iterate(flat.copy(), True), DECAY_HALF)
            monkeypatch.undo()
            assert np.geterr() == before


def _oracle_lambda(model, schema, mu):
    if np.any(mu <= 0):
        return None, None
    design = build_design(model, schema)
    logmu = np.log(mu.reshape(-1))
    beta, *_ = np.linalg.lstsq(design.columns, logmu, rcond=None)
    resid = float(np.max(np.abs(design.columns @ beta - logmu)))
    lv = factor_levels(schema)
    lam = {(): np.asarray(beta[0])}
    pos = 1
    for term in model.terms:
        if not term:
            continue
        codes = {f: _effects_coding(lv[f]) for f in term}
        arr = np.zeros(tuple(lv[f] for f in term))
        for combo in itertools.product(*(range(lv[f] - 1) for f in term)):
            basis = np.array(1.0)
            for f, m in zip(term, combo):
                basis = np.multiply.outer(basis, codes[f][:, m])
            arr += beta[pos] * basis
            pos += 1
        lam[term] = arr
    return lam, resid


def _oracle_pair_counts(counts, names, target, pair, levels):
    """The counts at levels pair of target in one stratum over the
    variables names, every other variable held at levels."""
    return tuple(
        counts[tuple((p if n == target else levels[n]) - 1 for n in names)]
        for p in pair
    )


def _oracle_stratum_odds(counts, names, target, pair, levels):
    num, den = map(
        float, _oracle_pair_counts(counts, names, target, pair, levels)
    )
    return num / den if den > 0 else float("nan")


def _oracle_fitted_odds(fit, assessed, target, pair, cond):
    """(fitted response odds at each level of the assessed variable,
    fitted non-response odds) of one check."""
    schema = fit.schema
    full = collapse_cross(fit.mu_hat, schema, ())
    values = [
        _oracle_stratum_odds(
            full, schema.names, target, pair, {**dict(cond), assessed: lvl}
        )
        for lvl in range(1, schema.levels(assessed) + 1)
    ]
    coll = collapse_cross(fit.mu_hat, schema, (assessed,))
    value = _oracle_stratum_odds(
        coll, schema.observed_for((assessed,)), target, pair, dict(cond)
    )
    return values, value


def _oracle_containment(fit):
    out = []
    for q in list_queries(fit.schema):
        values, val = _oracle_fitted_odds(
            fit, q.missing_var, q.target, q.pair, q.conditioning
        )
        finite = [v for v in values if math.isfinite(v)]
        lo = min(finite) if finite else float("nan")
        hi = max(finite) if finite else float("nan")
        out.append(
            (q.missing_var, q.target, q.pair, q.conditioning, val, lo, hi)
        )
    return out


def _oracle_mar_bounds(fit, lam):
    """(variable, donor, pair, conditioning, classification, q_max, q_min,
    lower, upper, lambda difference) per bracket, in the report's order;
    None when the report is not applicable."""
    schema = fit.schema
    mar = [(v, m.donor) for v, m in fit.model.mechanisms if m.kind == MECH_MAR]
    if not mar or lam is None:
        return None
    axes = factor_axes(schema)
    out = []
    for v, donor in mar:
        term = tuple(sorted((donor, indicator_factor(v)), key=axes.get))
        rest = [n for n in schema.names if n not in (v, donor)]
        conds = (
            [((rest[0], lvl),) for lvl in range(1, schema.levels(rest[0]) + 1)]
            if rest
            else [()]
        )
        pairs = itertools.combinations(range(1, schema.levels(donor) + 1), 2)
        for a, b in pairs:
            delta = float(lam[term][b - 1, 1] - lam[term][a - 1, 1])
            for cond in conds:
                values, omega = _oracle_fitted_odds(fit, v, donor, (a, b), cond)
                finite = [x for x in values if math.isfinite(x) and x > 0]
                if not finite or not math.isfinite(omega) or omega <= 0:
                    continue
                q_max = (max(finite) / omega) * math.exp(-2.0 * delta)
                q_min = (min(finite) / omega) * math.exp(-2.0 * delta)
                lower = -0.5 * math.log(q_max)
                upper = -0.5 * math.log(q_min)
                inside = min(finite) < omega < max(finite)
                cls = "strong-MAR" if inside else "weak-MAR"
                out.append(
                    (v, donor, (a, b), cond, cls, q_max, q_min, lower, upper,
                     delta)
                )
    return out


def _same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def _check_diagnostics(fit):
    lam, resid = _oracle_lambda(fit.model, fit.schema, fit.mu_hat)
    if lam is None:
        assert fit.lambda_hat is None and fit.lambda_residual is None
    else:
        assert list(fit.lambda_hat) == list(lam)
        for term, want in lam.items():
            assert fit.lambda_hat[term].shape == want.shape, term
            np.testing.assert_allclose(
                fit.lambda_hat[term], want, rtol=0, atol=1e-10
            )
        assert fit.lambda_residual == pytest.approx(resid, abs=1e-10)
    got = fitted_containment(fit)
    want = _oracle_containment(fit)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:4] == w[:4]
        assert all(_same_float(x, y) for x, y in zip(g[4:], w[4:])), (g[4:], w[4:])
    report = mar_bounds(fit)
    want = _oracle_mar_bounds(fit, lam)
    if want is None:
        assert not report.applicable and report.records == ()
        return
    assert report.applicable
    assert len(report.records) == len(want)
    for rec, w in zip(report.records, want):
        assert (
            rec.variable, rec.donor, rec.pair, rec.conditioning,
            rec.classification,
        ) == w[:5]
        floats = (
            rec.quantity_max, rec.quantity_min, rec.lower, rec.upper,
            rec.lambda_difference,
        )
        assert floats == pytest.approx(w[5:], rel=1e-10, abs=1e-10)


@st.composite
def fitted_tables(draw):
    """A catalog fit of a random table of one of the three analysis shapes.
    Zero counts are common, so some fits sit on the boundary and some have
    zero cells (no lambda at all)."""
    n_vars = draw(st.sampled_from([2, 3]))
    names = ("a", "b", "c")[:n_vars]
    levels = [draw(st.integers(2, 3)) for _ in names]
    n_missing = 2 if n_vars == 2 else draw(st.integers(1, 2))
    missing = draw(st.permutations(names))[:n_missing]
    schema = TableSchema(tuple(zip(names, levels)), missing)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = draw(st.sampled_from([3, 40]))
    table = IncompleteTable(
        schema,
        tuple(
            Stratum(
                schema.observed_for(p),
                rng.integers(0, high, size=[
                    schema.levels(v) for v in schema.observed_for(p)
                ]),
            )
            for p in schema.patterns()
        ),
    )
    model = draw(st.sampled_from(enumerate_models(schema)))
    return fit_model(model, table, max_iter=300)


class TestFitDiagnosticsOracle:
    @settings(max_examples=120, deadline=None)
    @given(fitted_tables())
    def test_random_fits_match_the_design_matrix(self, fit):
        _check_diagnostics(fit)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_catalog_fits_match_the_design_matrix(self, request, name):
        for fit in request.getfixturevalue(FIT_FIXTURE[name]):
            _check_diagnostics(fit)


def _seeded_cube(levels):
    """A seeded levels^3 table with the first two variables missing, every
    observed cell Poisson with mean 50."""
    schema = TableSchema((("y1", levels), ("y2", levels), ("y3", levels)),
                         ("y1", "y2"))
    rng = np.random.default_rng(4)
    return IncompleteTable(schema, tuple(
        Stratum(obs, rng.poisson(50, size=(levels,) * len(obs)))
        for obs in map(schema.observed_for, schema.patterns())
    ))


def _interior_fits():
    """Every catalog fit without an NMAR mechanism of a seeded 4^3 table
    (EM fits), and one closed-form fit."""
    table = _seeded_cube(4)
    fits = [
        fit_model(m, table)
        for m in enumerate_models(table.schema)
        if all(mech.kind != MECH_NMAR for _, mech in m.mechanisms)
    ]
    fits.append(fit_model("C4", builtin_dataset("spo-y1")))
    return fits


def _assert_effects_match(model, schema, mu):
    """The effects recovered from a positive cross, and their residual,
    within 1e-10 of the design-matrix projection."""
    got, resid = _recover_lambda(model, schema, mu)
    lam, want_resid = _oracle_lambda(model, schema, mu)
    assert list(got) == list(lam)
    for term, want in lam.items():
        assert got[term].shape == want.shape, term
        np.testing.assert_allclose(
            got[term], want, rtol=0, atol=1e-10, err_msg=f"{model.id} {term}"
        )
    assert resid == pytest.approx(want_resid, abs=1e-10)


class TestEffectRecoveryOracle:
    """Effects recovered from the generators' group index (_schedule,
    _recover_lambda) against the design-matrix projection."""

    @pytest.fixture(scope="class")
    def fits(self):
        return _interior_fits()

    def test_fits_are_interior(self, fits):
        assert len(fits) == 10
        assert {f.method for f in fits[:-1]} == {"em"}
        assert fits[-1].method == "closed-form"
        assert all(f.lambda_hat is not None for f in fits)

    def test_effects_match_the_design_matrix(self, fits):
        for fit in fits:
            _assert_effects_match(fit.model, fit.schema, fit.mu_hat)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_every_catalog_model_matches_the_design_matrix(
        self, request, name
    ):
        # each model's fit where it is positive, closed forms included,
        # and a seeded positive cross outside the model's span, whose
        # projection leaves a residual
        fits = request.getfixturevalue(FIT_FIXTURE[name])
        schema = fits[0].schema
        assert sorted(f.model_id for f in fits) == sorted(
            m.id for m in enumerate_models(schema)
        )
        rng = np.random.default_rng(24)
        for fit in fits:
            crosses = [rng.uniform(0.05, 20.0, fit.mu_hat.shape)]
            if fit.lambda_hat is not None:
                crosses.append(fit.mu_hat)
            for mu in crosses:
                _assert_effects_match(fit.model, schema, mu)

    def test_a_non_hierarchical_model_matches_the_design_matrix(
        self, smoking_table
    ):
        # M4 less the main effect of R(Y1), which its (Y2, R(Y1)) term
        # contains: the effect of that term is still its mean less those of
        # all its proper subterms, R(Y1) among them
        schema = smoking_table.schema
        m4 = get_model(schema, "M4")
        main = (indicator_factor(schema.missing[0]),)
        model = NonresponseModel(
            "M4-R1", m4.mechanisms, tuple(t for t in m4.terms if t != main)
        )
        assert generating_class(model) == generating_class(m4)
        fit = fit_em(model, smoking_table)
        assert fit.lambda_hat is not None and main not in fit.lambda_hat
        assert fit.lambda_residual > 1e-3
        rng = np.random.default_rng(24)
        for mu in (fit.mu_hat, rng.uniform(0.05, 20.0, fit.mu_hat.shape)):
            _assert_effects_match(model, schema, mu)

    def test_a_model_without_generators_keeps_its_intercept(self):
        # the generating class leaves out the intercept, so its mean comes
        # from log mu itself
        table = builtin_dataset("spo-y1y2")
        base = enumerate_models(table.schema)[0]
        model = NonresponseModel("I", base.mechanisms, ((),))
        assert generating_class(model) == ()
        fit = fit_em(model, table)
        lam, resid = _oracle_lambda(model, table.schema, fit.mu_hat)
        assert list(fit.lambda_hat) == [()]
        assert float(fit.lambda_hat[()]) == pytest.approx(float(lam[()]))
        assert fit.lambda_residual == pytest.approx(resid, abs=1e-12)

    def test_given_and_built_groups_give_the_same_bits(self, fits):
        # an EM fit recovers its effects from the group index its map
        # read from the cache, and a recovery after the cache is emptied
        # builds the index again, to the same bits
        for fit in fits:
            _margin_group.cache_clear()
            for got, resid in (
                _recover_lambda(fit.model, fit.schema, fit.mu_hat),
                _recover_lambda(fit.model, fit.schema, fit.mu_hat),
            ):
                assert resid == fit.lambda_residual
                assert list(got) == list(fit.lambda_hat)
                for term, effect in got.items():
                    want = fit.lambda_hat[term]
                    assert effect.tobytes() == want.tobytes(), term
                    assert effect.shape == want.shape, term


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


# Per-query Fraction reference for the screening plan: the assess loop as
# it stood before batch screening, one query at a time, reading each count
# by its level indices in its stratum, with every comparison on stdlib
# Fractions.

def _oracle_ratio(counts, names, target, pair, levels):
    return CountRatio(
        *map(int, _oracle_pair_counts(counts, names, target, pair, levels))
    )


def _oracle_nonresponse_odds(table, query):
    v = query.missing_var
    return _oracle_ratio(
        table.stratum({v}).counts, table.schema.observed_for((v,)),
        query.target, query.pair, dict(query.conditioning),
    )


def _oracle_response_values(table, query):
    """(level, odds) of the fully classified stratum at every level of
    the assessed variable."""
    schema = table.schema
    v = query.missing_var
    return tuple(
        (lvl, _oracle_ratio(
            table.full.counts, schema.names, query.target, query.pair,
            {**dict(query.conditioning), v: lvl},
        ))
        for lvl in range(1, schema.levels(v) + 1)
    )


def _oracle_assess(table):
    """(membership, value, response odds by level, Fractions of the
    defined response odds) per query, in list_queries order."""
    out = []
    for query in list_queries(table.schema):
        value = _oracle_nonresponse_odds(table, query)
        values = _oracle_response_values(table, query)
        odds = [Fraction(r.numerator, r.denominator)
                for _, r in values if r.defined]
        if not value.defined or not odds:
            status = "undefined"
        elif min(odds) < Fraction(value.numerator, value.denominator) < max(odds):
            status = "inside"
        else:
            status = "outside"  # an endpoint hit or a degenerate interval
        out.append((status, value, values, odds))
    return out


def _oracle_records(table):
    """Every record built one check at a time: the interval ends are the
    first entries of least and of greatest value among the defined ones,
    as min and max pick them."""
    by_value = functools.cmp_to_key(
        lambda x, y: x.numerator * y.denominator - y.numerator * x.denominator
    )
    out = []
    for query, (status, value, values, _) in zip(
        list_queries(table.schema), _oracle_assess(table)
    ):
        defined = [r for _, r in values if r.defined]
        interval = OddsInterval(
            values,
            min(defined, key=by_value) if defined else None,
            max(defined, key=by_value) if defined else None,
        )
        notes = []
        if not value.defined:
            notes.append("non-response odds undefined (zero count)")
        if not defined:
            notes.append("no defined response odds")
        elif len(defined) < len(values):
            notes.append("interval omits undefined entries")
        if defined and by_value(interval.minimum) == by_value(interval.maximum):
            notes.append("degenerate interval (all response odds equal)")
        out.append(
            QueryRecord(query, value, interval, status, "; ".join(notes))
        )
    return out


def _oracle_tallies(tables, missing):
    """Per family [counted, MAR, undefined value, undefined interval] and
    overall [counted, MAR] over replicate tables."""
    fam = {v: [0, 0, 0, 0] for v in missing}
    overall = [0, 0]
    for table in tables:
        rows = list(zip(list_queries(table.schema), _oracle_assess(table)))
        every_defined = True
        any_mar = False
        for v in missing:
            mine = [r for q, r in rows if q.missing_var == v]
            no_value = any(not value.defined for _, value, _, _ in mine)
            no_interval = any(not odds for *_, odds in mine)
            fam[v][2] += no_value
            fam[v][3] += no_interval
            if no_value or no_interval:
                every_defined = False
                continue
            fam[v][0] += 1
            if any(status == "outside" for status, *_ in mine):
                fam[v][1] += 1
                any_mar = True
        if every_defined:
            overall[0] += 1
            overall[1] += any_mar
    return fam, overall


@st.composite
def screened_tables(draw):
    """A random table of one of the three analysis shapes with small counts
    (zero cells and ties are common), sometimes a full stratum whose
    response odds are equal at every level of the first missing variable
    (a degenerate interval), scaled by a factor that may push the largest
    cross-product past int64."""
    n_vars = draw(st.sampled_from([2, 3]))
    names = ("a", "b", "c")[:n_vars]
    levels = [draw(st.integers(2, 3)) for _ in names]
    n_missing = 2 if n_vars == 2 else draw(st.integers(1, 2))
    missing = draw(st.permutations(names))[:n_missing]
    schema = TableSchema(tuple(zip(names, levels)), missing)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = draw(st.sampled_from([2, 4, 30]))
    counts = {
        pat: rng.integers(0, high, size=[schema.levels(v) for v in
                                         schema.observed_for(pat)])
        for pat in schema.patterns()
    }
    if draw(st.booleans()):
        axis = schema.index(schema.missing[0])
        weights = rng.integers(1, 4, size=schema.levels(schema.missing[0]))
        shape = [1] * n_vars
        shape[axis] = weights.size
        base = rng.integers(0, high, size=levels)
        base = np.take(base, [0], axis=axis)
        counts[()] = base * weights.reshape(shape)
    table = IncompleteTable(
        schema,
        tuple(
            Stratum(schema.observed_for(p), c) for p, c in counts.items()
        ),
    )
    return scale_counts(table, draw(st.sampled_from([1, 3, 10**9])))


def _oracle_plan(schema):
    """The screening plan filled one check at a time: each count a check
    reads found by its level indices in its stratum; the checks come from
    an enumeration of their own, not from the plan."""
    queries = _oracle_list_queries(schema)
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
    return ScreeningPlan(
        queries, family, value[0], value[1], odds[0], odds[1], valid
    )


@st.composite
def analysis_schemas(draw):
    """A schema of one of the three analysis shapes, 2-5 levels a
    variable, its variables missing in any order."""
    n_vars = draw(st.sampled_from([2, 3]))
    names = ("a", "b", "c")[:n_vars]
    levels = [draw(st.integers(2, 5)) for _ in names]
    n_missing = 2 if n_vars == 2 else draw(st.integers(1, 2))
    missing = draw(st.permutations(names))[:n_missing]
    return TableSchema(tuple(zip(names, levels)), missing)


def _assert_same_plan(schema):
    got, want = screening_plan.__wrapped__(schema), _oracle_plan(schema)
    assert got.queries == want.queries
    for field in ("family", "value_num", "value_den", "odds_num",
                  "odds_den", "odds_valid"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and np.array_equal(g, w), field
        assert not g.flags.writeable, field


class TestPlanOracle:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_builtin_plans_match_a_per_check_build(self, name):
        _assert_same_plan(builtin_dataset(name).schema)

    @settings(max_examples=200, deadline=None)
    @given(analysis_schemas())
    def test_plans_match_a_per_check_build(self, schema):
        _assert_same_plan(schema)


class TestBatchScreeningOracle:
    @settings(max_examples=200, deadline=None)
    @given(screened_tables())
    def test_memberships_match_fractions(self, table):
        want = _oracle_assess(table)
        verdict = assess(table)
        assert len(verdict.records) == len(want)
        for rec, (status, value, values, odds) in zip(verdict.records, want):
            assert rec.membership == status
            assert rec.value == value
            assert rec.interval.values == values
            if odds:
                assert rec.interval.minimum.fraction == min(odds)
                assert rec.interval.maximum.fraction == max(odds)
            else:
                assert not rec.interval.defined
        plan = screening_plan(table.schema)
        block = np.stack([observed_counts(table)] * 2)
        result = plan.screen(block)
        for row in range(2):
            got = np.where(
                result.defined[row],
                np.where(result.outside[row], "outside", "inside"),
                "undefined",
            )
            assert got.tolist() == [w[0] for w in want]

    @settings(max_examples=200, deadline=None)
    @given(screened_tables())
    def test_records_match_a_per_check_build(self, table):
        verdict = assess(table)
        want = _oracle_records(table)
        # ratios compare unreduced, so on a tie (1/2 and 2/4) the chosen
        # entry matters
        assert list(verdict.records) == want
        for rec in verdict.records:
            assert all(
                type(x) is int
                for lvl, r in rec.interval.values
                for x in (lvl, r.numerator, r.denominator)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        screened_tables(),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["multinomial", "poisson"]),
    )
    def test_bootstrap_tallies_match_fractions(self, table, seed, mode):
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.05, 3.0, size=full_cross_dims(table.schema))
        mu *= max(table.N, 1) / mu.sum()
        fit = SimpleNamespace(mu_hat=mu, model_id="random", table=table)
        n = 12
        summary = bootstrap_assess(
            table, None, n_replicates=n, seed=seed, mode=mode, fit=fit
        )
        replicates = [
            resample(fit, table, np.random.default_rng(child), mode=mode)
            for child in np.random.SeedSequence(seed).spawn(n)
        ]
        fam, overall = _oracle_tallies(replicates, table.schema.missing)
        for f in summary.families:
            assert [
                f.n_counted, f.n_mar, f.n_undefined_value,
                f.n_undefined_interval,
            ] == fam[f.variable]
            assert f.n_excluded == n - f.n_counted
        assert [summary.overall_counted, summary.overall_mar] == overall
        assert summary.overall_excluded == n - overall[0]

    def test_int64_overflow_goes_through_python_ints(self):
        # Non-response odds 3.1e9/3.1e9 = 1 lies strictly between the
        # response odds 2.9e9/3.0e9 and 2/1.  In int64 the product
        # 3.1e9 * 3.0e9 wraps negative, so 2.9e9/3.0e9 no longer compares
        # below 1 (it compares above), and the check would be outside.
        g = 10**8
        schema = TableSchema((("a", 2), ("b", 2)), ("a", "b"))
        table = IncompleteTable(
            schema,
            (
                Stratum(("a", "b"), [[29 * g, 30 * g], [2, 1]]),
                Stratum(("b",), [31 * g, 31 * g]),
                Stratum(("a",), [5, 7]),
                Stratum((), 3),
            ),
        )
        a, b, n, d = (np.int64(x * g) for x in (29, 30, 31, 31))
        with np.errstate(over="ignore"):
            assert a * d > n * b  # the wrapped int64 comparison
        want = [w[0] for w in _oracle_assess(table)]
        assert want[0] == "inside"
        assert [r.membership for r in assess(table).records] == want
        result = screening_plan(schema).screen(observed_counts(table)[None])
        assert result.defined[0, 0] and not result.outside[0, 0]


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

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.none(),
            st.integers(0, 2**256),
            st.lists(st.integers(0, 2**70), max_size=6),
        ),
        st.lists(st.integers(0, 2**40), max_size=3),
        st.one_of(st.integers(0, 300), st.integers(2**32 - 20, 2**33)),
        st.integers(1, 40),
    )
    @example(None, [], 2**32 - 3, 6)  # a block across the second word
    @example(2**256, [7], 2**32, 2)
    @example([], [], 0, 1)
    def test_child_seeds_match_seed_sequence(self, seed, prefix, start, count):
        # the block derivation against numpy's own SeedSequence, child by
        # child; starts near 2**32 put indices on both sides of the
        # second index word without spawning that many children
        root = np.random.SeedSequence(seed)
        rows = _child_seeds(root.entropy, tuple(prefix), start, count)
        want = [
            np.random.SeedSequence(
                root.entropy, spawn_key=(*prefix, start + k)
            ).generate_state(4, np.uint64)
            for k in range(count)
        ]
        assert rows.dtype == np.uint64 and rows.flags.c_contiguous
        np.testing.assert_array_equal(rows, np.array(want))
