"""Model fitting: closed forms, EM, fit statistics, and diagnostics."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from misstab import (
    ComputationError,
    IncompleteTable,
    NonresponseModel,
    Stratum,
    TableError,
    TableSchema,
    builtin_dataset,
    chi_square_sf,
    collapse_cross,
    fit_all,
    fit_closed_form,
    fit_em,
    fit_model,
    fitted_containment,
    get_model,
    mar_bounds,
)
import misstab.fitting
from misstab.fitting import (
    BOUNDARY_FACE,
    METHOD_CLOSED,
    MARGIN_CACHE_SIZE,
    METHOD_EM,
    _EcmMap,
    _Iterate,
    _g2_from_mu,
    _is_face,
    _margin_axes,
    _margin_group,
    _recover_lambda,
    _schedule,
)
from misstab.models import (
    MECH_MAR,
    Mechanism,
    _make_model,
    full_cross_dims,
    generating_class,
    indicator_factor,
    observation_map,
)


def by_id(fits):
    return {f.model_id: f for f in fits}


# frozen deviance table: (fixture name, model id, G2, df, method, boundary)
FROZEN = [
    ("smoking_fits", "M5", 0.0, 0, METHOD_CLOSED, False),
    ("smoking_fits", "M6", 0.0, 0, METHOD_CLOSED, False),
    ("smoking_fits", "M4", 0.005303, 1, METHOD_EM, False),
    ("smoking_fits", "M2", 12.457449, 0, METHOD_EM, True),
    ("smoking_fits", "M3", 12.457449, 0, METHOD_EM, True),
    ("smoking_fits", "M1", 12.462697, 1, METHOD_EM, True),
    ("smoking_fits", "M8", 30.114848, 1, METHOD_CLOSED, False),
    ("smoking_fits", "M7", 30.114850, 1, METHOD_EM, False),
    ("smoking_fits", "M9", 30.121530, 2, METHOD_EM, False),
    ("bone_fits", "M5", 0.0, 0, METHOD_CLOSED, False),
    ("bone_fits", "M6", 2.355038, 0, METHOD_EM, True),
    ("bone_fits", "M4", 5.423745, 2, METHOD_EM, False),
    ("bone_fits", "M2", 21.256945, 0, METHOD_EM, True),
    ("bone_fits", "M3", 24.212676, 0, METHOD_EM, True),
    ("bone_fits", "M7", 25.658535, 2, METHOD_EM, False),
    ("bone_fits", "M1", 26.680703, 2, METHOD_EM, True),
    ("bone_fits", "M8", 28.013599, 2, METHOD_EM, True),
    ("bone_fits", "M9", 31.268272, 4, METHOD_EM, False),
    ("opinion_one_fits", "C1", 2.080617, 2, METHOD_EM, False),
    ("opinion_one_fits", "C3", 2.094924, 2, METHOD_EM, False),
    ("opinion_one_fits", "C2", 2.462257, 2, METHOD_EM, False),
    ("opinion_one_fits", "C4", 2.853802, 3, METHOD_CLOSED, False),
    ("opinion_two_fits", "D3:Y1=MAR(Y2),Y2=MAR(Y3)", 3.744745, 5, METHOD_EM, False),
    ("opinion_two_fits", "D6:Y1=NMAR,Y2=MAR(Y3)", 4.039908, 5, METHOD_EM, False),
    ("opinion_two_fits", "D3:Y1=MAR(Y3),Y2=MAR(Y3)", 4.045227, 5, METHOD_EM, False),
    ("opinion_two_fits", "D5:Y1=MCAR,Y2=MAR(Y3)", 4.206948, 6, METHOD_EM, False),
    ("opinion_two_fits", "D6:Y1=MAR(Y2),Y2=NMAR", 4.841803, 5, METHOD_EM, False),
    ("opinion_two_fits", "D6:Y1=MAR(Y3),Y2=NMAR", 5.259546, 5, METHOD_EM, False),
    ("opinion_two_fits", "D2:Y1=NMAR,Y2=NMAR", 5.261084, 5, METHOD_EM, False),
    ("opinion_two_fits", "D4:Y1=MCAR,Y2=NMAR", 5.387450, 6, METHOD_EM, False),
    ("opinion_two_fits", "D3:Y1=MAR(Y2),Y2=MAR(Y1)", 37.242259, 5, METHOD_EM, False),
    ("opinion_two_fits", "D3:Y1=MAR(Y3),Y2=MAR(Y1)", 38.068546, 5, METHOD_EM, False),
    ("opinion_two_fits", "D6:Y1=NMAR,Y2=MAR(Y1)", 38.090926, 5, METHOD_EM, False),
    ("opinion_two_fits", "D5:Y1=MCAR,Y2=MAR(Y1)", 38.091076, 6, METHOD_EM, False),
    ("opinion_two_fits", "D5:Y1=MAR(Y2),Y2=MCAR", 74.516826, 6, METHOD_EM, False),
    ("opinion_two_fits", "D5:Y1=MAR(Y3),Y2=MCAR", 75.380351, 6, METHOD_EM, False),
    ("opinion_two_fits", "D4:Y1=NMAR,Y2=MCAR", 75.394009, 6, METHOD_EM, False),
    ("opinion_two_fits", "D1:Y1=MCAR,Y2=MCAR", 75.635642, 7, METHOD_EM, False),
]


# the limit G2 of every boundary fit of the two two-variable tables, as
# pinned in bench/reference.json (EM run until the log-likelihood stops
# changing), the zero cells of the face it is certified on, and the
# iterations and evaluations the fit takes at the default tol: a change
# to the cost of one ECM map application must leave the path as it is
LIMITS = [
    ("bone-density", "M1", 26.680096336000904, 12, 107, 221),
    ("bone-density", "M2", 21.25635224708093, 12, 83, 199),
    ("bone-density", "M3", 24.212008268625365, 20, 88, 226),
    ("bone-density", "M6", 2.3544340621708373, 12, 67, 169),
    ("bone-density", "M8", 28.01296882083017, 12, 67, 169),
    ("smoking-birthweight", "M1", 12.462697319164125, 4, 60, 136),
    ("smoking-birthweight", "M2", 12.457448953409143, 4, 60, 136),
    ("smoking-birthweight", "M3", 12.45744895906486, 4, 66, 154),
]
# ECM map applications a boundary fit may spend: the face solve zeroes
# the rest of a face a few SQUAREM cycles after its first cells, 136-226
# applications on these fits
BOUNDARY_EVALUATIONS = 240

SMOKING_ORDER = ["M5", "M6", "M4", "M2", "M3", "M1", "M8", "M7", "M9"]
BONE_ORDER = ["M5", "M6", "M4", "M2", "M3", "M7", "M1", "M8", "M9"]


class TestChiSquareSf:
    def test_exact_low_df_formulas(self):
        for x in (0.5, 2.0949, 3.84, 5.423745, 9.2):
            assert chi_square_sf(x, 1) == pytest.approx(
                math.erfc(math.sqrt(x / 2.0)), abs=1e-12
            )
            assert chi_square_sf(x, 2) == pytest.approx(
                math.exp(-x / 2.0), abs=1e-12
            )
            assert chi_square_sf(x, 3) == pytest.approx(
                math.erfc(math.sqrt(x / 2.0))
                + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0),
                abs=1e-12,
            )
            assert chi_square_sf(x, 4) == pytest.approx(
                (1.0 + x / 2.0) * math.exp(-x / 2.0), abs=1e-12
            )

    def test_critical_values(self):
        assert chi_square_sf(3.84, 1) == pytest.approx(0.050044, abs=1e-5)
        assert chi_square_sf(7.81, 3) == pytest.approx(0.050106, abs=1e-5)
        assert chi_square_sf(9.49, 4) == pytest.approx(0.049953, abs=1e-5)
        assert chi_square_sf(2.0949, 2) == pytest.approx(0.350831, abs=1e-5)
        assert chi_square_sf(5.423745, 2) == pytest.approx(0.066412, abs=1e-5)

    def test_simpson_integration_oracle(self):
        # independent oracle: Simpson rule on the density, stdlib gamma only;
        # substituting t = u*u keeps the integrand smooth at the origin for
        # odd df, where the raw density has a half-integer power
        def sf_by_quadrature(x, df, n=4096):
            norm = 2.0 ** (df / 2.0) * math.gamma(df / 2.0)

            def integrand(u):
                return 2.0 * u ** (df - 1) * math.exp(-u * u / 2.0) / norm

            b = math.sqrt(x)
            h = b / n
            acc = integrand(0.0) + integrand(b)
            acc += 4.0 * sum(integrand((2 * k + 1) * h) for k in range(n // 2))
            acc += 2.0 * sum(integrand(2 * k * h) for k in range(1, n // 2))
            return 1.0 - acc * h / 3.0

        for df in (2, 3, 4, 5, 7):
            for x in (0.7, 2.0949, 5.423745, 11.3):
                assert chi_square_sf(x, df) == pytest.approx(
                    sf_by_quadrature(x, df), abs=1e-8
                )

    def test_matches_scipy_gammaincc(self):
        # scipy (the dev extra) is only an oracle here; the grid covers
        # every df up to 40 and a stride to 1500, x from 0 to 3*df + 30
        special = pytest.importorskip("scipy.special")
        dfs = [*range(1, 41), *range(41, 1500, 29), 1499, 1500]
        for df in dfs:
            for x in np.linspace(0.0, 3.0 * df + 30.0, 31):
                ref = float(special.gammaincc(df / 2.0, x / 2.0))
                got = chi_square_sf(float(x), df)
                assert got == pytest.approx(ref, rel=1e-11, abs=0.0), (df, x)

    def test_edges(self):
        for df in (1, 2, 3, 1500):
            assert chi_square_sf(0.0, df) == 1.0
            assert chi_square_sf(float("inf"), df) == 0.0
            assert chi_square_sf(1e308, df) == 0.0
            assert chi_square_sf(1e308, df + 1) == 0.0
        assert chi_square_sf(3.0, np.int64(3)) == chi_square_sf(3.0, 3)
        for bad_df in (0, -1, 1.5, True, np.bool_(True)):
            with pytest.raises(ComputationError):
                chi_square_sf(1.0, bad_df)
        for bad_x in (-1.0, float("nan"), True, np.bool_(False)):
            with pytest.raises(ComputationError):
                chi_square_sf(bad_x, 2)

    def test_x_must_be_a_real_number(self):
        want = chi_square_sf(3.0, 2)
        for x in (3, np.int64(3), np.float32(3.0), np.float64(3.0)):
            assert chi_square_sf(x, 2) == want
        for bad_x in ("3", b"3", None, 3 + 0j, np.array([3.0])):
            with pytest.raises(ComputationError, match="nonnegative number"):
                chi_square_sf(bad_x, 2)

    def test_result_is_a_probability(self):
        for df in (1, 2, 7, 8, 301, 1000):
            for x in (1e-300, 1e-9, 0.5, df / 3.0, df, 10.0 * df, 1e6):
                assert 0.0 <= chi_square_sf(x, df) <= 1.0, (df, x)


class TestClosedForms:
    @pytest.fixture()
    def feasible_table(self):
        schema = TableSchema((("a", 2), ("b", 2)), ("a", "b"))
        return IncompleteTable(
            schema,
            (
                Stratum(("a", "b"), [[30, 50], [20, 60]]),
                Stratum(("b",), [25, 55]),
                Stratum(("a",), [20, 20]),
                Stratum((), 10),
            ),
        )

    def test_exact_solution(self, feasible_table):
        fit = fit_closed_form("M3", feasible_table)
        assert fit is not None
        assert fit.method == METHOD_CLOSED
        assert fit.iterations == 0
        assert fit.converged and not fit.boundary
        assert fit.perfect_fit
        assert fit.G2 <= 1e-9
        assert fit.df == 0 and fit.p_value == 1.0
        np.testing.assert_allclose(
            fit.mu_hat[:, :, 0, 0], [[30.0, 50.0], [20.0, 60.0]], atol=1e-9
        )
        np.testing.assert_allclose(
            fit.mu_hat[:, :, 1, 0], [[15.0, 25.0], [10.0, 30.0]], atol=1e-9
        )
        np.testing.assert_allclose(
            fit.mu_hat[:, :, 0, 1], [[7.5, 12.5], [5.0, 15.0]], atol=1e-9
        )
        np.testing.assert_allclose(
            fit.mu_hat[:, :, 1, 1],
            [[1.875, 3.125], [1.25, 3.75]],
            atol=1e-9,
        )

    def test_fitted_strata_reproduce_observations(self, feasible_table):
        fit = fit_closed_form("M3", feasible_table)
        strata = fit.fitted_strata()
        assert set(strata) == set(feasible_table.schema.patterns())
        np.testing.assert_allclose(strata[()], [[30, 50], [20, 60]], atol=1e-9)
        np.testing.assert_allclose(strata[("a",)], [25, 55], atol=1e-9)
        np.testing.assert_allclose(strata[("b",)], [20, 20], atol=1e-9)
        np.testing.assert_allclose(strata[("a", "b")], 10, atol=1e-9)
        for pat in feasible_table.schema.patterns():
            np.testing.assert_array_equal(
                collapse_cross(fit.mu_hat, fit.schema, set(pat)), strata[pat]
            )

    def test_collapse_rejects_a_pattern_the_table_lacks(self, opinion_one_table):
        fit = fit_model("C4", opinion_one_table)
        for pattern in (("attendance",), ("nosuch",)):
            with pytest.raises(TableError):
                collapse_cross(fit.mu_hat, fit.schema, pattern)

    def test_feasibility_by_model(self, smoking_table, bone_table, opinion_one_table):
        # interior explicit solution exists only for some model/table pairs
        assert fit_closed_form("M5", smoking_table) is not None
        assert fit_closed_form("M6", smoking_table) is not None
        assert fit_closed_form("M8", smoking_table) is not None
        for infeasible in ("M1", "M2", "M3"):
            assert fit_closed_form(infeasible, smoking_table) is None
        assert fit_closed_form("M4", smoking_table) is None
        assert fit_closed_form("M5", bone_table) is not None
        assert fit_closed_form("M6", bone_table) is None
        assert fit_closed_form("C4", opinion_one_table) is not None

    def test_empty_mcar_stratum_keeps_the_both_missing_block(self):
        # M1's MCAR constant is 0 when b's stratum is empty; the block with
        # both variables missing must still carry its count
        schema = TableSchema((("a", 2), ("b", 2)), ("a", "b"))
        table = IncompleteTable(
            schema,
            (
                Stratum(("a", "b"), [[30, 50], [20, 60]]),
                Stratum(("b",), [25, 55]),
                Stratum(("a",), [0, 0]),
                Stratum((), 10),
            ),
        )
        fit = fit_closed_form("M1", table)
        assert fit is not None
        np.testing.assert_allclose(
            fit.mu_hat[:, :, 1, 1], [[1.875, 3.125], [1.25, 3.75]], rtol=1e-12
        )

    def test_models_off_the_explicit_rule_go_to_em(self, smoking_table):
        # the rule reads the mechanism kinds, so a model without one
        # mechanism per variable, with terms its mechanisms do not
        # generate, or with a variable as its own MAR donor has no explicit
        # solution
        schema = smoking_table.schema
        v1, v2 = schema.missing
        m5 = get_model(schema, "M5")
        extra_term = (v1, indicator_factor(v1))
        m9 = get_model(schema, "M9")
        models = (
            NonresponseModel("saturated", (), m5.terms),
            NonresponseModel("no-mechanism", (), m9.terms),
            dataclasses.replace(m5, id="M5+", terms=m5.terms + (extra_term,)),
            _make_model(
                schema,
                "self-donor",
                ((v1, Mechanism(MECH_MAR, v1)), (v2, Mechanism(MECH_MAR, v1))),
            ),
        )
        for model in models:
            assert fit_closed_form(model, smoking_table) is None, model.id
            assert fit_model(model, smoking_table).method == METHOD_EM


class TestFrozenDeviances:
    @pytest.mark.parametrize(
        "fixture,model_id,g2,df,method,boundary",
        FROZEN,
        ids=[f"{f.split('_')[0]}-{m}" for f, m, *_ in FROZEN],
    )
    def test_frozen(self, request, fixture, model_id, g2, df, method, boundary):
        fit = by_id(request.getfixturevalue(fixture))[model_id]
        if g2 == 0.0:
            assert fit.G2 <= 1e-8
        else:
            assert fit.G2 == pytest.approx(g2, abs=1e-3)
        assert fit.df == df
        assert fit.method == method
        assert fit.boundary == boundary
        assert fit.converged

    def test_p_values(self, smoking_fits, bone_fits, opinion_one_fits, opinion_two_fits):
        assert by_id(smoking_fits)["M4"].p_value == pytest.approx(0.9419, abs=2e-4)
        assert by_id(smoking_fits)["M1"].p_value == pytest.approx(0.0004, abs=2e-4)
        assert by_id(bone_fits)["M4"].p_value == pytest.approx(0.0664, abs=2e-4)
        one = by_id(opinion_one_fits)
        assert one["C1"].p_value == pytest.approx(0.3533, abs=2e-4)
        assert one["C3"].p_value == pytest.approx(0.3508, abs=2e-4)
        assert one["C2"].p_value == pytest.approx(0.2920, abs=2e-4)
        assert one["C4"].p_value == pytest.approx(0.4147, abs=2e-4)
        best = opinion_two_fits[0]
        assert best.p_value == pytest.approx(0.5867, abs=2e-4)

    def test_perfect_models_with_lack_of_fit_are_boundary(self, smoking_fits):
        m2 = by_id(smoking_fits)["M2"]
        assert m2.perfect_fit
        assert m2.G2 > 1.0
        assert m2.boundary
        assert m2.df == 0 and m2.p_value == 1.0


class TestFitAll:
    def test_rank_order_two_variable(self, smoking_fits, bone_fits):
        assert [f.model_id for f in smoking_fits] == SMOKING_ORDER
        assert [f.model_id for f in bone_fits] == BONE_ORDER

    @pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-14])
    def test_rank_order_does_not_depend_on_tol(
        self, smoking_table, bone_table, tol
    ):
        # smoking M2 and M3 reach limits 6e-9 apart; G2 is ranked rounded
        # to six decimals, so their order falls to the tie rule at every
        # tol.  Smoking M7 is an interior EM fit with the same limit as
        # the closed-form M8 (30.114848); the relative stop leaves it
        # 2.0e-6 above that at tol 1e-10 only, so from 1e-12 on the tie
        # rule puts it first
        smoking = list(SMOKING_ORDER)
        if tol < 1e-10:
            smoking[6:8] = ["M7", "M8"]
        for table, order in (
            (smoking_table, smoking), (bone_table, BONE_ORDER),
        ):
            fits = fit_all(table, tol=tol)
            assert [f.model_id for f in fits] == order

    def test_rank_order_three_variable(self, opinion_one_fits, opinion_two_fits):
        assert [f.model_id for f in opinion_one_fits] == ["C1", "C3", "C2", "C4"]
        expected = [row[1] for row in FROZEN if row[0] == "opinion_two_fits"]
        assert [f.model_id for f in opinion_two_fits] == expected

    def test_best_non_perfect(self, smoking_fits, opinion_one_fits):
        # the first fit in rank order that is not a perfect fit
        for fits, expected in ((smoking_fits, "M4"), (opinion_one_fits, "C1")):
            best = next(f for f in fits if not f.perfect_fit)
            assert best.model_id == expected

    def test_information_criteria(self, bone_fits, bone_table):
        for fit in bone_fits:
            assert fit.aic == pytest.approx(
                fit.G2 + 2.0 * fit.n_params, abs=1e-9
            )
            assert fit.bic == pytest.approx(
                fit.G2 + math.log(bone_table.N) * fit.n_params, abs=1e-9
            )

    def test_deviance_recomputation(self, opinion_one_fits, opinion_one_table):
        for fit in opinion_one_fits:
            assert _g2_from_mu(fit.mu_hat, opinion_one_table) == pytest.approx(
                fit.G2, abs=1e-9
            )

    def test_mass_and_immutability(self, smoking_fits, smoking_table):
        for fit in smoking_fits:
            assert fit.mu_hat.sum() == pytest.approx(smoking_table.N, rel=1e-9)
            assert not fit.mu_hat.flags.writeable
            assert fit.pi_hat.sum() == pytest.approx(1.0, rel=1e-9)


class TestLambdaRecovery:
    def test_sum_to_zero_and_residual(self, smoking_fits, opinion_one_fits):
        for fit in (by_id(smoking_fits)["M5"], by_id(opinion_one_fits)["C1"]):
            assert fit.lambda_hat is not None
            assert fit.lambda_residual <= 1e-12
            for term, arr in fit.lambda_hat.items():
                if term == ():
                    continue
                for ax in range(arr.ndim):
                    np.testing.assert_allclose(
                        arr.sum(axis=ax), 0.0, atol=1e-10
                    )

    def test_two_by_two_interaction_identity(self, smoking_fits):
        # on a 2x2 substantive cross the association effect equals a
        # quarter of the log cross-product ratio of the recorded slice
        for mid in ("M5", "M4"):
            fit = by_id(smoking_fits)[mid]
            mu = fit.mu_hat[:, :, 0, 0]
            expected = 0.25 * math.log(
                mu[0, 0] * mu[1, 1] / (mu[0, 1] * mu[1, 0])
            )
            lam = fit.lambda_hat[("smoking", "birthweight")]
            assert abs(lam[0, 0] - expected) <= 1e-8

    @pytest.mark.parametrize("model_id", [
        "D1:Y1=MCAR,Y2=MCAR", "D5:Y1=MAR(Y3),Y2=MCAR",
    ])
    def test_large_table_needs_no_design_matrix(self, model_id):
        # 20 x 20 x 20 x 2 x 2 = 32000 cells; a coded design over them
        # would hold at least 32000 x 8003 floats (2.0 GB)
        rng = np.random.default_rng(20)
        schema = TableSchema(
            (("y1", 20), ("y2", 20), ("y3", 20)), ("y1", "y2")
        )
        table = IncompleteTable(schema, tuple(
            Stratum(schema.observed_for(p), rng.poisson(50, size=[
                20 for _ in schema.observed_for(p)
            ]))
            for p in schema.patterns()
        ))
        fit = fit_model(model_id, table)
        assert fit.converged and not fit.boundary
        assert fit.lambda_residual <= 1e-10
        tracemalloc.start()
        try:
            _recover_lambda(fit.model, schema, fit.mu_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestEm:
    def test_prefer_closed_switch(self, smoking_table):
        assert fit_model("M5", smoking_table).method == METHOD_CLOSED
        em = fit_em("M5", smoking_table, tol=1e-14)
        assert em.method == METHOD_EM
        assert em.G2 <= 1e-6

    def test_perturbed_start_reaches_same_optimum(self, smoking_table):
        base = fit_em("M4", smoking_table)
        for seed in (7, 11, 23):
            alt = fit_em("M4", smoking_table, init="perturbed", seed=seed)
            assert alt.G2 == pytest.approx(base.G2, abs=1e-4)
            assert alt.lambda_residual <= 1e-12

    def test_loglik_trace_is_monotone(self, smoking_table):
        fit = fit_em("M4", smoking_table)
        trace = fit.loglik_trace
        assert len(trace) == fit.iterations
        diffs = np.diff(np.asarray(trace))
        assert diffs.min() >= -1e-9 * (abs(trace[-1]) + 1.0)

    @pytest.mark.parametrize("model_id", ["M1", "M4", "M5", "M7"])
    def test_model_of_another_schema_is_a_data_error(
        self, smoking_table, bone_table, model_id
    ):
        model = get_model(bone_table.schema, model_id)
        for fit in (fit_model, fit_em, fit_closed_form):
            with pytest.raises(TableError, match="density"):
                fit(model, smoking_table)

    def test_errors(self, smoking_table):
        with pytest.raises(TableError):
            fit_em("M1", builtin_dataset("spo-full"))
        with pytest.raises(TableError):
            fit_model("bogus", smoking_table)
        with pytest.raises(ComputationError):
            fit_em("M5", smoking_table, tol=0.0)
        with pytest.raises(ComputationError):
            fit_em("M5", smoking_table, max_iter=0)
        with pytest.raises(ComputationError):
            fit_em("M5", smoking_table, init="weird")

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance(self, bone_table, tol):
        # nan never stops the loop and inf stops it at the second iterate
        for fit in (fit_em, fit_model):
            with pytest.raises(ComputationError, match="tol must be finite"):
                fit("M4", bone_table, tol=tol, max_iter=10)

    @pytest.mark.parametrize(
        "stopping",
        [
            {"tol": "x"},
            {"tol": None},
            {"tol": True},
            {"max_iter": 2.5},
            {"max_iter": True},
            {"max_iter": "10"},
        ],
    )
    def test_stopping_arguments_of_another_type(self, smoking_table, stopping):
        # tol is a real number and max_iter an integer, neither a bool:
        # "x" and None used to raise TypeError, 2.5 and True were accepted
        for fit, model_id in ((fit_em, "M4"), (fit_model, "M4"), (fit_model, "M5")):
            with pytest.raises(ComputationError, match="must be a"):
                fit(model_id, smoking_table, **stopping)

    def test_every_iteration_is_one_ecm_step(self, bone_table):
        fit = fit_em("M4", bone_table)
        assert fit.face_cells == 0 and fit.evaluations == fit.iterations
        dims = full_cross_dims(bone_table.schema)
        axes = _margin_axes(bone_table.schema, generating_class(fit.model))
        ecm = _EcmMap(bone_table, axes)
        it = _Iterate(np.full(dims, bone_table.N / float(np.prod(dims))))
        for _ in range(fit.iterations):
            it = ecm(it)
        assert np.array_equal(it.mu, fit.mu_hat)

    @pytest.mark.parametrize(
        "name,model_id",
        [(n, m) for n, m, *_ in LIMITS],
        ids=[f"{n.split('-')[0]}-{m}" for n, m, *_ in LIMITS],
    )
    def test_each_iterate_is_collapsed_once(self, name, model_id, monkeypatch):
        # the log-likelihood, the margin residual and the next map
        # application share one collapse of an iterate; the raw SQUAREM
        # jumps add the few more.  A collapse is a bincount over the
        # observation index, whether the map or the observation map takes
        # it, so every one is counted
        table = builtin_dataset(name)
        obs_index = observation_map(table.schema).obs_index
        calls = []
        bincount = np.bincount

        def counted(index, *args, **kwargs):
            if index is obs_index:
                calls.append(None)
            return bincount(index, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        fit = fit_em(model_id, table)
        assert fit.face_cells > 0
        assert fit.evaluations <= len(calls) <= 1.1 * fit.evaluations

    def test_map_is_built_once_per_fit(self, bone_table, monkeypatch):
        # the observed counts and their observation map are gathered when
        # the map is built, never per step, and the final G2 reads the
        # map's counts and the last iterate's collapse
        calls = {"observed_counts": 0, "observation_map": 0}
        for name in calls:
            original = getattr(misstab.fitting, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(misstab.fitting, name, counted)
        fit = fit_em("M3", bone_table)
        assert fit.evaluations == 226 and fit.face_cells > 0
        assert calls == {"observed_counts": 1, "observation_map": 1}

    def test_margin_index_is_built_once_per_fit(self):
        # each margin's group index is built once per cross shape and
        # shared: by the map and the effects of a fit, by a refit, by
        # another model with the same margin, and by the effects of a
        # closed-form fit
        _margin_group.cache_clear()
        table = builtin_dataset("spo-y1y2")
        fit = fit_em("D5:Y1=MCAR,Y2=MAR(Y3)", table)
        assert fit.lambda_hat is not None
        # three margins, missed by the map and hit by the effects
        assert _margin_group.cache_info()[:2] == (3, 3)
        fit_em("D5:Y1=MCAR,Y2=MAR(Y3)", table)
        assert _margin_group.cache_info()[:2] == (9, 3)
        # the full margin, the indicator pair and (Y3, R(Y2)) are shared;
        # only (Y3, R(Y1)) is new
        other = fit_em("D3:Y1=MAR(Y3),Y2=MAR(Y3)", table)
        assert other.lambda_hat is not None
        assert _margin_group.cache_info()[:2] == (16, 4)
        for _ in range(2):
            closed = fit_model("C4", builtin_dataset("spo-y1"))
            assert closed.method == METHOD_CLOSED
            assert closed.lambda_hat is not None
        assert _margin_group.cache_info()[:2] == (18, 6)

    def test_margin_cache_is_read_only_and_bounded(self, bone_table):
        schema = bone_table.schema
        axes = _schedule(schema, get_model(schema, "M4")).sum_axes
        groups = _EcmMap(bone_table, axes)._groups
        for (group, size), drop in zip(groups, axes):
            cached = _margin_group(full_cross_dims(schema), drop)
            assert cached[0] is group and cached[1] == size
            assert not group.flags.writeable
            with pytest.raises(ValueError):
                group[0] = 0
        assert _margin_group.cache_info().maxsize == MARGIN_CACHE_SIZE
        for extent in range(2, MARGIN_CACHE_SIZE + 4):
            _margin_group((extent, 2), (1,))
        assert _margin_group.cache_info().currsize == MARGIN_CACHE_SIZE

    def test_refit_reads_the_cached_schedule(self, bone_table):
        fit_em("M4", bone_table)
        before = _schedule.cache_info()
        fit_em("M4", bone_table)
        after = _schedule.cache_info()
        # one lookup each for the map, the counts and the effects, all hits
        assert after.hits == before.hits + 3
        assert after.misses == before.misses

    def test_empty_table(self):
        schema = TableSchema((("a", 2), ("b", 2)), ("a", "b"))
        empty = IncompleteTable(
            schema,
            (
                Stratum(("a", "b"), [[0, 0], [0, 0]]),
                Stratum(("b",), [0, 0]),
                Stratum(("a",), [0, 0]),
                Stratum((), 0),
            ),
        )
        with pytest.raises(ComputationError):
            fit_em("M5", empty)


class TestFaceSolver:
    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-14])
    @pytest.mark.parametrize(
        "name,model_id,limit,face_cells,iterations,evaluations",
        LIMITS,
        ids=[f"{n.split('-')[0]}-{m}" for n, m, *_ in LIMITS],
    )
    def test_boundary_fits_reach_the_limit(
        self, name, model_id, limit, face_cells, iterations, evaluations, tol
    ):
        fit = fit_model(model_id, builtin_dataset(name), tol=tol)
        assert fit.G2 == pytest.approx(limit, abs=1e-6)
        assert fit.boundary and fit.converged
        assert fit.boundary_rule == BOUNDARY_FACE
        assert fit.face_cells == face_cells
        assert np.count_nonzero(fit.mu_hat == 0) == fit.face_cells
        assert fit.evaluations <= BOUNDARY_EVALUATIONS
        assert fit.lambda_hat is None and fit.lambda_residual is None
        if tol == 1e-10:
            got = (fit.iterations, fit.evaluations)
            assert got == (iterations, evaluations)

    def test_trace_holds_accepted_iterations(self, bone_table):
        fit = fit_em("M3", bone_table)
        trace = np.asarray(fit.loglik_trace)
        assert fit.iterations == trace.size
        assert fit.evaluations > fit.iterations
        assert np.all(np.diff(trace) >= 0.0)

    def test_face_is_a_union_of_emptied_margins(self, smoking_table):
        fit = fit_em("M2", smoking_table)
        axes = _margin_axes(fit.schema, generating_class(fit.model))
        zero = fit.mu_hat == 0
        assert _is_face(zero, axes)
        # one cell short of the face empties no margin cell
        short = zero.copy()
        short[np.unravel_index(np.flatnonzero(zero)[0], zero.shape)] = False
        assert not _is_face(short, axes)

    def test_interior_fit_has_no_face(self, smoking_table):
        fit = fit_em("M4", smoking_table)
        assert (fit.face_cells, fit.boundary_rule) == (0, None)
        assert fit.evaluations == fit.iterations

    def test_refused_face_leaves_the_fit_as_it_was(
        self, opinion_two_table, monkeypatch
    ):
        # this interior fit still moves after 50 iterations, so small cells
        # pass the decay test; the face they span is refused
        model_id = "D2:Y1=NMAR,Y2=NMAR"
        fit = fit_em(model_id, opinion_two_table)
        assert fit.face_cells == 0 and not fit.boundary
        assert fit.evaluations > fit.iterations
        monkeypatch.setattr(misstab.fitting, "FACE_ATTEMPTS", 0)
        plain = fit_em(model_id, opinion_two_table)
        assert plain.evaluations == plain.iterations
        assert plain.loglik_trace == fit.loglik_trace
        assert plain.G2 == fit.G2

    def test_perfect_fit_misfit_rule(self, smoking_table):
        # stopped before any cell can show a decay, M2 keeps the old rule
        fit = fit_em("M2", smoking_table, max_iter=20)
        assert fit.boundary_rule == "perfect-fit-misfit" and fit.boundary
        assert fit.face_cells == 0


class TestMarBounds:
    def test_two_variable_records(self, smoking_fits):
        rep = mar_bounds(by_id(smoking_fits)["M5"])
        assert rep.applicable
        assert rep.classification == "weak-MAR"
        rec_s, rec_b = rep.records
        assert (rec_s.variable, rec_s.donor) == ("smoking", "birthweight")
        assert rec_s.lambda_difference == pytest.approx(-0.2791, abs=2e-3)
        assert rec_s.lower == pytest.approx(-0.1020, abs=2e-3)
        assert rec_s.upper == pytest.approx(0.1097, abs=2e-3)
        assert rec_s.classification == "weak-MAR"
        assert (rec_b.variable, rec_b.donor) == ("birthweight", "smoking")
        assert rec_b.lambda_difference == pytest.approx(0.0016, abs=2e-3)
        assert rec_b.lower == pytest.approx(-0.1802, abs=2e-3)
        assert rec_b.upper == pytest.approx(0.0315, abs=2e-3)
        assert rec_b.classification == "strong-MAR"

    def test_single_mechanism(self, smoking_fits):
        rep = mar_bounds(by_id(smoking_fits)["M4"])
        assert [r.classification for r in rep.records] == ["weak-MAR"]
        assert rep.records[0].lambda_difference == pytest.approx(-0.2794, abs=2e-3)
        assert rep.classification == "weak-MAR"

    def test_three_level_donor(self, bone_fits):
        rep = mar_bounds(by_id(bone_fits)["M4"])
        assert [(r.pair, r.classification) for r in rep.records] == [
            ((1, 2), "strong-MAR"),
            ((1, 3), "weak-MAR"),
            ((2, 3), "weak-MAR"),
        ]
        rep5 = mar_bounds(by_id(bone_fits)["M5"])
        assert [r.classification for r in rep5.records] == [
            "strong-MAR", "weak-MAR", "weak-MAR",
            "weak-MAR", "weak-MAR", "weak-MAR",
        ]

    def test_not_applicable_without_mar_mechanism(self, smoking_fits):
        rep = mar_bounds(by_id(smoking_fits)["M9"])
        assert not rep.applicable
        assert rep.records == ()
        assert rep.classification == "not-applicable"

    def test_bracket_matches_direct_containment(self, bone_fits):
        # the bracket test and direct interval containment must agree; the
        # one-missing table puts the non-response odds of (2, 3) | b=1
        # exactly on the upper end of its span, a tie the bracket's exp
        # and log would round to strong-MAR
        schema = TableSchema((("a", 3), ("b", 2), ("c", 2)), ("c",))
        tie = IncompleteTable(
            schema,
            (
                Stratum(
                    ("a", "b", "c"),
                    [[[1, 2], [2, 0]], [[1, 1], [1, 2]], [[2, 1], [2, 0]]],
                ),
                Stratum(("a", "b"), [[2, 1], [1, 2], [0, 2]]),
            ),
        )
        fits = [by_id(bone_fits)[mid] for mid in ("M4", "M5")]
        for fit in fits + [fit_model("C2", tie)]:
            spans = {
                (a, t, p, c): (v, lo, hi)
                for a, t, p, c, v, lo, hi in fitted_containment(fit)
            }
            for rec in mar_bounds(fit).records:
                val, lo, hi = spans[
                    (rec.variable, rec.donor, rec.pair, rec.conditioning)
                ]
                strictly_inside = lo < val < hi
                assert strictly_inside == (rec.classification == "strong-MAR")
