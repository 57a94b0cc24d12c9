"""Model fitting: closed forms, EM, fit statistics, and diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from misstab import (
    ComputationError,
    IncompleteTable,
    Stratum,
    TableError,
    TableSchema,
    aic_bic,
    builtin_dataset,
    chi_square_sf,
    collapse_cross,
    fit_all,
    fit_closed_form,
    fit_em,
    fit_model,
    fitted_containment,
    g_squared,
    get_model,
    mar_bounds,
)
from misstab.fitting import (
    METHOD_CLOSED,
    METHOD_EM,
    _recover_lambda,
    best_non_perfect,
)


def by_id(fits):
    return {f.model_id: f for f in fits}


# frozen deviance table: (fixture name, model id, G2, df, method, boundary)
FROZEN = [
    ("smoking_fits", "M5", 0.0, 0, METHOD_CLOSED, False),
    ("smoking_fits", "M6", 0.0, 0, METHOD_CLOSED, False),
    ("smoking_fits", "M4", 0.005303, 1, METHOD_EM, False),
    ("smoking_fits", "M2", 12.471349, 0, METHOD_EM, True),
    ("smoking_fits", "M3", 12.471375, 0, METHOD_EM, True),
    ("smoking_fits", "M1", 12.476587, 1, METHOD_EM, True),
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

    def test_edges(self):
        assert chi_square_sf(0.0, 3) == 1.0
        assert chi_square_sf(float("inf"), 3) == 0.0
        for bad_df in (0, -1, 1.5, True):
            with pytest.raises(ComputationError):
                chi_square_sf(1.0, bad_df)
        with pytest.raises(ComputationError):
            chi_square_sf(-1.0, 2)
        with pytest.raises(ComputationError):
            chi_square_sf(float("nan"), 2)


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

    def test_bad_convention(self, smoking_table):
        with pytest.raises(TableError):
            fit_closed_form("M5", smoking_table, df_convention="other")


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
        assert [f.model_id for f in smoking_fits] == [
            "M5", "M6", "M4", "M2", "M3", "M1", "M8", "M7", "M9",
        ]
        assert [f.model_id for f in bone_fits] == [
            "M5", "M6", "M4", "M2", "M3", "M7", "M1", "M8", "M9",
        ]

    def test_rank_order_three_variable(self, opinion_one_fits, opinion_two_fits):
        assert [f.model_id for f in opinion_one_fits] == ["C1", "C3", "C2", "C4"]
        expected = [row[1] for row in FROZEN if row[0] == "opinion_two_fits"]
        assert [f.model_id for f in opinion_two_fits] == expected

    def test_best_non_perfect(self, smoking_fits, opinion_one_fits):
        assert best_non_perfect(smoking_fits).model_id == "M4"
        assert best_non_perfect(opinion_one_fits).model_id == "C1"

    def test_information_criteria(self, bone_fits, bone_table):
        for fit in bone_fits:
            aic, bic = aic_bic(fit, bone_table)
            assert fit.aic == pytest.approx(aic, abs=1e-9)
            assert fit.bic == pytest.approx(bic, abs=1e-9)
            assert aic == pytest.approx(fit.G2 + 2.0 * fit.n_params, abs=1e-9)
            assert bic == pytest.approx(
                fit.G2 + math.log(bone_table.N) * fit.n_params, abs=1e-9
            )

    def test_deviance_recomputation(self, opinion_one_fits, opinion_one_table):
        for fit in opinion_one_fits:
            assert g_squared(fit, opinion_one_table) == pytest.approx(
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
        em = fit_model("M5", smoking_table, prefer_closed=False, tol=1e-14)
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
        with pytest.raises(TableError):
            fit_em("M5", smoking_table, df_convention="other")

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
        # the bracket test and direct interval containment must agree
        for mid in ("M4", "M5"):
            fit = by_id(bone_fits)[mid]
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
