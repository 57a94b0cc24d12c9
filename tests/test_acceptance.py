"""Acceptance gate: one test per shipped guarantee.

Each test accumulates labeled sub-checks and fails with a readable report
if any sub-check misses its stated tolerance or budget.  The conftest
reporter turns the per-test outcomes into a criterion summary.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from misstab import (
    CLASS_MAR,
    CLASS_MCAR_OR_NMAR,
    TableSchema,
    assess,
    bootstrap_assess,
    chi_square_sf,
    enumerate_models,
    fit_all,
    fit_closed_form,
    fit_em,
    fit_model,
    fitted_containment,
    generating_class,
    is_perfect_fit,
    scale_counts,
)
from misstab.fitting import _EcmMap, _Iterate, _margin_axes
from misstab.models import MECH_MAR, full_cross_dims

SEED = 20260815
REPLICATES = 10000


class Checker:
    def __init__(self):
        self.lines = []
        self.failures = []

    def check(self, label, ok, detail=""):
        mark = "pass" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        self.lines.append(f"[{mark}] {label}{suffix}")
        if not ok:
            self.failures.append(label)

    def finish(self):
        assert not self.failures, "unmet sub-checks:\n" + "\n".join(self.lines)


def test_criterion_1_two_variable_screening(smoking_table):
    c = Checker()
    t0 = time.perf_counter()
    verdict = assess(smoking_table)
    elapsed = time.perf_counter() - t0
    rec_s = verdict.family("smoking").records[0]
    c.check(
        "smoking non-response odds 142/464",
        (rec_s.value.numerator, rec_s.value.denominator) == (142, 464),
        str(rec_s.value),
    )
    c.check(
        "smoking interval (3394/24132, 4512/21009)",
        str(rec_s.interval) == "(3394/24132, 4512/21009)",
        str(rec_s.interval),
    )
    c.check("smoking membership outside", rec_s.membership == "outside")
    rec_b = verdict.family("birthweight").records[0]
    c.check(
        "birthweight non-response odds 1049/1135",
        (rec_b.value.numerator, rec_b.value.denominator) == (1049, 1135),
        str(rec_b.value),
    )
    c.check(
        "birthweight interval (21009/24132, 4512/3394)",
        str(rec_b.interval) == "(21009/24132, 4512/3394)",
        str(rec_b.interval),
    )
    c.check("birthweight membership inside", rec_b.membership == "inside")
    c.check("verdict MAR", verdict.suggested_class == CLASS_MAR)
    c.check("runtime under 1s", elapsed < 1.0, f"{elapsed:.3f}s")
    c.finish()


def test_criterion_2_three_level_screening(bone_table):
    c = Checker()
    t0 = time.perf_counter()
    verdict = assess(bone_table)
    elapsed = time.perf_counter() - t0
    c.check("exactly 6 checks", len(verdict.records) == 6, str(len(verdict.records)))
    expected = {
        "density": [
            ((456, 156), "(260/131, 93/30)", "inside"),
            ((456, 266), "(621/284, 93/18)", "outside"),
            ((156, 266), "(290/284, 30/18)", "outside"),
        ],
        "income": [
            ((135, 69), "(290/131, 284/117)", "outside"),
            ((135, 27), "(621/93, 284/18)", "outside"),
            ((69, 27), "(260/93, 117/18)", "outside"),
        ],
    }
    for variable, rows in expected.items():
        fam = verdict.family(variable)
        for rec, (value, interval, status) in zip(fam.records, rows):
            label = f"{variable} {rec.query.target}{rec.query.pair}"
            got = (
                (rec.value.numerator, rec.value.denominator),
                str(rec.interval),
                rec.membership,
            )
            c.check(label, got == (value, interval, status), str(got))
    c.check("runtime under 1s", elapsed < 1.0, f"{elapsed:.3f}s")
    c.finish()


def test_criterion_3_three_level_fits(bone_table):
    c = Checker()
    t0 = time.perf_counter()
    m4 = fit_model("M4", bone_table)
    m5 = fit_model("M5", bone_table)
    elapsed = time.perf_counter() - t0
    c.check("G2(M4) = 5.42 +/- 0.01", abs(m4.G2 - 5.42) <= 0.01, f"{m4.G2:.4f}")
    c.check(
        "p(M4) = 0.066 +/- 0.002 at poisson-cells df",
        abs(m4.p_value - 0.066) <= 0.002
        and m4.df == 2
        and m4.df_convention == "poisson-cells",
        f"p={m4.p_value:.4f} df={m4.df}",
    )
    c.check("G2(M5) = 0 +/- 1e-8", m5.G2 <= 1e-8, f"{m5.G2:.2e}")
    c.check("p(M5) = 1", m5.p_value == 1.0, f"{m5.p_value}")
    c.check("runtime under 5s", elapsed < 5.0, f"{elapsed:.3f}s")
    c.finish()


def test_criterion_4_one_missing_screening_and_fit(opinion_one_table):
    c = Checker()
    verdict = assess(opinion_one_table)
    statuses = [r.membership for r in verdict.records]
    c.check(
        "4 memberships inside/outside/inside/outside",
        statuses == ["inside", "outside", "inside", "outside"],
        str(statuses),
    )
    fits = {mid: fit_model(mid, opinion_one_table) for mid in ("C2", "C3", "C4")}
    c.check(
        "G2(C3) = 2.0949 +/- 0.001",
        abs(fits["C3"].G2 - 2.0949) <= 0.001,
        f"{fits['C3'].G2:.4f}",
    )
    c.check(
        "C3 minimal among C2..C4",
        fits["C3"].G2 < fits["C2"].G2 and fits["C3"].G2 < fits["C4"].G2,
        ", ".join(f"{k}={v.G2:.4f}" for k, v in fits.items()),
    )
    c.check(
        "survival(2.0949, 2) = 0.351 +/- 0.001",
        abs(chi_square_sf(2.0949, 2) - 0.351) <= 0.001,
        f"{chi_square_sf(2.0949, 2):.4f}",
    )
    c.finish()


def test_criterion_5_two_missing_screening_and_fit(opinion_two_table):
    c = Checker()
    verdict = assess(opinion_two_table)
    statuses = [r.membership for r in verdict.records]
    c.check(
        "8 memberships alternate inside/outside per family",
        statuses == ["inside", "outside", "inside", "outside"] * 2,
        str(statuses),
    )
    t0 = time.perf_counter()
    fits = fit_all(opinion_two_table)
    elapsed = time.perf_counter() - t0
    best = fits[0]
    designated = "D6:Y1=NMAR,Y2=MAR(Y3)"
    designated_fit = next(f for f in fits if f.model_id == designated)
    c.check(
        "minimum-deviance model is Y1 self-driven, Y2 driven by Y3",
        best.model_id == designated,
        f"argmin {best.model_id} G2={best.G2:.4f};"
        f" {designated} G2={designated_fit.G2:.4f}",
    )
    c.check(
        "minimum G2 = 2.8076 +/- 0.001",
        abs(best.G2 - 2.8076) <= 0.001,
        f"argmin G2={best.G2:.4f}",
    )
    c.check(
        "all 16 models under 30s",
        len(fits) == 16 and elapsed < 30.0,
        f"{len(fits)} fits in {elapsed:.2f}s",
    )
    c.finish()


def test_criterion_6_bootstrap_stability(
    smoking_table, bone_table, opinion_one_table, opinion_two_table
):
    c = Checker()

    def run(table, model, family):
        t0 = time.perf_counter()
        summary = bootstrap_assess(
            table, model, n_replicates=REPLICATES, seed=SEED
        )
        elapsed = time.perf_counter() - t0
        return summary.family(family).percent_mar, elapsed

    pct, took = run(smoking_table, "M4", "smoking")
    c.check(
        "two-variable source, self family in [98.5, 100]",
        98.5 <= pct <= 100.0 and took < 300.0,
        f"{pct:.2f}% in {took:.1f}s",
    )
    pct, took = run(bone_table, "M5", "income")
    c.check(
        "three-level source, donor family 96.56 +/- 1.5",
        abs(pct - 96.56) <= 1.5 and took < 300.0,
        f"{pct:.2f}% in {took:.1f}s",
    )
    pct, took = run(opinion_one_table, "C3", "secession")
    c.check(
        "one-missing source 96.95 +/- 1.5",
        abs(pct - 96.95) <= 1.5 and took < 300.0,
        f"{pct:.2f}% in {took:.1f}s",
    )
    pct, took = run(
        opinion_two_table, "D6:Y1=NMAR,Y2=MAR(Y3)", "secession"
    )
    best = fit_all(opinion_two_table)[0]
    ctx, _ = run(opinion_two_table, best.model, "secession")
    c.check(
        "two-missing designated model 96.56 +/- 1.5",
        abs(pct - 96.56) <= 1.5 and took < 300.0,
        f"{pct:.2f}% in {took:.1f}s; argmin {best.model_id} gives {ctx:.2f}%",
    )
    c.finish()


def test_criterion_7_invariant_suite(
    smoking_table,
    bone_table,
    opinion_one_table,
    opinion_two_table,
    smoking_fits,
    opinion_one_fits,
):
    c = Checker()
    tables = {
        "two-variable": smoking_table,
        "three-level": bone_table,
        "one-missing": opinion_one_table,
        "two-missing": opinion_two_table,
    }

    # every EM trace is non-decreasing
    worst = 0.0
    for name, table in tables.items():
        for model in enumerate_models(table.schema):
            trace = np.asarray(fit_em(model, table).loglik_trace)
            if trace.size > 1:
                rel = np.diff(trace) / (np.abs(trace[:-1]) + 1.0)
                worst = min(worst, float(rel.min()))
    c.check("EM monotone on all catalog fits", worst >= -1e-9, f"worst {worst:.2e}")

    # iterated fixed-point map agrees with explicit solutions
    for table, mid, depth in (
        (smoking_table, "M5", 2000),
        (opinion_one_table, "C4", 2000),
    ):
        closed = fit_closed_form(mid, table)
        axes = _margin_axes(table.schema, generating_class(closed.model))
        ecm = _EcmMap(table, axes)
        dims = full_cross_dims(table.schema)
        it = _Iterate(np.full(dims, table.N / float(np.prod(dims))).ravel())
        for _ in range(depth):
            it = ecm(it)
        mu = it.flat.reshape(dims)
        rel = np.abs(mu - closed.mu_hat) / np.maximum(closed.mu_hat, 1e-12)
        c.check(
            f"EM/explicit agreement for {mid} within 1e-6",
            rel.max() <= 1e-6,
            f"{rel.max():.2e}",
        )

    # interior fits reproduce their sufficient margins
    worst = 0.0
    for table, mid in (
        (smoking_table, "M4"),
        (opinion_one_table, "C1"),
        (opinion_two_table, "D6:Y1=NMAR,Y2=MAR(Y3)"),
    ):
        fit = fit_em(mid, table, tol=1e-15, max_iter=100000)
        axes_list = _margin_axes(table.schema, generating_class(fit.model))
        ecm = _EcmMap(table, axes_list)
        z = ecm._spread_counts(_Iterate(fit.mu_hat.ravel()))
        z = z.reshape(fit.mu_hat.shape)
        for axes in axes_list:
            have = fit.mu_hat.sum(axis=axes)
            want = z.sum(axis=axes)
            worst = max(
                worst, float((np.abs(have - want) / np.maximum(want, 1e-9)).max())
            )
    c.check("sufficient margins match within 1e-6", worst <= 1e-6, f"{worst:.2e}")

    # predicted perfect-fit sets
    predicted = {
        m.id
        for m in enumerate_models(smoking_table.schema)
        if is_perfect_fit(m, smoking_table.schema)
    }
    c.check(
        "two-variable perfect set is {M2,M3,M5,M6}",
        predicted == {"M2", "M3", "M5", "M6"},
        str(sorted(predicted)),
    )
    # one missing variable Y1 (I levels) beside J x K recorded levels:
    # IJK + JK observed statistics against IJK + 1 parameters plus I - 1
    # for NMAR, J - 1 or K - 1 for MAR and 0 for MCAR, so only C1 can be
    # perfect, and only when I = J*K (spo-y1: 10/10/10/9 against 12; a
    # 4x2x2 table: 20 against 20)
    ok, seen = True, []
    for schema, hand in (
        (opinion_one_table.schema, set()),
        (TableSchema((("a", 4), ("b", 2), ("c", 2)), ("a",)), {"C1"}),
    ):
        (missing,) = schema.missing
        rest = math.prod(l for n, l in schema.variables if n != missing)
        derived = {"C1"} if schema.levels(missing) == rest else set()
        predicted = {
            m.id for m in enumerate_models(schema) if is_perfect_fit(m, schema)
        }
        ok = ok and predicted == derived == hand
        seen.append(sorted(predicted))
    c.check(
        "one-missing perfect set is {C1} iff I = J*K (empty on spo-y1)",
        ok,
        str(seen),
    )
    # two missing variables Y1, Y2 (I, J levels) beside Y3 (K levels):
    # at most IJK + 2 max(I,J,K) + 1 parameters against IJK + K(I + J + 1)
    # observed statistics, so no model is ever perfect (spo-y1y2: 11-13
    # against 18)
    schema = opinion_two_table.schema
    i, j = (schema.levels(n) for n in schema.missing)
    (k,) = (l for n, l in schema.variables if n not in schema.missing)
    never = i * j * k + 2 * max(i, j, k) + 1 < i * j * k + k * (i + j + 1)
    predicted = {
        m.id for m in enumerate_models(schema) if is_perfect_fit(m, schema)
    }
    c.check(
        "two-missing perfect set is empty",
        never and predicted == set(),
        str(sorted(predicted)),
    )

    # no-MAR fits keep the fitted odds inside the fitted span
    contained = True
    for fits in (smoking_fits, opinion_one_fits):
        for fit in fits:
            if fit.boundary or any(
                m.kind == MECH_MAR for _, m in fit.model.mechanisms
            ):
                continue
            for _, _, _, _, val, lo, hi in fitted_containment(fit):
                if math.isfinite(val) and math.isfinite(lo):
                    eps = 1e-9 * (1.0 + abs(hi))
                    contained = contained and lo - eps <= val <= hi + eps
    c.check("containment holds for every no-MAR fit", contained)

    # association effect identity on the 2x2x2x2 cross
    fit = fit_em("M4", smoking_table)
    mu = fit.mu_hat[:, :, 0, 0]
    expected = 0.25 * math.log(mu[0, 0] * mu[1, 1] / (mu[0, 1] * mu[1, 0]))
    lam = fit.lambda_hat[("smoking", "birthweight")]
    c.check(
        "association effect equals quarter log cross-ratio within 1e-8",
        abs(lam[0, 0] - expected) <= 1e-8,
        f"{abs(lam[0, 0] - expected):.2e}",
    )

    # screening is invariant under count scaling
    stable = True
    for table in tables.values():
        base = [r.membership for r in assess(table).records]
        for factor in (2, 7, 100):
            scaled = [
                r.membership for r in assess(scale_counts(table, factor)).records
            ]
            stable = stable and scaled == base
    c.check("scaling counts never changes a membership", stable)

    a = bootstrap_assess(opinion_one_table, "C3", n_replicates=50, seed=3)
    b = bootstrap_assess(opinion_one_table, "C3", n_replicates=50, seed=3)
    c.check("bootstrap reproducible under a fixed seed", a.as_dict() == b.as_dict())
    c.finish()


def test_criterion_8_proportional_margins(proportional_table):
    c = Checker()
    verdict = assess(proportional_table)
    statuses = [r.membership for r in verdict.records]
    c.check(
        "both checks inside",
        statuses == ["inside", "inside"],
        str(statuses),
    )
    c.check(
        "class leaves MCAR and NMAR open",
        verdict.suggested_class == CLASS_MCAR_OR_NMAR,
        verdict.suggested_class,
    )
    # independent brute-force confirmation from the raw counts
    full = proportional_table.full.counts
    confirmed = True
    for variable, axis in (("first", 0), ("second", 1)):
        margin = proportional_table.stratum({variable}).counts
        value = Fraction(int(margin[0]), int(margin[1]))
        odds = []
        for lvl in range(full.shape[axis]):
            pair = (
                (full[lvl, 0], full[lvl, 1])
                if axis == 0
                else (full[0, lvl], full[1, lvl])
            )
            odds.append(Fraction(int(pair[0]), int(pair[1])))
        confirmed = confirmed and min(odds) < value < max(odds)
    c.check("brute-force interval check agrees", confirmed)
    c.finish()
