"""Parametric bootstrap: reproducibility, tallies, and generators."""

import dataclasses
import json

import numpy as np
import pytest

from misstab import (
    ComputationError,
    IncompleteTable,
    Stratum,
    TableError,
    TableSchema,
    bootstrap_assess,
    fit_model,
    resample,
)
from misstab import bootstrap, odds
from misstab.bootstrap import MODE_MULTINOMIAL, MODE_POISSON
from misstab.models import observed_counts


class TestResample:
    def test_multinomial_preserves_total_and_shapes(self, smoking_table):
        fit = fit_model("M4", smoking_table)
        rep = resample(fit, smoking_table, np.random.default_rng(0))
        assert rep.schema == smoking_table.schema
        assert rep.N == smoking_table.N
        for orig, new in zip(smoking_table.strata, rep.strata):
            assert orig.observed == new.observed
            assert orig.counts.shape == new.counts.shape

    def test_poisson_mode_varies_total(self, smoking_table):
        fit = fit_model("M4", smoking_table)
        totals = {
            resample(
                fit, smoking_table, np.random.default_rng(k), mode=MODE_POISSON
            ).N
            for k in range(5)
        }
        assert len(totals) > 1

    def test_same_stream_same_table(self, smoking_table):
        fit = fit_model("M4", smoking_table)
        a = resample(fit, smoking_table, np.random.default_rng(12))
        b = resample(fit, smoking_table, np.random.default_rng(12))
        assert a == b

    def test_unknown_mode(self, smoking_table):
        fit = fit_model("M4", smoking_table)
        with pytest.raises(ComputationError):
            resample(fit, smoking_table, np.random.default_rng(0), mode="jackknife")

    def test_zero_expectation_on_nonempty_cell(self, smoking_table):
        fit = fit_model("M4", smoking_table)
        mu = fit.mu_hat.copy()
        mu[0, 0, 0, 0] = 0.0  # observed full-stratum cell holds 4512
        broken = dataclasses.replace(fit, mu_hat=mu)
        with pytest.raises(ComputationError):
            resample(broken, smoking_table, np.random.default_rng(0))


class TestBootstrapAssess:
    def test_deterministic_under_fixed_seed(self, opinion_one_table):
        a = bootstrap_assess(opinion_one_table, "C3", n_replicates=40, seed=42)
        b = bootstrap_assess(opinion_one_table, "C3", n_replicates=40, seed=42)
        assert a.as_dict() == b.as_dict()
        pa = bootstrap_assess(
            opinion_one_table, "C3", n_replicates=40, seed=42, mode=MODE_POISSON
        )
        pb = bootstrap_assess(
            opinion_one_table, "C3", n_replicates=40, seed=42, mode=MODE_POISSON
        )
        assert pa.as_dict() == pb.as_dict()
        assert pa.as_dict() != a.as_dict()

    def test_different_seed_different_draws(self, opinion_one_table):
        a = bootstrap_assess(opinion_one_table, "C3", n_replicates=80, seed=1)
        b = bootstrap_assess(opinion_one_table, "C3", n_replicates=80, seed=2)
        assert a.as_dict() != b.as_dict()

    @pytest.mark.parametrize("n", [60, np.int64(60)], ids=repr)
    def test_tallies_partition_replicates(self, opinion_one_table, n):
        summary = bootstrap_assess(opinion_one_table, "C3", n_replicates=n, seed=9)
        plain = bootstrap_assess(opinion_one_table, "C3", n_replicates=60, seed=9)
        assert json.loads(json.dumps(summary.as_dict())) == plain.as_dict()
        assert summary.n_replicates == 60
        assert summary.model_id == "C3"
        assert summary.mode == MODE_MULTINOMIAL
        for fam in summary.families:
            assert fam.n_counted + fam.n_excluded == 60
            assert 0 <= fam.n_mar <= fam.n_counted
        assert summary.overall_counted + summary.overall_excluded == 60

    def test_single_replicate(self, smoking_table):
        summary = bootstrap_assess(smoking_table, "M4", n_replicates=1, seed=0)
        fam = summary.family("smoking")
        assert fam.n_counted + fam.n_excluded == 1
        if fam.n_counted:
            assert fam.percent_mar in (0.0, 100.0)
        else:
            assert np.isnan(fam.percent_mar)

    def test_mean_tracks_generating_model(self, smoking_table):
        # replicates generated from the selected fit should overwhelmingly
        # reproduce the source assessment for the clearly-MAR variable
        summary = bootstrap_assess(smoking_table, "M4", n_replicates=300, seed=3)
        assert summary.family("smoking").percent_mar >= 95.0

    def test_prefit_shortcut_matches_model_name(self, smoking_table):
        prefit = fit_model("M4", smoking_table)
        via_fit = bootstrap_assess(
            smoking_table, None, n_replicates=25, seed=5, fit=prefit
        )
        via_name = bootstrap_assess(smoking_table, "M4", n_replicates=25, seed=5)
        assert via_fit.as_dict() == via_name.as_dict()

    def test_prefit_of_another_model_is_refused(self, smoking_table):
        prefit = fit_model("M5", smoking_table)
        with pytest.raises(ComputationError, match="M5"):
            bootstrap_assess(smoking_table, "M4", n_replicates=5, fit=prefit)

    def test_prefit_of_another_table_is_refused(self, smoking_table, bone_table):
        prefit = fit_model("M4", bone_table)
        with pytest.raises(ComputationError, match="complete cross"):
            bootstrap_assess(smoking_table, "M4", n_replicates=5, fit=prefit)

    def test_prefit_of_another_table_of_the_same_cross_is_refused(
        self, smoking_table
    ):
        strata = list(smoking_table.strata)
        strata[0] = Stratum(strata[0].observed, strata[0].counts + 1)
        other = IncompleteTable(smoking_table.schema, tuple(strata))
        prefit = fit_model("M4", other)
        with pytest.raises(ComputationError, match="another table"):
            bootstrap_assess(smoking_table, "M4", n_replicates=5, fit=prefit)
        with pytest.raises(ComputationError, match="another table"):
            resample(prefit, smoking_table, np.random.default_rng(0))

    def test_exclusion_reasons_cover_every_exclusion(self, opinion_two_table):
        summary = bootstrap_assess(
            opinion_two_table, "D6:Y1=NMAR,Y2=MAR(Y3)", n_replicates=200,
            seed=0,
        )
        for fam in summary.families:
            value, interval = fam.n_undefined_value, fam.n_undefined_interval
            assert max(value, interval) <= fam.n_excluded <= value + interval
            doc = fam.as_dict()
            assert doc["excluded_undefined_value"] == value
            assert doc["excluded_undefined_interval"] == interval
        assert summary.family("secession").n_undefined_value > 0

    @pytest.mark.parametrize("rows", [1, 7])
    def test_blocks_do_not_change_tallies(self, opinion_two_table, monkeypatch, rows):
        model = "D6:Y1=NMAR,Y2=MAR(Y3)"
        whole = bootstrap_assess(opinion_two_table, model, n_replicates=50, seed=3)
        plan = odds.screening_plan(opinion_two_table.schema)
        monkeypatch.setattr(odds, "_BLOCK_CELLS", rows * plan.odds_num.size)
        assert plan.block_rows == rows
        split = bootstrap_assess(opinion_two_table, model, n_replicates=50, seed=3)
        assert split == whole

    def test_timings_stay_out_of_equality(self, smoking_table):
        a = bootstrap_assess(smoking_table, "M4", n_replicates=30, seed=8)
        b = bootstrap_assess(smoking_table, "M4", n_replicates=30, seed=8)
        assert a.draw_s > 0 and a.screen_s > 0
        assert a == b
        assert "draw_s" not in a.as_dict() and "screen_s" not in a.as_dict()

    def test_errors(self, smoking_table):
        # 2.5 used to raise TypeError from range, True ran one replicate
        for n in (0, -3, 2.5, True, "5", None):
            with pytest.raises(ComputationError, match="n_replicates"):
                bootstrap_assess(smoking_table, "M4", n_replicates=n, seed=1)
        with pytest.raises(ComputationError):
            bootstrap_assess(
                smoking_table, "M4", n_replicates=5, seed=1, mode="jackknife"
            )

    @pytest.mark.parametrize(
        "seed",
        [True, "12", 1.5, -1, [1, -2], [[1, 2]], [True], ["3"], {1: 2},
         np.array(5), np.array([3, 4]), np.array([1.0])],
        ids=repr,
    )
    def test_bad_seed_is_refused_before_the_fit(
        self, smoking_table, monkeypatch, seed
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the table was fitted")

        monkeypatch.setattr(bootstrap, "fit_model", refuse)
        with pytest.raises(ComputationError, match="bad seed"):
            bootstrap_assess(smoking_table, "M4", n_replicates=5, seed=seed)

    def test_bad_mode_is_refused_before_the_fit(self, smoking_table, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the table was fitted")

        monkeypatch.setattr(bootstrap, "fit_model", refuse)
        with pytest.raises(ComputationError, match="jackknife"):
            bootstrap_assess(
                smoking_table, "M4", n_replicates=5, seed=1, mode="jackknife"
            )

    @pytest.mark.parametrize(
        "seed, same",
        [(np.uint8(7), 7), (np.int64(7), 7), ((3, 2**40), [3, 2**40]),
         (range(3), [0, 1, 2]), ([], [])],
        ids=repr,
    )
    def test_accepted_seeds(self, smoking_table, seed, same):
        a = bootstrap_assess(smoking_table, "M4", n_replicates=6, seed=seed)
        b = bootstrap_assess(smoking_table, "M4", n_replicates=6, seed=same)
        assert a == dataclasses.replace(b, seed=seed)

    def test_table_over_the_plan_budget_is_not_fitted(self, monkeypatch):
        # a schema no other test screens, so its plan is not cached
        schema = TableSchema((("boot", 2), ("strap", 2)), ("boot", "strap"))
        table = IncompleteTable(schema, (
            Stratum(("boot", "strap"), [[5, 6], [7, 8]]),
            Stratum(("strap",), [3, 4]),
            Stratum(("boot",), [2, 9]),
            Stratum((), 4),
        ))

        def refuse(*args, **kwargs):
            raise AssertionError("the table was fitted")

        monkeypatch.setattr(odds, "PLAN_ENTRY_BUDGET", 3)
        monkeypatch.setattr(bootstrap, "fit_model", refuse)
        with pytest.raises(TableError, match="over the budget"):
            bootstrap_assess(table, "M1", n_replicates=5, seed=1)

    def test_negative_seed(self, smoking_table):
        with pytest.raises(ComputationError, match="bad seed -1"):
            bootstrap_assess(smoking_table, "M5", n_replicates=5, seed=-1)

    def test_family_lookup(self, smoking_table):
        summary = bootstrap_assess(smoking_table, "M4", n_replicates=5, seed=1)
        assert summary.family("smoking").variable == "smoking"
        with pytest.raises(KeyError):
            summary.family("nope")


class TestBlockSeeds:
    """Replicate i of a bootstrap draws what resample draws from
    default_rng(SeedSequence(seed).spawn(n)[i])."""

    @staticmethod
    def _recorded_draws(monkeypatch):
        draws = []
        sampler = bootstrap._sampler

        def recording(*args):
            draw = sampler(*args)
            return lambda rng: draws.append(draw(rng)) or draws[-1]

        monkeypatch.setattr(bootstrap, "_sampler", recording)
        return draws

    @pytest.mark.parametrize("mode", [MODE_MULTINOMIAL, MODE_POISSON])
    @pytest.mark.parametrize("seed", [2**64 + 12345, [7, 2**40, 0]], ids=repr)
    def test_blocks_draw_the_resample_streams(
        self, opinion_two_table, monkeypatch, mode, seed
    ):
        model, n = "D6:Y1=NMAR,Y2=MAR(Y3)", 50
        plan = odds.screening_plan(opinion_two_table.schema)
        monkeypatch.setattr(odds, "_BLOCK_CELLS", 16 * plan.odds_num.size)
        assert -(-n // plan.block_rows) >= 3
        draws = self._recorded_draws(monkeypatch)
        fit = fit_model(model, opinion_two_table)
        bootstrap_assess(
            opinion_two_table, model, n_replicates=n, seed=seed, mode=mode,
            fit=fit,
        )
        children = np.random.SeedSequence(seed).spawn(n)
        assert len(draws) == n
        for draw, child in zip(draws, children):
            rep = resample(
                fit, opinion_two_table, np.random.default_rng(child), mode=mode
            )
            np.testing.assert_array_equal(draw, observed_counts(rep))

    @pytest.mark.parametrize("row", [0, -1])
    def test_a_wrong_derivation_is_refused(
        self, smoking_table, monkeypatch, row
    ):
        derive = bootstrap._child_seeds

        def corrupted(*args):
            seeds = derive(*args)
            seeds[row, 2] ^= np.uint64(1)
            return seeds

        monkeypatch.setattr(bootstrap, "_child_seeds", corrupted)
        draws = self._recorded_draws(monkeypatch)
        with pytest.raises(ComputationError, match="SeedSequence"):
            bootstrap_assess(smoking_table, "M4", n_replicates=20, seed=4)
        assert draws == []
