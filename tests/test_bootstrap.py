"""Parametric bootstrap: reproducibility, tallies, and generators."""

import dataclasses

import numpy as np
import pytest

from misstab import (
    ComputationError,
    bootstrap_assess,
    fit_model,
    resample,
)
from misstab import odds
from misstab.bootstrap import MODE_MULTINOMIAL, MODE_POISSON


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

    def test_tallies_partition_replicates(self, opinion_one_table):
        summary = bootstrap_assess(opinion_one_table, "C3", n_replicates=60, seed=9)
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
        with pytest.raises(ComputationError):
            bootstrap_assess(smoking_table, "M4", n_replicates=0, seed=1)
        with pytest.raises(ComputationError):
            bootstrap_assess(
                smoking_table, "M4", n_replicates=5, seed=1, mode="jackknife"
            )

    def test_family_lookup(self, smoking_table):
        summary = bootstrap_assess(smoking_table, "M4", n_replicates=5, seed=1)
        assert summary.family("smoking").variable == "smoking"
        with pytest.raises(KeyError):
            summary.family("nope")
