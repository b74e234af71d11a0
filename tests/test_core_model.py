"""Tests for the ML core: features, distributions, predictor."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.flags import DEFAULT_SPACE, FlagSetting, o3_setting
from repro.core.distribution import IIDDistribution, good_settings_by_runtime
from repro.core.features import (
    FeatureNormaliser,
    feature_mask,
    feature_names,
    feature_vector,
    split_feature_vector,
)
from repro.core.predictor import OptimisationPredictor, reference_neighbours
from repro.machine.xscale import xscale
from repro.sim.counters import COUNTER_NAMES, PerfCounters


def _counters(ipc: float = 0.8, icache_miss: float = 0.01) -> PerfCounters:
    return PerfCounters(
        ipc=ipc,
        dec_acc_rate=ipc * 1.05,
        reg_acc_rate=1.5,
        bpred_acc_rate=0.1,
        icache_acc_rate=ipc * 1.05,
        icache_miss_rate=icache_miss,
        dcache_acc_rate=0.2,
        dcache_miss_rate=0.05,
        alu_usage=0.6,
        mac_usage=0.1,
        shift_usage=0.1,
    )


class TestFeatures:
    def test_names_descriptors_first(self):
        names = feature_names()
        assert names[:8] == (
            "btb_size",
            "btb_assoc",
            "i_size",
            "i_assoc",
            "i_block",
            "d_size",
            "d_assoc",
            "d_block",
        )
        assert names[8:] == COUNTER_NAMES

    def test_extended_names(self):
        names = feature_names(extended=True)
        assert "frequency" in names and "issue_width" in names
        assert len(names) == 10 + 11

    def test_vector_concatenation(self):
        vector = feature_vector(_counters(), xscale())
        assert len(vector) == 19
        descriptors, counters = split_feature_vector(vector)
        assert len(descriptors) == 8
        assert counters[0] == pytest.approx(0.8)  # ipc

    def test_counter_validation(self):
        with pytest.raises(ValueError):
            PerfCounters(
                ipc=1.0,
                dec_acc_rate=1.0,
                reg_acc_rate=1.0,
                bpred_acc_rate=0.1,
                icache_acc_rate=1.0,
                icache_miss_rate=1.7,  # invalid
                dcache_acc_rate=0.2,
                dcache_miss_rate=0.0,
                alu_usage=0.5,
                mac_usage=0.1,
                shift_usage=0.1,
            )

    def test_normaliser_zero_mean_unit_std(self):
        matrix = np.random.default_rng(0).normal(5.0, 3.0, size=(50, 4))
        normaliser = FeatureNormaliser.fit(matrix)
        transformed = normaliser.transform(matrix)
        assert np.allclose(transformed.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(transformed.std(axis=0), 1.0, atol=1e-9)

    def test_normaliser_constant_column_safe(self):
        matrix = np.ones((10, 2))
        normaliser = FeatureNormaliser.fit(matrix)
        assert np.all(np.isfinite(normaliser.transform(matrix)))

    def test_normaliser_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureNormaliser.fit(np.empty((0, 3)))

    def test_masks(self):
        assert feature_mask("both").sum() == 19
        assert feature_mask("descriptors").sum() == 8
        assert feature_mask("counters").sum() == 11
        with pytest.raises(ValueError):
            feature_mask("bogus")


class TestIIDDistribution:
    def test_fit_is_counting_estimator(self):
        settings_list = [
            o3_setting(),
            o3_setting(),
            o3_setting().with_values(fgcse=False),
        ]
        distribution = IIDDistribution.fit(settings_list)
        gcse_dim = DEFAULT_SPACE.names.index("fgcse")
        theta = distribution.theta[gcse_dim]
        assert theta[0] == pytest.approx(1 / 3)  # False
        assert theta[1] == pytest.approx(2 / 3)  # True

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            IIDDistribution.fit([])

    def test_mode_majority(self):
        settings_list = [o3_setting()] * 3 + [
            o3_setting().with_values(funroll_loops=True)
        ]
        assert IIDDistribution.fit(settings_list).mode() == o3_setting()

    def test_mode_of_single_setting_is_that_setting(self):
        setting = DEFAULT_SPACE.sample_many(1, seed=9)[0]
        assert IIDDistribution.fit([setting]).mode() == setting

    def test_log_prob_factorises(self):
        settings_list = DEFAULT_SPACE.sample_many(40, seed=3)
        distribution = IIDDistribution.fit(settings_list, smoothing=0.5)
        setting = settings_list[0]
        manual = sum(
            math.log(distribution.theta[dim][index])
            for dim, index in enumerate(setting.as_indices())
        )
        assert distribution.log_prob(setting) == pytest.approx(manual)

    def test_log_prob_zero_probability(self):
        distribution = IIDDistribution.fit([o3_setting()])
        other = o3_setting().with_values(funroll_loops=True)
        assert distribution.log_prob(other) == -math.inf

    def test_mix_convex_combination(self):
        a = IIDDistribution.fit([o3_setting()])
        b = IIDDistribution.fit([o3_setting().with_values(fgcse=False)])
        mixed = IIDDistribution.mix([a, b], [0.75, 0.25])
        gcse_dim = DEFAULT_SPACE.names.index("fgcse")
        assert mixed.theta[gcse_dim][1] == pytest.approx(0.75)

    def test_mix_normalises_weights(self):
        a = IIDDistribution.fit([o3_setting()])
        mixed = IIDDistribution.mix([a, a], [2.0, 6.0])
        for theta in mixed.theta:
            assert theta.sum() == pytest.approx(1.0)

    def test_mix_rejects_mismatched(self):
        a = IIDDistribution.fit([o3_setting()])
        with pytest.raises(ValueError):
            IIDDistribution.mix([a], [0.5, 0.5])

    def test_sample_respects_support(self):
        distribution = IIDDistribution.fit([o3_setting()])
        rng = random.Random(0)
        assert distribution.sample(rng) == o3_setting()

    def test_marginal_lookup(self):
        distribution = IIDDistribution.fit([o3_setting()])
        marginal = distribution.marginal("funroll_loops")
        assert marginal[0] == pytest.approx(1.0)

    def test_cross_entropy_minimised_by_own_empirical(self):
        data = DEFAULT_SPACE.sample_many(30, seed=5)
        fitted = IIDDistribution.fit(data, smoothing=0.1)
        other = IIDDistribution.fit(DEFAULT_SPACE.sample_many(30, seed=6), smoothing=0.1)
        assert fitted.cross_entropy(data) <= other.cross_entropy(data) + 1e-9

    def test_kl_nonnegative(self):
        data = DEFAULT_SPACE.sample_many(30, seed=7)
        fitted = IIDDistribution.fit(data, smoothing=0.1)
        assert fitted.kl_from_empirical(data) >= -1e-9

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_theta_always_normalised(self, seed):
        data = DEFAULT_SPACE.sample_many(10, seed=seed)
        distribution = IIDDistribution.fit(data)
        for theta in distribution.theta:
            assert theta.sum() == pytest.approx(1.0)
            assert np.all(theta >= 0.0)


class TestGoodSettings:
    def test_top_quantile_by_runtime(self):
        settings_list = DEFAULT_SPACE.sample_many(100, seed=1)
        runtimes = np.linspace(1.0, 2.0, 100)
        good = good_settings_by_runtime(settings_list, runtimes, quantile=0.05)
        assert good == settings_list[:5]

    def test_at_least_one(self):
        settings_list = DEFAULT_SPACE.sample_many(3, seed=1)
        good = good_settings_by_runtime(settings_list, np.array([3.0, 1.0, 2.0]), 0.05)
        assert good == [settings_list[1]]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            good_settings_by_runtime([o3_setting()], np.array([1.0, 2.0]))

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            good_settings_by_runtime([o3_setting()], np.array([1.0]), quantile=0.0)

    @pytest.mark.parametrize(
        ("size", "expected"),
        [(10, 1), (30, 2), (50, 3), (70, 4), (90, 5), (110, 6)],
    )
    def test_half_up_rounding_at_boundaries(self, size, expected):
        """n * 0.05 lands exactly on .5 for these sizes: the cut must round
        half up, monotonically in n.  Banker's rounding kept 2 of 50 but 4
        of 70 — this is the regression test for that bug."""
        settings_list = DEFAULT_SPACE.sample_many(size, seed=2)
        runtimes = np.linspace(1.0, 2.0, size)
        good = good_settings_by_runtime(settings_list, runtimes, quantile=0.05)
        assert good == settings_list[:expected]

    def test_paper_grid_cut_is_unchanged(self):
        """400 × 0.05 = 20 exactly — no .5 tie, so the paper-default grid
        (and every golden fingerprint fitted from it) is unaffected by the
        half-up tie rule."""
        settings_list = DEFAULT_SPACE.sample_many(400, seed=3)
        runtimes = np.linspace(1.0, 2.0, 400)
        good = good_settings_by_runtime(settings_list, runtimes, quantile=0.05)
        assert len(good) == 20
        assert good == settings_list[:20]

    def test_preset_scales_unaffected_by_tie_rule(self):
        """None of the preset grids lands on a .5 boundary at the default
        quantile, so the rounding fix cannot move any cached dataset or
        golden fingerprint."""
        from repro.core.predictor import DEFAULT_QUANTILE
        from repro.experiments.config import PRESETS

        for scale in PRESETS.values():
            n = scale.n_settings
            half_up = max(1, math.floor(n * DEFAULT_QUANTILE + 0.5))
            bankers = max(1, int(round(n * DEFAULT_QUANTILE)))
            assert half_up == bankers, scale.name


class TestPredictor:
    def test_unfitted_predict_raises(self):
        predictor = OptimisationPredictor()
        with pytest.raises(RuntimeError):
            predictor.predict(_counters(), xscale())

    def test_unfitted_neighbours_raises_cleanly(self):
        """Regression: neighbours() used to skip the is_fitted guard and
        die with AttributeError on the missing normaliser."""
        predictor = OptimisationPredictor()
        with pytest.raises(RuntimeError, match="not fitted"):
            predictor.neighbours(_counters(), xscale())
        with pytest.raises(RuntimeError, match="not fitted"):
            reference_neighbours(predictor, _counters(), xscale())

    def test_neighbours_exhausted_candidates_raise(self, tiny_data):
        """Regression: neighbours() used to return [] silently where
        predict_distribution raises when exclusions empty the candidates."""
        training = tiny_data.training
        predictor = OptimisationPredictor(extended=training.extended).fit(
            training
        )
        only = training.program_names[0]
        predictor._pairs = [
            pair for pair in predictor._pairs if pair.program == only
        ]
        predictor._refresh_tensors()
        counters = PerfCounters(*training.counters[0, 0, :])
        with pytest.raises(RuntimeError, match="no training pairs"):
            predictor.neighbours(
                counters, tiny_data.machines[0], exclude_program=only
            )
        with pytest.raises(RuntimeError, match="no training pairs"):
            reference_neighbours(
                predictor, counters, tiny_data.machines[0], exclude_program=only
            )

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            OptimisationPredictor(k=0)

    def test_fit_predict_roundtrip(self, tiny_data):
        predictor = OptimisationPredictor().fit(tiny_data.training)
        counters = PerfCounters(*tiny_data.training.counters[0, 0, :])
        setting = predictor.predict(counters, tiny_data.machines[0])
        assert isinstance(setting, FlagSetting)

    def test_prediction_deterministic(self, tiny_data):
        predictor = OptimisationPredictor().fit(tiny_data.training)
        counters = PerfCounters(*tiny_data.training.counters[1, 2, :])
        machine = tiny_data.machines[2]
        assert predictor.predict(counters, machine) == predictor.predict(
            counters, machine
        )

    def test_exclusions_remove_pairs(self, tiny_data):
        predictor = OptimisationPredictor().fit(tiny_data.training)
        counters = PerfCounters(*tiny_data.training.counters[0, 0, :])
        program = tiny_data.training.program_names[0]
        machine = tiny_data.machines[0]
        neighbours = predictor.neighbours(
            counters, machine, exclude_program=program, exclude_machine=machine
        )
        assert all(name != program for name, _, _ in neighbours)
        assert all(mach != machine for _, mach, _ in neighbours)

    def test_k_limits_neighbours(self, tiny_data):
        predictor = OptimisationPredictor(k=3).fit(tiny_data.training)
        counters = PerfCounters(*tiny_data.training.counters[0, 0, :])
        assert len(predictor.neighbours(counters, tiny_data.machines[0])) == 3

    def test_k1_returns_nearest_pair_mode(self, tiny_data):
        predictor = OptimisationPredictor(k=1).fit(tiny_data.training)
        counters = PerfCounters(*tiny_data.training.counters[2, 3, :])
        machine = tiny_data.machines[3]
        (name, mach, _), = predictor.neighbours(counters, machine)
        p = tiny_data.training.program_index(name)
        m = tiny_data.training.machine_index(mach)
        expected = tiny_data.training.pair_distribution(p, m).mode()
        assert predictor.predict(counters, machine) == expected

    def test_self_query_finds_itself_without_exclusion(self, tiny_data):
        predictor = OptimisationPredictor(k=1).fit(tiny_data.training)
        counters = PerfCounters(*tiny_data.training.counters[1, 1, :])
        machine = tiny_data.machines[1]
        (name, mach, distance), = predictor.neighbours(counters, machine)
        assert name == tiny_data.training.program_names[1]
        assert mach == machine
        assert distance == pytest.approx(0.0, abs=1e-9)

    def test_feature_mode_counters_only(self, tiny_data):
        predictor = OptimisationPredictor(feature_mode="counters").fit(
            tiny_data.training
        )
        counters = PerfCounters(*tiny_data.training.counters[0, 1, :])
        setting = predictor.predict(counters, tiny_data.machines[1])
        assert isinstance(setting, FlagSetting)

    def test_beta_weighting_changes_mixture(self, tiny_data):
        sharp = OptimisationPredictor(beta=50.0).fit(tiny_data.training)
        counters = PerfCounters(*tiny_data.training.counters[2, 2, :])
        machine = tiny_data.machines[2]
        distribution = sharp.predict_distribution(
            counters, machine, exclude_program=None, exclude_machine=None
        )
        # With huge beta the mixture collapses onto the self pair.
        p = tiny_data.training.program_index(tiny_data.training.program_names[2])
        m = tiny_data.training.machine_index(machine)
        expected = tiny_data.training.pair_distribution(p, m)
        for dim in range(len(DEFAULT_SPACE)):
            assert np.allclose(
                distribution.theta[dim], expected.theta[dim], atol=0.05
            )
