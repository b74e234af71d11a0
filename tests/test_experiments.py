"""Tests for the experiment harness: scales, datasets, figures, tables."""

import numpy as np
import pytest

from repro.experiments import (
    FIGURE1_PASSES,
    PRESETS,
    Scale,
    figure1,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    headline,
    iterations_to_match,
    preset,
    run_crossval,
    table1,
    table2,
)
from repro.experiments.dataset import experiment_store, load_or_build
from repro.store import ExperimentStore


class TestScales:
    def test_presets_exist(self):
        assert set(PRESETS) == {"paper", "default", "quick", "tiny"}

    def test_paper_scale_matches_protocol(self):
        paper = preset("paper")
        assert len(paper.programs) == 35
        assert paper.n_machines == 200
        assert paper.n_settings == 1000

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset("huge")

    def test_unknown_program_rejected(self):
        with pytest.raises(ValueError):
            Scale(name="x", programs=("ghost",), n_machines=4, n_settings=4)

    def test_fingerprint_changes_with_scale(self):
        tiny = preset("tiny")
        other = Scale(
            name="tiny2",
            programs=tiny.programs,
            n_machines=tiny.n_machines + 1,
            n_settings=tiny.n_settings,
        )
        assert tiny.fingerprint() != other.fingerprint()

    def test_extended_variant(self):
        extended = preset("tiny").with_extended()
        assert extended.extended
        assert extended.name == "tiny-ext"
        assert extended.fingerprint() != preset("tiny").fingerprint()


class TestDataset:
    def test_memory_cache_returns_same_object(self, tiny_data):
        again = load_or_build(tiny_data.scale, use_disk_cache=False)
        assert again is tiny_data

    def test_disk_roundtrip(self, tiny_data, tmp_path):
        store = experiment_store(tiny_data.scale, tmp_path)
        store.adopt(tiny_data.training)
        loaded = ExperimentStore(store.grid, root=store.root).assemble()
        assert loaded.program_names == tiny_data.training.program_names
        assert loaded.machines == tiny_data.training.machines
        assert loaded.settings == tiny_data.training.settings
        assert np.allclose(loaded.runtimes, tiny_data.training.runtimes)
        assert np.allclose(loaded.counters, tiny_data.training.counters)


class TestStaticExperiments:
    def test_table2_exact_paper_numbers(self):
        result = table2()
        assert result.base_size == 288_000
        assert result.extended_size == 2_880_000
        assert result.xscale["il1_size"] == 32768
        assert "288,000" in result.render()

    def test_figure3_space_accounting(self):
        result = figure3()
        assert result.dimensions == 39
        assert result.booleans == 30
        assert result.raw_boolean_size == 2**30
        assert result.distinct_size < result.raw_size
        assert "1.69e17" in result.render()


class TestDataExperiments:
    def test_table1_eleven_counters(self, tiny_data):
        result = table1(tiny_data)
        assert len(result.counters) == 11
        assert all(name in result.render() for name in result.counters)

    def test_figure4_statistics_ordered(self, tiny_data):
        result = figure4(tiny_data)
        assert np.all(result.minimum <= result.median)
        assert np.all(result.median <= result.maximum)
        assert np.all(result.q25 <= result.q75)
        assert result.overall_mean > 1.0

    def test_figure4_rows_render(self, tiny_data):
        result = figure4(tiny_data)
        assert len(result.rows()) == len(tiny_data.training.program_names)
        assert "AVERAGE" in result.render()

    def test_crossval_cached_per_scale(self, tiny_data):
        assert run_crossval(tiny_data) is run_crossval(tiny_data)

    def test_figure5_surfaces(self, tiny_data):
        result = figure5(tiny_data)
        P = len(tiny_data.training.program_names)
        M = len(tiny_data.training.machines)
        assert result.best.shape == (P, M)
        assert result.predicted.shape == (P, M)
        assert np.all(result.best > 0)
        assert -1.0 <= result.correlation <= 1.0
        assert result.peak_best >= result.best.mean()

    def test_figure6_model_below_best_on_average(self, tiny_data):
        result = figure6(tiny_data)
        assert result.mean_model <= result.mean_best + 0.05

    def test_figure7_sorted_by_best(self, tiny_data):
        result = figure7(tiny_data)
        assert np.all(np.diff(result.best) >= -1e-12)
        regions = result.regions()
        assert set(regions) == {"low-headroom", "middle", "high-headroom"}
        assert regions["high-headroom"][1] >= regions["middle"][1]

    def test_figure8_hinton(self, tiny_data):
        result = figure8(tiny_data)
        assert result.matrix.shape == (
            39,
            len(tiny_data.training.program_names),
        )
        assert result.top_cells(5)
        assert "Figure 8" in result.render()

    def test_figure9_hinton(self, tiny_data):
        result = figure9(tiny_data)
        assert result.matrix.shape == (39, 19)
        assert "Figure 9" in result.render()

    def test_figure1_segments(self, tiny_data):
        result = figure1(tiny_data)
        # rijndael_e is in the tiny scale; three machines per program.
        rijndael_rows = [
            key for key in result.segments if key[0] == "rijndael_e"
        ]
        assert len(rijndael_rows) == 3
        for passes in result.segments.values():
            assert set(passes) == set(FIGURE1_PASSES)
        assert "rijndael_e" in result.render()

    def test_headline_consistency(self, tiny_data):
        result = headline(tiny_data)
        assert result.mean_best_speedup >= result.mean_model_speedup - 0.05
        assert result.best_case_available >= result.best_case_model - 1e-9
        assert result.worst_setting_min <= result.worst_setting_mean
        assert "1.16" in result.render()  # paper reference value shown

    def test_iterations_to_match(self, tiny_data):
        result = iterations_to_match(tiny_data)
        assert len(result.programs) == len(tiny_data.training.program_names)
        assert np.all(result.mean_evaluations >= 1)
        assert np.all(result.mean_evaluations <= result.budget)
        assert 0 <= result.overall_mean <= result.budget
        assert "AVERAGE" in result.render()


class TestAblations:
    def test_knn_sweep_rows(self, tiny_data):
        from repro.experiments import knn_k_sweep

        result = knn_k_sweep(tiny_data, ks=(1, 7))
        assert [row.label.startswith("K = ") for row in result.rows] == [True, True]
        assert any("(paper)" in row.label for row in result.rows)
        assert "Ablation" in result.render()

    def test_beta_sweep_rows(self, tiny_data):
        from repro.experiments import beta_sweep

        result = beta_sweep(tiny_data, betas=(1.0, 16.0))
        assert len(result.rows) == 2
        assert any("(paper)" in row.label for row in result.rows)

    def test_feature_mode_sweep_includes_code_features(self, tiny_data):
        from repro.experiments import feature_mode_sweep

        result = feature_mode_sweep(tiny_data)
        labels = [row.label for row in result.rows]
        assert any(label.startswith("with_code") for label in labels)
        assert any(label.startswith("both") for label in labels)

    def test_joint_vote_predictor_direct(self, tiny_data):
        from repro.experiments import JointVotePredictor
        from repro.sim.counters import PerfCounters

        predictor = JointVotePredictor().fit(tiny_data.training)
        counters = PerfCounters(*tiny_data.training.counters[0, 0, :])
        setting = predictor.predict(counters, tiny_data.machines[0])
        # The vote returns an observed good setting of some neighbour.
        all_good = set()
        for p in range(len(tiny_data.training.program_names)):
            for m in range(len(tiny_data.training.machines)):
                all_good.update(tiny_data.training.good_settings(p, m))
        assert setting in all_good

    def test_iid_vs_joint_shapes(self, tiny_data):
        from repro.experiments import iid_vs_joint

        result = iid_vs_joint(tiny_data)
        assert {row.label.split()[0] for row in result.rows} == {"IID", "joint"}
