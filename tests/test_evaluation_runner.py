"""Tests for repro.evaluation.runner (the Figure-3 accuracy experiment)."""

from __future__ import annotations

import math

import pytest

from repro.baselines.exact import ExactSimilarityTracker
from repro.evaluation.metrics import (
    average_absolute_percentage_error,
    average_root_mean_square_error,
)
from repro.evaluation.runner import AccuracyExperiment, ExperimentConfig
from repro.exceptions import ConfigurationError
from repro.streams.generators import PowerLawBipartiteGenerator
from repro.streams.stream import build_dynamic_stream


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(
        methods=("MinHash", "OPH", "RP", "VOS"),
        baseline_registers=16,
        top_users=25,
        max_pairs=60,
        num_checkpoints=3,
        seed=1,
    )


@pytest.fixture(scope="module")
def experiment_result(small_config):
    generator = PowerLawBipartiteGenerator(
        num_users=60, num_items=250, num_edges=3500, seed=5
    )
    from repro.streams.deletions import MassiveDeletionModel

    stream = build_dynamic_stream(
        generator.generate_edges(),
        MassiveDeletionModel(period=900, deletion_probability=0.5, seed=6),
        name="runner-test",
    )
    return AccuracyExperiment(small_config).run(stream)


class TestExperimentConfig:
    def test_defaults_match_paper(self):
        config = ExperimentConfig()
        assert config.baseline_registers == 100
        assert config.register_bits == 32
        assert config.vos_size_multiplier == 2.0
        assert set(config.methods) == {"MinHash", "OPH", "RP", "VOS"}

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(methods=())
        with pytest.raises(ConfigurationError):
            ExperimentConfig(baseline_registers=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_checkpoints=0)


class TestAccuracyExperiment:
    def test_all_methods_reported(self, experiment_result, small_config):
        assert set(experiment_result.methods()) == set(small_config.methods)

    def test_checkpoint_count(self, experiment_result, small_config):
        for method in experiment_result.methods():
            assert 1 <= len(experiment_result.checkpoints[method]) <= small_config.num_checkpoints

    def test_checkpoints_are_time_ordered(self, experiment_result):
        for method in experiment_result.methods():
            times = [point.time for point in experiment_result.checkpoints[method]]
            assert times == sorted(times)

    def test_metrics_are_finite_and_nonnegative(self, experiment_result):
        for method in experiment_result.methods():
            for point in experiment_result.checkpoints[method]:
                assert point.aape >= 0 or math.isnan(point.aape)
                assert point.armse >= 0
                assert point.tracked_pairs > 0

    def test_vos_checkpoints_record_beta(self, experiment_result):
        for point in experiment_result.checkpoints["VOS"]:
            assert point.beta is not None
            assert 0.0 <= point.beta < 0.5

    def test_baseline_checkpoints_have_no_beta(self, experiment_result):
        for point in experiment_result.checkpoints["OPH"]:
            assert point.beta is None

    def test_exact_method_has_zero_error(self):
        generator = PowerLawBipartiteGenerator(
            num_users=30, num_items=100, num_edges=900, seed=9
        )
        stream = build_dynamic_stream(generator.generate_edges(), None, name="exact-check")
        config = ExperimentConfig(
            methods=("Exact",), baseline_registers=8, top_users=15,
            max_pairs=30, num_checkpoints=2, seed=2,
        )
        result = AccuracyExperiment(config).run(stream)
        final = result.final_checkpoint("Exact")
        assert final.aape == pytest.approx(0.0)
        assert final.armse == pytest.approx(0.0)

    def test_select_pairs_share_common_items(self, small_config):
        generator = PowerLawBipartiteGenerator(
            num_users=40, num_items=150, num_edges=1500, seed=11
        )
        stream = build_dynamic_stream(generator.generate_edges(), None, name="pairs")
        experiment = AccuracyExperiment(small_config)
        pairs = experiment.select_pairs(stream)
        sets = stream.item_sets_at(None)
        assert pairs
        for user_a, user_b in pairs:
            assert len(sets[user_a] & sets[user_b]) >= small_config.min_common_items

    def test_build_sketches_have_equal_budgets(self, small_config):
        experiment = AccuracyExperiment(small_config)
        sketches = experiment.build_sketches(num_users=50)
        assert set(sketches) == set(small_config.methods)
        budget_bits = 32 * small_config.baseline_registers * 50
        assert sketches["VOS"].memory_bits() == budget_bits

    def test_raises_when_no_pairs_qualify(self):
        stream = build_dynamic_stream([(1, 1), (2, 2)], None, name="no-overlap")
        config = ExperimentConfig(baseline_registers=4, top_users=2, num_checkpoints=1)
        with pytest.raises(ConfigurationError):
            AccuracyExperiment(config).run(stream)


class TestShardCountWiring:
    """ExperimentConfig.shard_counts adds VOS-sharded-N methods to the harness."""

    def _stream(self):
        generator = PowerLawBipartiteGenerator(
            num_users=40, num_items=150, num_edges=1800, seed=13
        )
        return build_dynamic_stream(generator.generate_edges(), None, name="shards")

    def test_sharded_methods_are_built_under_same_budget(self):
        config = ExperimentConfig(
            methods=("VOS",), shard_counts=(2, 4), baseline_registers=8,
            top_users=15, max_pairs=30, num_checkpoints=2, seed=3,
        )
        sketches = AccuracyExperiment(config).build_sketches(num_users=40)
        assert set(sketches) == {"VOS", "VOS-sharded-2", "VOS-sharded-4"}
        # Each shard holds ceil(m / N) bits, so totals match up to rounding.
        total = sketches["VOS"].memory_bits()
        for count in (2, 4):
            sharded = sketches[f"VOS-sharded-{count}"]
            assert total <= sharded.memory_bits() < total + count

    def test_sharded_checkpoints_record_beta(self):
        config = ExperimentConfig(
            methods=("VOS",), shard_counts=(1, 4), baseline_registers=8,
            top_users=15, max_pairs=30, num_checkpoints=2, seed=3,
        )
        result = AccuracyExperiment(config).run(self._stream())
        for name in ("VOS", "VOS-sharded-1", "VOS-sharded-4"):
            assert result.checkpoints[name], name
            assert result.final_checkpoint(name).beta is not None

    def test_single_shard_matches_plain_vos_exactly(self):
        config = ExperimentConfig(
            methods=("VOS",), shard_counts=(1,), baseline_registers=8,
            top_users=15, max_pairs=30, num_checkpoints=2, seed=3,
        )
        result = AccuracyExperiment(config).run(self._stream())
        plain = result.final_checkpoint("VOS")
        sharded = result.final_checkpoint("VOS-sharded-1")
        assert sharded.aape == plain.aape
        assert sharded.armse == plain.armse

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(shard_counts=(2, 0))


class TestBulkScoring:
    """Checkpoints are scored with one bulk call per sketch; the metrics must
    equal the ones the scalar per-pair estimators give, exactly."""

    def test_metrics_equal_a_scalar_loop(self):
        generator = PowerLawBipartiteGenerator(
            num_users=40, num_items=150, num_edges=1800, seed=13
        )
        from repro.streams.deletions import MassiveDeletionModel

        stream = build_dynamic_stream(
            generator.generate_edges(),
            MassiveDeletionModel(period=500, deletion_probability=0.4, seed=14),
            name="bulk-vs-scalar",
        )
        config = ExperimentConfig(
            methods=("MinHash", "VOS"), shard_counts=(2,), baseline_registers=8,
            top_users=15, max_pairs=40, num_checkpoints=3, seed=4,
        )
        experiment = AccuracyExperiment(config)
        result = experiment.run(stream)

        pairs = experiment.select_pairs(stream)
        sketches = experiment.build_sketches(len(stream.users()))
        exact = ExactSimilarityTracker()
        checkpoints = set(stream.checkpoints(config.num_checkpoints))
        expected: dict[str, list[tuple[float, float]]] = {name: [] for name in sketches}
        for position, element in enumerate(stream, start=1):
            exact.process(element)
            for sketch in sketches.values():
                sketch.process(element)
            if position not in checkpoints:
                continue
            for name, sketch in sketches.items():
                rows = [
                    (
                        exact.estimate_common_items(a, b),
                        sketch.estimate_common_items(a, b),
                        exact.estimate_jaccard(a, b),
                        sketch.estimate_jaccard(a, b),
                    )
                    for a, b in pairs
                    if exact.has_user(a) and exact.has_user(b)
                    and sketch.has_user(a) and sketch.has_user(b)
                ]
                if rows:
                    true_c, est_c, true_j, est_j = (list(column) for column in zip(*rows))
                    expected[name].append(
                        (
                            average_absolute_percentage_error(true_c, est_c),
                            average_root_mean_square_error(true_j, est_j),
                        )
                    )
        for name in ("MinHash", "VOS", "VOS-sharded-2"):
            recorded = [(point.aape, point.armse) for point in result.checkpoints[name]]
            assert expected[name], name
            assert recorded == expected[name], name
