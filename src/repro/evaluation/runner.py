"""The accuracy experiment runner (Figure 3 of the paper).

The experiment protocol, faithful to Section V:

1. Build every method under the *same* memory budget ``m = 32·k·|U|`` bits
   (``k = 100`` in the paper's accuracy plots); VOS receives the same total
   bits for its shared array and a virtual sketch of ``λ·32·k`` bits per user.
2. Select the user pairs to track: the highest-cardinality users of the graph,
   restricted to pairs with at least one common item.  The selection is made
   on the stream's insertion-only item sets so the tracked pairs are the same
   for every method and every checkpoint.
3. Replay the fully dynamic stream through all sketches simultaneously and, at
   evenly spaced checkpoints, record every method's common-item and Jaccard
   estimates for all tracked pairs along with the exact values.
4. Reduce to AAPE / ARMSE time series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import SimilaritySketch, dedup_pair_users
from repro.baselines.exact import ExactSimilarityTracker
from repro.core.memory import MemoryBudget
from repro.core.vos import VirtualOddSketch
from repro.evaluation.metrics import (
    average_absolute_percentage_error,
    average_root_mean_square_error,
)
from repro.evaluation.results import AccuracyCheckpoint, AccuracyResult
from repro.exceptions import ConfigurationError
from repro.similarity.engine import build_sketch
from repro.similarity.pairs import select_evaluation_pairs
from repro.streams.edge import UserId
from repro.streams.stream import GraphStream


@dataclass
class ExperimentConfig:
    """Configuration of one accuracy experiment.

    Attributes
    ----------
    methods:
        Method names to compare (must exist in the sketch registry).
    baseline_registers:
        ``k`` — registers per user for the baselines (100 in the paper).
    register_bits:
        Register width in bits (32 in the paper).
    vos_size_multiplier:
        The paper's λ (2 by default).
    top_users:
        Number of highest-cardinality users used to form tracked pairs.
    min_common_items:
        Minimum number of shared items a tracked pair must have.
    max_pairs:
        Cap on tracked pairs (keeps synthetic experiments fast).
    num_checkpoints:
        Number of evenly spaced times at which metrics are recorded.
    seed:
        Seed shared by all sketches.
    shard_counts:
        Extra hash-partitioned VOS variants to track: for each count ``N`` a
        ``VOS-sharded-N`` method is built under the *same* total memory budget
        (``N`` arrays of ``ceil(m / N)`` bits), so the accuracy harness
        quantifies the cross-shard estimator's extra variance against
        single-array VOS as the shard count grows.
    """

    methods: tuple[str, ...] = ("MinHash", "OPH", "RP", "VOS")
    baseline_registers: int = 100
    register_bits: int = 32
    vos_size_multiplier: float = 2.0
    top_users: int = 100
    min_common_items: int = 1
    max_pairs: int | None = 200
    num_checkpoints: int = 8
    seed: int = 0
    shard_counts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.methods and not self.shard_counts:
            raise ConfigurationError("at least one method is required")
        if self.baseline_registers <= 0:
            raise ConfigurationError("baseline_registers must be positive")
        if self.num_checkpoints <= 0:
            raise ConfigurationError("num_checkpoints must be positive")
        if any(count <= 0 for count in self.shard_counts):
            raise ConfigurationError("shard_counts must be positive")


class AccuracyExperiment:
    """Run the Figure-3 accuracy comparison on one stream.

    Examples
    --------
    >>> from repro.streams import load_dataset
    >>> stream = load_dataset("youtube", scale=0.05)
    >>> experiment = AccuracyExperiment(ExperimentConfig(baseline_registers=20,
    ...                                                  top_users=20, num_checkpoints=2))
    >>> result = experiment.run(stream)
    >>> set(result.methods()) == {"MinHash", "OPH", "RP", "VOS"}
    True
    """

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()

    # -- pair selection ----------------------------------------------------------------

    def select_pairs(self, stream: GraphStream) -> list[tuple[UserId, UserId]]:
        """Select tracked pairs from the stream's insertion-only item sets."""
        insertion_sets = stream.insertions_only().item_sets_at(None)
        return select_evaluation_pairs(
            insertion_sets,
            top_users=self.config.top_users,
            min_common_items=self.config.min_common_items,
            max_pairs=self.config.max_pairs,
        )

    # -- sketch construction ------------------------------------------------------------

    def build_sketches(self, num_users: int) -> dict[str, SimilaritySketch]:
        """Build every configured method under the shared memory budget."""
        budget = MemoryBudget(
            baseline_registers=self.config.baseline_registers,
            num_users=max(1, num_users),
            register_bits=self.config.register_bits,
        )
        sketches: dict[str, SimilaritySketch] = {}
        for name in self.config.methods:
            if name == "VOS":
                sketches[name] = VirtualOddSketch.from_budget(
                    budget,
                    size_multiplier=self.config.vos_size_multiplier,
                    seed=self.config.seed,
                )
            else:
                sketches[name] = build_sketch(name, budget, seed=self.config.seed)
        if self.config.shard_counts:
            # Imported lazily: the service layer sits above the evaluation
            # layer, mirroring the registry's treatment in similarity.engine.
            from repro.service.sharding import ShardedVOS

            for count in self.config.shard_counts:
                sketches[f"VOS-sharded-{count}"] = ShardedVOS.from_budget(
                    budget,
                    num_shards=count,
                    size_multiplier=self.config.vos_size_multiplier,
                    seed=self.config.seed,
                )
        return sketches

    # -- main loop ------------------------------------------------------------------------

    def run(self, stream: GraphStream) -> AccuracyResult:
        """Run the experiment on ``stream`` and return the metric time series."""
        pairs = self.select_pairs(stream)
        if not pairs:
            raise ConfigurationError(
                "no user pairs qualify for tracking; "
                "lower min_common_items or increase the stream size"
            )
        num_users = len(stream.users())
        sketches = self.build_sketches(num_users)
        exact = ExactSimilarityTracker()
        checkpoints = set(stream.checkpoints(self.config.num_checkpoints))

        result = AccuracyResult(
            dataset=stream.name,
            baseline_registers=self.config.baseline_registers,
        )
        for name in sketches:
            result.checkpoints[name] = []

        for position, element in enumerate(stream, start=1):
            exact.process(element)
            for sketch in sketches.values():
                sketch.process(element)
            if position in checkpoints:
                self._record_checkpoint(position, pairs, sketches, exact, result)
        return result

    def _record_checkpoint(
        self,
        time: int,
        pairs: list[tuple[UserId, UserId]],
        sketches: dict[str, SimilaritySketch],
        exact: ExactSimilarityTracker,
        result: AccuracyResult,
    ) -> None:
        tracked = [
            (user_a, user_b)
            for user_a, user_b in pairs
            if exact.has_user(user_a) and exact.has_user(user_b)
        ]
        true_common = [exact.estimate_common_items(a, b) for a, b in tracked]
        true_jaccard = [exact.estimate_jaccard(a, b) for a, b in tracked]
        for name, sketch in sketches.items():
            kept = [
                position
                for position, (user_a, user_b) in enumerate(tracked)
                if sketch.has_user(user_a) and sketch.has_user(user_b)
            ]
            if not kept:
                continue
            # One bulk call per sketch scores every qualifying pair, bit for
            # bit as the scalar per-pair estimators would.
            users, index_a, index_b = dedup_pair_users(
                (tracked[position][0] for position in kept),
                (tracked[position][1] for position in kept),
            )
            commons, jaccards = sketch.estimate_common_and_jaccard_indexed(
                users, index_a, index_b
            )
            result.checkpoints[name].append(
                AccuracyCheckpoint(
                    time=time,
                    aape=average_absolute_percentage_error(
                        [true_common[position] for position in kept], commons.tolist()
                    ),
                    armse=average_root_mean_square_error(
                        [true_jaccard[position] for position in kept], jaccards.tolist()
                    ),
                    tracked_pairs=len(kept),
                    # VOS and its sharded variant both expose a fill fraction.
                    beta=getattr(sketch, "beta", None),
                    zero_estimates=float(np.mean(commons == 0)),
                    memory_bits=sketch.memory_bits(),
                )
            )
