"""Result containers for accuracy and runtime experiments.

These are plain dataclasses so results can be serialised, tabulated and
compared without depending on the experiment objects that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class AccuracyCheckpoint:
    """Metrics of one method at one checkpoint of an accuracy experiment.

    Attributes
    ----------
    time:
        Stream position (number of elements processed) of the checkpoint.
    aape:
        Average absolute percentage error of the common-item estimates.
    armse:
        Average root mean square error of the Jaccard estimates.
    tracked_pairs:
        Number of user pairs the metrics were computed over.
    beta:
        For VOS only: the shared-array fill fraction at this checkpoint
        (``None`` for other methods).
    zero_estimates:
        Share of the tracked pairs whose common-item estimate is exactly 0.
        A method at 1.0 estimates nothing, and its AAPE is exactly 1.0
        whatever the truth.
    memory_bits:
        The method's ``memory_bits()`` at this checkpoint: what the paper's
        cost model charges it, for checking the equal-memory premise.
    """

    time: int
    aape: float
    armse: float
    tracked_pairs: int
    beta: float | None = None
    zero_estimates: float = 0.0
    memory_bits: int = 0


@dataclass
class AccuracyResult:
    """Full accuracy-experiment output: per-method metric time series.

    Attributes
    ----------
    dataset:
        Name of the stream the experiment ran on.
    baseline_registers:
        The budget's ``k``.
    checkpoints:
        Mapping from method name to its list of :class:`AccuracyCheckpoint`,
        ordered by time.
    """

    dataset: str
    baseline_registers: int
    checkpoints: dict[str, list[AccuracyCheckpoint]] = field(default_factory=dict)

    def methods(self) -> list[str]:
        return list(self.checkpoints)

    def final_checkpoint(self, method: str) -> AccuracyCheckpoint:
        """The last checkpoint of a method (end-of-stream metrics, Figure 3 b/d)."""
        series = self.checkpoints[method]
        return series[-1]

    def series(self, method: str, metric: str) -> list[tuple[int, float]]:
        """A (time, value) series for ``metric`` in {"aape", "armse"} (Figure 3 a/c)."""
        return [
            (point.time, getattr(point, metric)) for point in self.checkpoints[method]
        ]


@dataclass(frozen=True)
class RuntimeMeasurement:
    """Time one method took to process one stream at one sketch size."""

    method: str
    dataset: str
    sketch_size: int
    elements: int
    seconds: float

    @property
    def elements_per_second(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.elements / self.seconds


@dataclass
class RuntimeResult:
    """Collection of runtime measurements (Figure 2)."""

    measurements: list[RuntimeMeasurement] = field(default_factory=list)

    def add(self, measurement: RuntimeMeasurement) -> None:
        self.measurements.append(measurement)

    def methods(self) -> list[str]:
        seen: list[str] = []
        for measurement in self.measurements:
            if measurement.method not in seen:
                seen.append(measurement.method)
        return seen

    def for_method(self, method: str) -> list[RuntimeMeasurement]:
        return [m for m in self.measurements if m.method == method]

    def series_over_sketch_size(self, method: str, dataset: str) -> list[tuple[int, float]]:
        """(sketch size, seconds) series for one method on one dataset (Figure 2 a)."""
        return [
            (m.sketch_size, m.seconds)
            for m in self.measurements
            if m.method == method and m.dataset == dataset
        ]
