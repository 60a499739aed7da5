"""The paper's claim as a gated number: VOS beats the baselines at equal memory.

Figure 3 says that, under deletions and at the same memory budget, VOS
estimates common items (AAPE) and Jaccard (ARMSE) better than dynamic
MinHash, OPH and RP.  The Figure-3 shape tests assert that with slack; this
module records the numbers and gates them without any:

* ``test_accuracy_gate`` runs every method over the four synthetic datasets
  (seed 17, the Figure-3 configuration) and writes ``BENCH_accuracy.json``:
  final-checkpoint AAPE and ARMSE per method and dataset, each method's
  ``memory_bits()`` (so "equal memory" is checked, not assumed) and each
  method's share of zero common-item estimates.  VOS must be at or below
  MinHash and OPH on every dataset, and at or below RP wherever RP estimates
  anything at all.
* ``test_vos_accuracy_pinned`` runs VOS alone over seeds 17-24 and holds
  each dataset's 8-seed mean AAPE and ARMSE at most three standard errors
  of the pinned mean (pinned SD / sqrt(8)) above the means pinned below.
  A change of hash family acts like a reseed, so it must not land above
  that bound.  The gate is one-sided because its claim is "no worse": a
  mean below the pin is better accuracy, not a failure.  (The two-sided
  form does not hold for the double-hash family: its flickr AAPE, 0.318
  against 0.375, sits 0.006 below the lower bound, while over seeds
  100-131 both families read flickr 0.383/0.368 and livejournal
  0.356/0.345, SD 0.05-0.07.)  The JSON records both bounds per metric.
* ``test_vos_variance_band`` standardizes VOS's common-item errors on the
  YouTube tracked pairs by the paper's predicted standard deviation
  (:func:`repro.analysis.variance.predicted_standard_deviation`) and holds
  their 8-seed RMS inside the band measured with the Carter-Wegman family.

Pinned figures were measured with the Carter-Wegman ``k``-member user family
that the double-hash position family replaced (seeds 17-24, by this file's
own functions):

============  =============  ==============
dataset       AAPE mean/SD   ARMSE mean/SD
============  =============  ==============
youtube       0.3637/0.0399  0.02477/0.00370
flickr        0.3753/0.0485  0.02421/0.00246
livejournal   0.3832/0.0444  0.02478/0.00258
orkut         0.3403/0.0367  0.02280/0.00273
============  =============  ==============
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.analysis.variance import predicted_standard_deviation
from repro.baselines.exact import ExactSimilarityTracker
from repro.evaluation.runner import AccuracyExperiment
from repro.similarity.engine import sketch_registry

from bench_paths import results_path
from conftest import DATASET_NAMES, accuracy_config

RESULTS_PATH = results_path("BENCH_accuracy.json")

#: Seeds of the pinned VOS figures and of the runs checked against them.
SEEDS = tuple(range(17, 25))
#: 8-seed ``(mean, SD)`` of VOS's final-checkpoint AAPE and ARMSE per dataset.
PINNED = {
    "youtube": {"aape": (0.3637, 0.0399), "armse": (0.02477, 0.00370)},
    "flickr": {"aape": (0.3753, 0.0485), "armse": (0.02421, 0.00246)},
    "livejournal": {"aape": (0.3832, 0.0444), "armse": (0.02478, 0.00258)},
    "orkut": {"aape": (0.3403, 0.0367), "armse": (0.02280, 0.00273)},
}
#: Standard errors of the pinned 8-seed mean a run's mean may lie above it.
STANDARD_ERRORS = 3.0
#: The dataset whose tracked pairs check the variance model.
VARIANCE_DATASET = "youtube"
#: Band for the 8-seed mean RMS of ``(estimate - truth) / predicted SD`` on
#: the YouTube tracked pairs.  The Carter-Wegman family's per-seed RMS read
#: 0.0352-0.0526 (mean 0.0420, SD 0.0057); the band is that mean +- three
#: standard errors.  The RMS sits far below 1 because the closed-form
#: variance's ``k^2 beta`` term dominates it: the model overstates the
#: observed spread ~24x at this budget, so the band checks that a family's
#: errors keep the measured relation to the model, not that the model fits.
VARIANCE_BAND = (0.0359, 0.0481)


def _final_estimates(stream, seed: int, methods) -> dict:
    """Per method: the end-of-stream common-item estimates of the tracked
    pairs, the truths, the true symmetric differences, ``memory_bits()`` and
    (VOS only) the fill fraction and sketch size."""
    experiment = AccuracyExperiment(accuracy_config(seed=seed, methods=methods))
    pairs = experiment.select_pairs(stream)
    sketches = experiment.build_sketches(len(stream.users()))
    exact = ExactSimilarityTracker()
    for element in stream:
        exact.process(element)
        for sketch in sketches.values():
            sketch.process(element)
    out = {}
    for name, sketch in sketches.items():
        kept = [
            (a, b)
            for a, b in pairs
            if exact.has_user(a) and exact.has_user(b)
            and sketch.has_user(a) and sketch.has_user(b)
        ]
        truth = np.array([exact.estimate_common_items(a, b) for a, b in kept])
        delta = np.array([exact.symmetric_difference(a, b) for a, b in kept])
        estimates = np.array([sketch.estimate_common_items(a, b) for a, b in kept])
        out[name] = {
            "estimates": estimates,
            "truth": truth,
            "symmetric_difference": delta,
            "memory_bits": sketch.memory_bits(),
            "beta": getattr(sketch, "beta", None),
            "sketch_size": getattr(sketch, "virtual_sketch_size", None),
        }
    return out


def _standardized_rms(record: dict) -> float:
    """RMS of the errors divided by the paper's predicted SD, pair by pair."""
    sigma = np.array(
        [
            predicted_standard_deviation(float(n_delta), record["beta"], record["sketch_size"])
            for n_delta in record["symmetric_difference"]
        ]
    )
    z = (record["estimates"] - record["truth"]) / sigma
    return float(np.sqrt(np.mean(z * z)))


def _merge_results(update: dict) -> None:
    """Fold ``update`` into ``BENCH_accuracy.json`` (tests write parts of it)."""
    current = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() else {}
    current.update(update)
    RESULTS_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def seed17_results(all_streams):
    """Every Figure-3 method's final checkpoint per dataset at seed 17."""
    experiment = AccuracyExperiment(accuracy_config(num_checkpoints=2))
    results = {}
    for name, stream in all_streams.items():
        result = experiment.run(stream)
        results[name] = {
            method: {
                field: getattr(result.final_checkpoint(method), field)
                for field in ("aape", "armse", "zero_estimates", "tracked_pairs", "memory_bits")
            }
            for method in result.methods()
        }
    return results


def test_accuracy_gate(seed17_results):
    """VOS at or below every baseline at equal memory, with no slack."""
    gated = {}
    for dataset, methods in seed17_results.items():
        # Equal memory: VOS is charged exactly the shared budget and no
        # baseline more than it (a baseline's cost grows with the users it
        # holds, so users deleted by the end of the stream leave it under).
        budget = methods["VOS"]["memory_bits"]
        for method, record in methods.items():
            assert 0 < record["memory_bits"] <= budget, (dataset, method, record)
        # An RP whose every estimate is 0 measures nothing (AAPE is exactly
        # 1.0 whatever the truth); it is excluded from the gate, and the JSON
        # says so.
        baselines = [
            method
            for method in ("MinHash", "OPH", "RP")
            if methods[method]["zero_estimates"] < 1.0
        ]
        assert "MinHash" in baselines and "OPH" in baselines, dataset
        for method in baselines:
            assert methods["VOS"]["aape"] <= methods[method]["aape"], (dataset, method)
            assert methods["VOS"]["armse"] <= methods[method]["armse"], (dataset, method)
        gated[dataset] = baselines
    _merge_results(
        {
            "seed": 17,
            "final_checkpoint": seed17_results,
            "gated_baselines": gated,
            "notes": [
                "A baseline whose every common-item estimate is 0 (zero_estimates "
                "== 1.0) is excluded from the gate on that dataset: its AAPE is "
                "exactly 1.0 whatever the truth. RP on orkut is such a case at "
                "seed 17: 24 capacity-1 registers per user almost never hold the "
                "same sampled item on large sets.",
                "MinHashOddSketch (the static odd sketch) has no registry entry, "
                "so it is not part of the comparison.",
            ],
        }
    )


def test_registry_excludes_static_odd_sketch():
    """The JSON's note holds: the static odd sketch is not a registered method."""
    from repro.baselines.odd_sketch import MinHashOddSketch
    from repro.core.memory import MemoryBudget

    budget = MemoryBudget(baseline_registers=4, num_users=2)
    assert "MinHashOddSketch" not in sketch_registry()
    assert not any(
        isinstance(factory(budget, 0), MinHashOddSketch)
        for factory in sketch_registry().values()
    )


def test_vos_accuracy_pinned(all_streams):
    """VOS's 8-seed mean AAPE/ARMSE at most three standard errors above the pins."""
    runs: dict[str, dict[str, list[float]]] = {}
    for seed in SEEDS:
        experiment = AccuracyExperiment(
            accuracy_config(num_checkpoints=2, seed=seed, methods=("VOS",))
        )
        for name in DATASET_NAMES:
            final = experiment.run(all_streams[name]).final_checkpoint("VOS")
            record = runs.setdefault(name, {"aape": [], "armse": []})
            record["aape"].append(final.aape)
            record["armse"].append(final.armse)
    summary = {}
    for name, record in runs.items():
        summary[name] = {}
        for metric, values in record.items():
            pinned_mean, pinned_sd = PINNED[name][metric]
            mean, sd = float(np.mean(values)), float(np.std(values, ddof=1))
            bound = STANDARD_ERRORS * pinned_sd / math.sqrt(len(SEEDS))
            summary[name][metric] = {
                "mean": mean,
                "sd": sd,
                "pinned_mean": pinned_mean,
                "upper_bound": pinned_mean + bound,
                "within_two_sided": abs(mean - pinned_mean) <= bound,
            }
            assert mean - pinned_mean <= bound, (name, metric, mean, pinned_mean)
    _merge_results({"vos_seeds": list(SEEDS), "vos_8_seed": summary})


def test_vos_variance_band(all_streams):
    """The standardized common-item errors follow the paper's variance model."""
    stream = all_streams[VARIANCE_DATASET]
    rms = [
        _standardized_rms(_final_estimates(stream, seed, ("VOS",))["VOS"]) for seed in SEEDS
    ]
    mean = float(np.mean(rms))
    _merge_results(
        {
            "variance_band": {
                "dataset": VARIANCE_DATASET,
                "per_seed_rms": rms,
                "mean_rms": mean,
                "band": list(VARIANCE_BAND),
            }
        }
    )
    low, high = VARIANCE_BAND
    assert low <= mean <= high, rms
