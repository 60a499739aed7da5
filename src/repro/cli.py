"""Command-line interface: regenerate the paper's figures as text tables.

Usage (after ``pip install -e .``)::

    repro datasets                       # list the synthetic datasets
    repro figure2a --scale 0.05          # runtime vs sketch size (YouTube)
    repro figure2b --scale 0.05          # runtime across datasets
    repro figure3a --scale 0.1           # AAPE over time (YouTube)
    repro figure3b --scale 0.1           # AAPE across datasets (end of stream)
    repro figure3c --scale 0.1           # ARMSE over time (YouTube)
    repro figure3d --scale 0.1           # ARMSE across datasets
    repro bias --rates 0.0 0.2 0.4       # sampling-bias ablation (A3)

Service commands (the :mod:`repro.service` subsystem)::

    repro ingest --stream edges.vosstream --snapshot state.vos --shards 4
    repro convert --input edges.txt --output edges.vosstream
    repro topk --snapshot state.vos --user 17 -k 10 --index lsh
    repro pairs --snapshot state.vos -k 10 --prefilter 0.2 --index lsh
    repro index build --snapshot state.vos
    repro index stats --snapshot state.vos
    repro snapshot save --snapshot state.vos --stream more.vosstream --with-index
    repro snapshot delta --snapshot state.vos --stream more.vosstream
    repro snapshot compact --snapshot state.vos
    repro snapshot info --snapshot state.vos
    repro shards --shard-counts 1 2 4 8 --scale 0.2
    repro metrics show --snapshot state.vos --stream more.vosstream
    repro metrics dump --snapshot state.vos --stream more.vosstream --out metrics.json
    repro metrics reset
    repro kernels --bench
    repro serve --snapshot state.vos --port 7437 --serve-workers 4
    repro query --connect 127.0.0.1:7437 -k 10
    repro query --connect 127.0.0.1:7437 --user 17 -k 10 --index lsh
    repro query --connect 127.0.0.1:7437 --stats
    repro query --connect 127.0.0.1:7437 --stats --user 17 --repeat 50

``ingest`` reads a stream file — the plain-text format (``<action> <user>
<item>`` per line) or the binary columnar ``.vosstream`` format, auto-detected
(see :mod:`repro.streams.io`) — feeds it through the sharded batch-vectorized
VOS service and snapshots the resulting sketch state; ``convert`` translates a
stream between the two formats; ``topk`` answers nearest-neighbour queries
against a snapshot without re-reading the stream; ``pairs`` runs the vectorized
top-k similar-pair search (with the optional cardinality pre-filter) over a
snapshot; ``--index lsh`` on either query routes candidate generation through
the LSH banding index (:mod:`repro.index`) instead of enumerating every pair —
the band seeds flow from the snapshot's sketch seed, so results are
reproducible across runs; ``index build`` / ``index stats`` report the banding
layout, signature memory and candidate-reduction numbers for a snapshot;
``shards`` measures the cross-shard estimator's accuracy against single-array
VOS across shard counts.

The ``snapshot`` sub-commands drive the incremental persistence layer:
``save`` loads a snapshot (replaying its journal), optionally ingests another
stream, and rewrites a full checkpoint (``--with-index`` also persists the
banding index's signature tables, making the next restart's first ``lsh``
query O(1)); ``delta`` ingests a stream and appends only the changed array
words and counters to the write-ahead journal instead of rewriting the
snapshot; ``compact`` folds the journal back into a fresh full checkpoint;
``info`` describes a snapshot file and its journal without restoring state.

The ``metrics`` sub-commands read the process-wide observability registry
(:mod:`repro.obs`): ``show``/``dump`` load a snapshot, optionally ingest a
stream and run one ``lsh`` pair query, so the emitted counters and latency
histograms cover all four instrumented subsystems (ingest, query, index,
persistence); ``dump`` emits JSON or Prometheus text exposition; ``reset``
zeroes every metric.  The global ``--log-level`` flag turns on structured
logging — journal replay and checkpoint events carry shard ids and journal
sequence numbers as ``key=value`` context.

``serve`` loads a snapshot and runs the long-lived serving daemon
(:mod:`repro.server`): queries are answered from epoch-versioned immutable
snapshots while ``ingest_batch`` requests land, SIGTERM/ctrl-c drains
in-flight requests and writes a final journal checkpoint.  ``query`` is the
matching client — it answers the same ``topk``/``pairs`` questions over a
live daemon connection instead of a snapshot file, bit-identically to the
in-process service.

``kernels`` reports which scoring kernel tier is active (the native
hardware-popcount C kernels or the NumPy fallback — see :mod:`repro.kernels`),
including the probe/compile status behind that choice; ``--bench`` micro-times
both tiers on a synthetic block and fails if they ever disagree bit-for-bit.

Every command prints an aligned plain-text table (add ``--csv`` for CSV) so
results can be diffed against EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import signal
import statistics
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro._version import __version__
from repro.analysis.bias import measure_sampling_bias
from repro.core.memory import MemoryBudget
from repro.evaluation.reporting import (
    accuracy_final_table,
    accuracy_over_time_table,
    render_csv,
    render_table,
    runtime_table,
)
from repro.evaluation.runner import AccuracyExperiment, ExperimentConfig
from repro.evaluation.runtime import RuntimeExperiment
from repro.exceptions import DatasetError, ReproError
from repro.index import IndexConfig
from repro.obs import (
    LOG_LEVELS,
    configure_logging,
    get_registry,
    render_json,
    render_prometheus,
)
from repro.server import DEFAULT_PORT, ServingClient, ServingDaemon
from repro.service import ServiceConfig, SimilarityService
from repro.service.journal import default_journal_path, journal_info
from repro.service.snapshot import snapshot_info
from repro.similarity.engine import build_sketch
from repro.similarity.pairs import top_cardinality_users
from repro.similarity.search import top_k_similar_pairs
from repro.streams.datasets import DATASET_SPECS, load_dataset
from repro.streams.io import iter_stream_batches, read_stream, write_stream

_DEFAULT_DATASETS = ("youtube", "flickr", "livejournal", "orkut")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset scale factor (1.0 = full synthetic size; smaller is faster)",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of a table")


def _accuracy_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        baseline_registers=args.registers,
        top_users=args.top_users,
        max_pairs=args.max_pairs,
        num_checkpoints=args.checkpoints,
        seed=args.seed,
    )


def _add_accuracy_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--registers", type=int, default=24, help="baseline sketch size k")
    parser.add_argument("--top-users", type=int, default=40, help="users forming tracked pairs")
    parser.add_argument("--max-pairs", type=int, default=150, help="cap on tracked pairs")
    parser.add_argument("--checkpoints", type=int, default=6, help="metric checkpoints")


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for spec in DATASET_SPECS.values():
        rows.append(
            [
                spec.name,
                spec.num_users,
                spec.num_items,
                spec.num_edges,
                spec.deletion_period,
                spec.deletion_probability,
            ]
        )
    headers = ["dataset", "users", "items", "edges", "deletion period", "d"]
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _cmd_figure2a(args: argparse.Namespace) -> int:
    stream = load_dataset("youtube", scale=args.scale)
    experiment = RuntimeExperiment(seed=args.seed)
    result = experiment.run_sketch_size_sweep(stream, args.sketch_sizes)
    print(f"# Figure 2(a): runtime vs sketch size on {stream.name} "
          f"({len(stream)} elements)")
    print(runtime_table(result))
    return 0


def _cmd_figure2b(args: argparse.Namespace) -> int:
    streams = [load_dataset(name, scale=args.scale) for name in _DEFAULT_DATASETS]
    experiment = RuntimeExperiment(seed=args.seed)
    result = experiment.run_dataset_sweep(streams, args.sketch_size)
    print(f"# Figure 2(b): runtime across datasets at k = {args.sketch_size}")
    print(runtime_table(result))
    return 0


def _run_accuracy(dataset: str, args: argparse.Namespace):
    stream = load_dataset(dataset, scale=args.scale)
    experiment = AccuracyExperiment(_accuracy_config(args))
    return experiment.run(stream)


def _cmd_figure3_over_time(args: argparse.Namespace, metric: str, label: str) -> int:
    result = _run_accuracy("youtube", args)
    print(f"# Figure 3({label}): {metric.upper()} over time on youtube "
          f"(k = {args.registers})")
    print(accuracy_over_time_table(result, metric=metric))
    return 0


def _cmd_figure3_datasets(args: argparse.Namespace, metric: str, label: str) -> int:
    results = {name: _run_accuracy(name, args) for name in _DEFAULT_DATASETS}
    print(f"# Figure 3({label}): end-of-stream {metric.upper()} across datasets "
          f"(k = {args.registers})")
    print(accuracy_final_table(results, metric=metric))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    """Find the most similar user pairs of a dataset with a chosen sketch."""
    stream = load_dataset(args.dataset, scale=args.scale)
    budget = MemoryBudget(
        baseline_registers=args.registers, num_users=len(stream.users())
    )
    sketch = build_sketch(args.method, budget, seed=args.seed)
    exact = build_sketch("Exact", budget, seed=args.seed)
    for element in stream:
        sketch.process(element)
        exact.process(element)
    item_sets = stream.item_sets_at(None)
    candidates = top_cardinality_users(item_sets, args.top_users)
    pairs = top_k_similar_pairs(sketch, k=args.k, users=candidates)
    rows = [
        [
            f"({pair.user_a}, {pair.user_b})",
            pair.jaccard,
            pair.common_items,
            exact.estimate_jaccard(pair.user_a, pair.user_b),
            exact.estimate_common_items(pair.user_a, pair.user_b),
        ]
        for pair in pairs
    ]
    headers = ["pair", f"J ({args.method})", f"s ({args.method})", "J (exact)", "s (exact)"]
    print(f"# top-{args.k} similar pairs on {stream.name} "
          f"(method {args.method}, k = {args.registers})")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Ingest a stream file through the sharded service and snapshot the state."""
    try:
        return _run_ingest(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run_ingest(args: argparse.Namespace) -> int:
    if args.no_validate:
        # Without feasibility validation the stream never needs to be
        # materialized as element objects: one chunked columnar pass counts
        # distinct users (to size the budget), a second pass ingests.
        distinct_users: set = set()
        for batch in iter_stream_batches(args.stream, format=args.format):
            distinct_users.update(batch.users.tolist())
        source = iter_stream_batches(
            args.stream, batch_size=args.batch_size, format=args.format
        )
        stream_name = Path(args.stream).stem
    else:
        stream = read_stream(args.stream, validate=True, format=args.format)
        distinct_users = stream.users()
        source = stream
        stream_name = stream.name
    # ingest always snapshots, and snapshots store user ids as int64 — fail
    # before the ingest work is spent, not at save time.
    if any(
        type(user) is not int or not (-(2**63) <= user < 2**63)
        for user in distinct_users
    ):
        raise DatasetError(
            f"{args.stream} holds user ids that are not 64-bit integers; "
            "`repro ingest` snapshots its state, which requires 64-bit integer "
            "users (such streams remain usable through the library API)"
        )
    expected_users = len(distinct_users)
    config = ServiceConfig(
        expected_users=max(1, expected_users),
        baseline_registers=args.registers,
        num_shards=args.shards,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    service = SimilarityService.from_config(config)
    report = service.ingest(source)
    service.save(args.snapshot)
    stats = service.stats()
    rows = [
        ["stream", stream_name],
        ["elements", report.elements],
        ["batches", report.batches],
        ["elements/sec", round(report.elements_per_second)],
        ["assemble sec", round(report.assemble_seconds, 4)],
        ["process sec", round(report.process_seconds, 4)],
        ["users", stats["users"]],
        ["shards", stats["num_shards"]],
        ["memory bits", stats["memory_bits"]],
        ["beta", stats["beta"]],
        ["snapshot", str(args.snapshot)],
    ]
    headers = ["field", "value"]
    print(f"# ingested {report.elements} elements into {stats['num_shards']} shards")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    """Convert a stream file between the text and binary columnar formats."""
    try:
        stream = read_stream(args.input, validate=not args.no_validate)
        write_stream(stream, args.output, format=args.to)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    statistics = stream.statistics()
    rows = [
        ["input", str(args.input)],
        ["output", str(args.output)],
        ["elements", statistics.length],
        ["insertions", statistics.insertions],
        ["deletions", statistics.deletions],
        ["users", statistics.distinct_users],
        ["input bytes", Path(args.input).stat().st_size],
        ["output bytes", Path(args.output).stat().st_size],
    ]
    headers = ["field", "value"]
    print(f"# converted {statistics.length} elements")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _index_config_from_args(args: argparse.Namespace) -> IndexConfig:
    """Banding knobs shared by the query and ``index`` commands.

    The band seed is deliberately *not* an option: leaving it ``None`` makes
    it flow from the snapshot's sketch seed, so repeated runs over the same
    snapshot propose identical candidate sets.
    """
    return IndexConfig(
        bands=args.bands,
        rows_per_band=args.rows_per_band,
        target_threshold=args.index_threshold,
        min_band_bits=args.min_band_bits,
    )


def _add_index_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bands",
        type=int,
        default=0,
        help="LSH bands (0 auto-tunes from the target threshold)",
    )
    parser.add_argument(
        "--rows-per-band",
        type=int,
        default=1,
        help="64-bit words per LSH band",
    )
    parser.add_argument(
        "--index-threshold",
        type=float,
        default=0.5,
        help="Jaccard threshold the band auto-tuner sizes for",
    )
    parser.add_argument(
        "--min-band-bits",
        type=int,
        default=2,
        help="set bits a band needs before it may bucket users",
    )


def _cmd_topk(args: argparse.Namespace) -> int:
    """Answer a top-k similar-user query against a saved snapshot."""
    try:
        service = SimilarityService.load(
            args.snapshot, index_config=_index_config_from_args(args)
        )
        neighbours = service.top_k(
            args.user,
            k=args.k,
            minimum_cardinality=args.min_cardinality,
            index=args.index,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = [
        [pair.user_b, pair.jaccard, pair.common_items] for pair in neighbours
    ]
    headers = ["user", "jaccard", "common items"]
    print(f"# top-{args.k} users most similar to user {args.user}")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _cmd_pairs(args: argparse.Namespace) -> int:
    """Vectorized top-k similar-pair search against a saved snapshot."""
    try:
        service = SimilarityService.load(
            args.snapshot, index_config=_index_config_from_args(args)
        )
        pairs = service.top_k_pairs(
            k=args.k,
            minimum_cardinality=args.min_cardinality,
            prefilter_threshold=args.prefilter,
            candidates=args.index,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = [
        [pair.user_a, pair.user_b, pair.jaccard, pair.common_items] for pair in pairs
    ]
    headers = ["user a", "user b", "jaccard", "common items"]
    print(
        f"# top-{args.k} most similar pairs "
        f"(prefilter threshold {args.prefilter}, candidates {args.index})"
    )
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    """Build the LSH banding index for a snapshot and report its layout."""
    try:
        service = SimilarityService.load(
            args.snapshot, index_config=_index_config_from_args(args)
        )
        index = service.index()
        start = time.perf_counter()
        index.build()
        build_seconds = time.perf_counter() - start
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats = index.stats()
    rows = [
        ["snapshot", str(args.snapshot)],
        ["users indexed", stats["users_indexed"]],
        ["shards", stats["shards"]],
        ["bands", stats["bands"]],
        ["rows per band", stats["rows_per_band"]],
        ["band bits", stats["band_bits"]],
        ["min band bits", stats["min_band_bits"]],
        ["auto bands", stats["auto_bands"]],
        ["seed", stats["seed"]],
        ["signature KiB", round(stats["signature_bytes"] / 1024, 1)],
        ["build sec", round(build_seconds, 4)],
    ]
    headers = ["field", "value"]
    print(f"# built LSH banding index over {stats['users_indexed']} users")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _cmd_index_stats(args: argparse.Namespace) -> int:
    """Candidate-reduction statistics of the banding index on a snapshot."""
    try:
        service = SimilarityService.load(
            args.snapshot, index_config=_index_config_from_args(args)
        )
        index = service.index()
        index.refresh()  # the tables the stats below describe
        pool = sorted(service.sketch.users())
        index_a, _ = index.candidate_pairs(pool)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats = index.stats()
    fraction = stats["last_candidate_fraction"]
    rows = [
        ["snapshot", str(args.snapshot)],
        ["users indexed", stats["users_indexed"]],
        ["bands", stats["bands"]],
        ["band bits", stats["band_bits"]],
        ["candidate pairs", stats["last_candidate_pairs"]],
        ["all pairs", stats["last_pool_pairs"]],
        ["candidate fraction", "" if fraction is None else round(fraction, 6)],
        ["signature KiB", round(stats["signature_bytes"] / 1024, 1)],
        ["rebuilds", stats["rebuilds"]],
        ["restored", stats["restored"]],
    ]
    headers = ["field", "value"]
    print(
        f"# LSH banding proposes {int(index_a.shape[0])} of "
        f"{stats['last_pool_pairs']} pairs"
    )
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _load_snapshot_service(args: argparse.Namespace) -> SimilarityService:
    """Load a snapshot (replaying its journal) for the ``snapshot`` commands."""
    return SimilarityService.load(args.snapshot)


def _ingest_stream_file(service: SimilarityService, args: argparse.Namespace) -> int:
    """Ingest ``--stream`` (if given) through the chunked columnar reader."""
    if getattr(args, "stream", None) is None:
        return 0
    report = service.ingest(
        iter_stream_batches(args.stream, format=getattr(args, "format", "auto"))
    )
    return report.elements


def _cmd_snapshot_save(args: argparse.Namespace) -> int:
    """Full checkpoint: replay journal, optionally ingest, rewrite the snapshot."""
    try:
        service = _load_snapshot_service(args)
        elements = _ingest_stream_file(service, args)
        # include_index=True builds or refreshes through export_state():
        # restored tables stay attached, only stale ones are recomputed.
        checkpoint_id = service.save(include_index=True if args.with_index else None)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    info = snapshot_info(args.snapshot)
    rows = [
        ["snapshot", str(args.snapshot)],
        ["elements ingested", elements],
        ["checkpoint id", checkpoint_id],
        ["file bytes", info["file_bytes"]],
        ["sections", len(info["sections"])],
        ["index persisted", "index/banding" in info["extra_sections"]],
        ["users", service.sketch.num_users],
    ]
    headers = ["field", "value"]
    print(f"# wrote full checkpoint {checkpoint_id} (journal reset)")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _cmd_snapshot_delta(args: argparse.Namespace) -> int:
    """Delta checkpoint: ingest a stream, append only the changes to the journal."""
    try:
        service = _load_snapshot_service(args)
        elements = _ingest_stream_file(service, args)
        delta = service.save_delta()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    full_bytes = Path(args.snapshot).stat().st_size
    rows = [
        ["snapshot", str(args.snapshot)],
        ["elements ingested", elements],
        ["delta records", delta["records"]],
        ["delta bytes", delta["bytes"]],
        ["journal bytes", delta["journal_bytes"]],
        ["full snapshot bytes", full_bytes],
        ["delta / full", round(delta["bytes"] / full_bytes, 6) if full_bytes else ""],
    ]
    headers = ["field", "value"]
    print(f"# appended {delta['records']} delta record(s) to the journal")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _cmd_snapshot_compact(args: argparse.Namespace) -> int:
    """Fold the journal into a fresh full checkpoint and reset it."""
    try:
        service = _load_snapshot_service(args)
        checkpoint_id = service.compact()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = [
        ["snapshot", str(args.snapshot)],
        ["checkpoint id", checkpoint_id],
        ["file bytes", Path(args.snapshot).stat().st_size],
        ["journal bytes", 0],
    ]
    headers = ["field", "value"]
    print(f"# compacted journal into full checkpoint {checkpoint_id}")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _cmd_snapshot_info(args: argparse.Namespace) -> int:
    """Describe a snapshot file and its journal without restoring state."""
    try:
        info = snapshot_info(args.snapshot)
        journal_path = default_journal_path(args.snapshot)
        journal = journal_info(journal_path) if journal_path.exists() else None
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = [
        ["snapshot", info["path"]],
        ["format version", info["format_version"]],
        ["kind", info["kind"]],
        ["checkpoint id", info["checkpoint_id"]],
        ["shards", info["num_shards"]],
        ["seed", info["seed"]],
        ["file bytes", info["file_bytes"]],
        ["sections", len(info["sections"])],
        ["extra sections", ", ".join(info["extra_sections"]) or "none"],
        ["extra bytes", info["extra_bytes"]],
    ]
    if journal is None:
        rows.append(["journal", "none"])
    else:
        rows += [
            ["journal", journal["path"]],
            ["journal records", journal["records"]],
            ["journal bytes", journal["file_bytes"]],
            ["journal matches", journal["checkpoint_id"] == info["checkpoint_id"]],
        ]
    headers = ["field", "value"]
    print(f"# snapshot format v{info['format_version']} ({info['kind']})")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _cmd_shards(args: argparse.Namespace) -> int:
    """Cross-shard estimator accuracy vs single-array VOS across shard counts."""
    try:
        stream = load_dataset(args.dataset, scale=args.scale)
        config = ExperimentConfig(
            methods=("VOS",),
            shard_counts=tuple(args.shard_counts),
            baseline_registers=args.registers,
            top_users=args.top_users,
            max_pairs=args.max_pairs,
            num_checkpoints=args.checkpoints,
            seed=args.seed,
        )
        result = AccuracyExperiment(config).run(stream)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = []
    for name in result.methods():
        series = result.checkpoints[name]
        if not series:
            continue
        checkpoint = series[-1]
        rows.append(
            [name, checkpoint.aape, checkpoint.armse, checkpoint.tracked_pairs,
             "" if checkpoint.beta is None else checkpoint.beta]
        )
    headers = ["method", "aape", "armse", "pairs", "beta"]
    print(f"# end-of-stream accuracy on {stream.name} across VOS shard counts "
          f"(k = {args.registers})")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _round6(value: float | None) -> float | str:
    return "" if value is None else round(value, 6)


def _exercise_metrics(args: argparse.Namespace) -> SimilarityService:
    """Drive all four instrumented subsystems so the registry has data.

    Loading the snapshot exercises persistence (snapshot load + journal
    replay); ``--stream`` additionally ingests through the batch pipeline;
    the final ``lsh`` pair query exercises the query path and the banding
    index.  Everything runs in this process, so the printed registry holds
    exactly what these operations emitted.
    """
    service = SimilarityService.load(args.snapshot)
    if getattr(args, "stream", None):
        service.ingest(iter_stream_batches(args.stream))
    if service.sketch.num_users >= 2:
        service.top_k_pairs(k=args.k, candidates="lsh")
    return service


def _cmd_metrics_show(args: argparse.Namespace) -> int:
    """Exercise a snapshot and render the metrics registry as a table."""
    try:
        _exercise_metrics(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    snapshot = get_registry().snapshot()
    rows: list[list] = []
    for name, data in snapshot["counters"].items():
        rows.append([name, "counter", data["value"], "", "", "", "", data["unit"]])
    for name, data in snapshot["gauges"].items():
        rows.append([name, "gauge", _round6(data["value"]), "", "", "", "", data["unit"]])
    for name, data in snapshot["histograms"].items():
        rows.append(
            [
                name,
                "histogram",
                data["count"],
                _round6(data["p50"]),
                _round6(data["p90"]),
                _round6(data["p99"]),
                _round6(data["max"]),
                data["unit"],
            ]
        )
    headers = ["metric", "kind", "count/value", "p50", "p90", "p99", "max", "unit"]
    print(f"# {len(rows)} metrics (registry enabled: {snapshot['enabled']})")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _cmd_metrics_dump(args: argparse.Namespace) -> int:
    """Exercise a snapshot and dump the registry as JSON or Prometheus text."""
    try:
        _exercise_metrics(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    registry = get_registry()
    text = (
        render_prometheus(registry)
        if args.format == "prometheus"
        else render_json(registry)
    )
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"# wrote metrics dump to {args.out}", file=sys.stderr)
    print(text)
    return 0


def _cmd_metrics_reset(args: argparse.Namespace) -> int:
    """Zero every metric in the process-wide registry."""
    get_registry().reset()
    print("# metrics registry reset")
    return 0


#: Calls per kernel and tier in ``repro kernels --bench``; the table reports
#: their median, so one call disturbed by the host does not decide a row.
KERNEL_BENCH_REPEATS = 5


def _median_call(function, *args):
    """``(result, seconds)``: the last result of :data:`KERNEL_BENCH_REPEATS`
    calls of ``function(*args)`` and the median of their wall times."""
    seconds = []
    for _ in range(KERNEL_BENCH_REPEATS):
        started = time.perf_counter()
        result = function(*args)
        seconds.append(time.perf_counter() - started)
    return result, statistics.median(seconds)


def _cmd_kernels(args: argparse.Namespace) -> int:
    """Report the kernel tier in use; optionally micro-time both tiers."""
    import numpy as np

    from repro import kernels

    info = kernels.kernel_info()
    native = info.get("native", {}) or {}
    block = info.get("block", {}) or {}
    status_rows = [
        ["requested tier", info.get("requested", "")],
        ["active tier", info.get("active") or "unavailable"],
        ["native available", native.get("available", False)],
        ["compiler", native.get("compiler", "")],
        ["library", native.get("library", "")],
        ["build flags", " ".join(native.get("flags", []))],
        ["vector lanes", native.get("vector_lanes", "")],
        ["probe error", native.get("error") or info.get("error") or ""],
        ["numpy popcount", info.get("numpy_popcount", "")],
        ["block target bytes", block.get("target_bytes", "")],
    ]
    headers = ["field", "value"]
    print("# kernel tier status (select with REPRO_KERNEL=auto|numpy|native)")
    print(render_csv(headers, status_rows) if args.csv else render_table(headers, status_rows))
    if not args.bench:
        return 0

    from repro.core.vos import packed_row_bytes

    rng = np.random.default_rng(args.seed)
    row_bytes = packed_row_bytes(args.sketch_size)
    rows = rng.integers(0, 256, size=(args.users, row_bytes), dtype=np.uint8)
    index_a = rng.integers(0, args.users, size=args.pairs).astype(np.int64)
    index_b = rng.integers(0, args.users, size=args.pairs).astype(np.int64)
    bands = max(1, min(8, row_bytes // 8))
    rows_per_band = (row_bytes // 8) // bands
    coeff_a = (rng.integers(1, 1 << 60, size=bands + 1)).astype(np.uint64)
    coeff_b = (rng.integers(0, 1 << 60, size=bands + 1)).astype(np.uint64)
    # Row recovery reads the random rows as one packed shared array.
    shared = rows.ravel()
    fingerprints = rng.integers(0, 1 << 63, size=args.users).astype(np.uint64)
    hash_a = rng.integers(1, 1 << 60, size=args.sketch_size).astype(np.uint64)
    hash_b = rng.integers(0, 1 << 60, size=args.sketch_size).astype(np.uint64)
    # Ingest hashing: one member coefficient pair per key, as hash_pairs does.
    keys = rng.integers(-(1 << 62), 1 << 62, size=args.pairs)
    members = rng.integers(0, args.sketch_size, size=args.pairs)
    # Ingest xor: random positions, a quarter of them listed twice (cancelling).
    toggles = rng.integers(0, shared.size * 8, size=args.pairs)
    toggles = np.concatenate((toggles, toggles[: args.pairs // 4]))
    tiers = ["numpy"] + (["native"] if native.get("available") else [])
    bench_rows: list[list] = []
    baseline: dict[str, np.ndarray] = {}
    for tier in tiers:
        with kernels.use_tier(tier):
            kernels.pair_counts(rows, index_a[:128], index_b[:128])  # warm/JIT-compile
            counts, pair_seconds = _median_call(kernels.pair_counts, rows, index_a, index_b)
            (signatures, _), band_seconds = _median_call(
                kernels.band_signatures,
                rows.view(np.uint64), bands, rows_per_band, coeff_a, coeff_b,
            )
            recovered, recover_seconds = _median_call(
                kernels.recover_rows,
                fingerprints, hash_a, hash_b, shared, shared.size * 8, args.sketch_size,
            )
            positions, hash_seconds = _median_call(
                kernels.hash_keys, keys, hash_a, hash_b, members, shared.size * 8
            )
            # Repeated xors alternate the copy between two states, the same
            # ones on every tier, so the tiers' final bytes still compare.
            xored = shared.copy()
            (flipped, ones_change, words), xor_seconds = _median_call(
                kernels.xor_positions, xored, toggles, shared.size * 8
            )
        for name, value in (
            ("pair counts", counts),
            ("band signatures", signatures),
            ("recovered rows", recovered),
            ("hashed keys", positions),
            ("xored bits", xored),
            ("xor counts", np.array([flipped, ones_change])),
            ("xor words", np.unique(words)),
        ):
            if not np.array_equal(baseline.setdefault(name, value), value):
                print(f"error: kernel tiers disagree on {name}", file=sys.stderr)
                return 2
        bench_rows.append(
            [
                tier,
                round(pair_seconds * 1e3, 3),
                round(args.pairs / pair_seconds / 1e6, 2),
                round(band_seconds * 1e3, 3),
                round(args.users / band_seconds / 1e6, 2),
                round(recover_seconds * 1e3, 3),
                round(args.users / recover_seconds / 1e3, 1),
                round(hash_seconds * 1e3, 3),
                round(args.pairs / hash_seconds / 1e6, 2),
                round(xor_seconds * 1e3, 3),
                round(len(toggles) / xor_seconds / 1e6, 2),
            ]
        )
    headers = [
        "tier", "pair ms", "Mpairs/s", "band ms", "Musers/s", "recover ms", "kusers/s",
        "hash ms", "Mkeys/s", "xor ms", "Mbits/s",
    ]
    lanes = f"; native vector lanes {native['vector_lanes']}" if "native" in tiers else ""
    print(
        f"# micro-timing: {args.pairs} pairs and keys / {args.users} users at "
        f"k={args.sketch_size} ({row_bytes} B/row), median of {KERNEL_BENCH_REPEATS} "
        f"calls; tiers bit-identical{lanes}"
    )
    print(render_csv(headers, bench_rows) if args.csv else render_table(headers, bench_rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the serving daemon over a snapshot until SIGTERM/ctrl-c drains it."""
    try:
        service = SimilarityService.load(
            args.snapshot, index_config=_index_config_from_args(args)
        )
        daemon = ServingDaemon(
            service,
            host=args.host,
            port=args.port,
            workers=args.serve_workers,
        )
        host, port = daemon.start()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: daemon.request_shutdown())
    print(
        f"# serving {args.snapshot} on {host}:{port} "
        f"({args.serve_workers} workers; SIGTERM/ctrl-c to drain)",
        flush=True,
    )
    daemon.wait()
    checkpoint = daemon.final_checkpoint or {}
    epochs = daemon.epochs.stats()
    registry_snapshot = get_registry().snapshot()
    requests = registry_snapshot["counters"].get("server.requests", {}).get("value", 0)
    rows = [
        ["snapshot", str(args.snapshot)],
        ["requests served", requests],
        ["epochs published", epochs["published"]],
        ["noop publishes", epochs["noops"]],
        ["epochs retired", epochs["retired"]],
        ["final epoch", epochs["current"]],
        ["final checkpoint", checkpoint.get("kind", "none")],
        ["checkpoint id", checkpoint.get("checkpoint_id", "")],
    ]
    headers = ["field", "value"]
    print("# serve drained cleanly")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def _parse_connect(value: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` connect string (port optional)."""
    host, _, port = value.rpartition(":")
    if not host:
        return value, DEFAULT_PORT
    try:
        return host, int(port)
    except ValueError:
        raise DatasetError(
            f"--connect expects HOST or HOST:PORT, got {value!r}"
        ) from None


def _cmd_query(args: argparse.Namespace) -> int:
    """Answer topk/pairs/stats questions over a live daemon connection.

    Everything requested in one invocation — ``--stats`` and a query — runs
    over the *same* socket (one handshake, no reconnect between requests).
    ``--repeat N`` re-runs the query N times on that connection and prints a
    round-trip latency summary, so publish/epoch-swap pauses are observable
    from the client side.
    """
    if args.repeat < 1:
        print(f"error: --repeat must be >= 1, got {args.repeat}", file=sys.stderr)
        return 2
    try:
        host, port = _parse_connect(args.connect)
        with ServingClient(host, port) as client:
            if args.stats:
                stats = client.stats()
                server = stats["server"]
                rows = [
                    ["server", f"{host}:{port}"],
                    ["version", server["version"]],
                    ["epoch", server["epochs"]["current"]],
                    ["epochs published", server["epochs"]["published"]],
                    ["noop publishes", server["epochs"].get("noops", 0)],
                    ["epochs retired", server["epochs"]["retired"]],
                    ["inflight requests", server["inflight"]],
                    ["workers", server["workers"]],
                    ["users", stats["users"]],
                    ["elements ingested", stats["elements_ingested"]],
                    ["memory bits", stats["memory_bits"]],
                ]
                headers = ["field", "value"]
                print(f"# daemon stats at epoch {server['epochs']['current']}")
                print(
                    render_csv(headers, rows)
                    if args.csv
                    else render_table(headers, rows)
                )
            if args.stats and args.user is None:
                return 0
            latencies = []
            for _ in range(args.repeat):
                started = time.perf_counter()
                if args.user is not None:
                    result = client.nearest(
                        args.user,
                        k=args.k,
                        minimum_cardinality=args.min_cardinality,
                        index=args.index,
                    )
                else:
                    result = client.top_k_pairs(
                        k=args.k,
                        minimum_cardinality=args.min_cardinality,
                        prefilter_threshold=args.prefilter,
                        candidates="lsh" if args.index == "lsh" else "all",
                    )
                latencies.append(time.perf_counter() - started)
            if args.user is not None:
                rows = [
                    [pair.user_b, pair.jaccard, pair.common_items] for pair in result
                ]
                headers = ["user", "jaccard", "common items"]
                print(
                    f"# top-{args.k} users most similar to user {args.user} "
                    f"(daemon epoch {client.epoch})"
                )
            else:
                rows = [
                    [pair.user_a, pair.user_b, pair.jaccard, pair.common_items]
                    for pair in result
                ]
                headers = ["user a", "user b", "jaccard", "common items"]
                print(
                    f"# top-{args.k} most similar pairs (daemon epoch {client.epoch})"
                )
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    if args.repeat > 1:
        ordered = sorted(latencies)
        p50 = ordered[len(ordered) // 2]
        p99 = ordered[min(len(ordered) - 1, (len(ordered) * 99) // 100)]
        print(
            f"# latency over {args.repeat} round-trips: "
            f"p50 {p50 * 1e3:.2f}ms p99 {p99 * 1e3:.2f}ms "
            f"min {ordered[0] * 1e3:.2f}ms max {ordered[-1] * 1e3:.2f}ms"
        )
    return 0


def _cmd_bias(args: argparse.Namespace) -> int:
    rows = []
    methods = ("MinHash", "OPH", "RP", "VOS")
    for rate in args.rates:
        report = measure_sampling_bias(rate, seed=args.seed)
        rows.append(
            [f"{rate:.2f}", report.deletion_fraction]
            + [report.mean_signed_error[m] for m in methods]
        )
    headers = ["deletion rate", "deletion fraction"] + [f"bias({m})" for m in methods]
    print("# Ablation A3: signed Jaccard-estimation bias vs deletion intensity")
    print(render_csv(headers, rows) if args.csv else render_table(headers, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the VOS paper's experiments (ICDE 2019).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
        help="print the package version and exit",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="warning",
        help="structured logging verbosity (journal/checkpoint events log "
        "shard ids and sequence numbers at info/debug)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser("datasets", help="list synthetic datasets")
    datasets_parser.add_argument("--csv", action="store_true")
    datasets_parser.set_defaults(handler=_cmd_datasets)

    fig2a = subparsers.add_parser("figure2a", help="runtime vs sketch size (YouTube)")
    _add_common_options(fig2a)
    fig2a.add_argument(
        "--sketch-sizes",
        type=int,
        nargs="+",
        default=[10, 100, 1000, 10000],
        help="sketch sizes k to sweep",
    )
    fig2a.set_defaults(handler=_cmd_figure2a)

    fig2b = subparsers.add_parser("figure2b", help="runtime across datasets")
    _add_common_options(fig2b)
    fig2b.add_argument("--sketch-size", type=int, default=10000, help="sketch size k")
    fig2b.set_defaults(handler=_cmd_figure2b)

    for label, metric, over_time in (
        ("a", "aape", True),
        ("b", "aape", False),
        ("c", "armse", True),
        ("d", "armse", False),
    ):
        sub = subparsers.add_parser(
            f"figure3{label}",
            help=f"{metric.upper()} {'over time (YouTube)' if over_time else 'across datasets'}",
        )
        _add_common_options(sub)
        _add_accuracy_options(sub)
        if over_time:
            sub.set_defaults(
                handler=lambda args, metric=metric, label=label: _cmd_figure3_over_time(
                    args, metric, label
                )
            )
        else:
            sub.set_defaults(
                handler=lambda args, metric=metric, label=label: _cmd_figure3_datasets(
                    args, metric, label
                )
            )

    search_parser = subparsers.add_parser(
        "search", help="find the most similar user pairs of a dataset"
    )
    _add_common_options(search_parser)
    search_parser.add_argument("--dataset", default="youtube", help="dataset name")
    search_parser.add_argument("--method", default="VOS", help="sketch to search with")
    search_parser.add_argument("--registers", type=int, default=24, help="baseline sketch size k")
    search_parser.add_argument("--top-users", type=int, default=40, help="candidate users")
    search_parser.add_argument("-k", type=int, default=10, dest="k", help="pairs to return")
    search_parser.set_defaults(handler=_cmd_search)

    ingest_parser = subparsers.add_parser(
        "ingest", help="batch-ingest a stream file and snapshot the service state"
    )
    ingest_parser.add_argument("--stream", required=True, help="stream file to ingest")
    ingest_parser.add_argument(
        "--snapshot", required=True, help="where to write the sketch snapshot"
    )
    ingest_parser.add_argument("--shards", type=int, default=4, help="VOS shards")
    ingest_parser.add_argument(
        "--registers", type=int, default=24, help="baseline sketch size k for the budget"
    )
    ingest_parser.add_argument(
        "--batch-size", type=int, default=8192, help="ingest batch size"
    )
    ingest_parser.add_argument(
        "--format",
        choices=("auto", "text", "binary"),
        default="auto",
        help="stream file format (auto detects via magic bytes)",
    )
    ingest_parser.add_argument("--seed", type=int, default=0, help="sketch seed")
    ingest_parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip stream feasibility validation and ingest via the chunked "
        "columnar reader (the stream is never materialized in memory)",
    )
    ingest_parser.add_argument("--csv", action="store_true")
    ingest_parser.set_defaults(handler=_cmd_ingest)

    convert_parser = subparsers.add_parser(
        "convert", help="convert a stream file between text and binary formats"
    )
    convert_parser.add_argument("--input", required=True, help="stream file to read")
    convert_parser.add_argument("--output", required=True, help="stream file to write")
    convert_parser.add_argument(
        "--to",
        choices=("auto", "text", "binary"),
        default="auto",
        help="target format (auto picks binary for a .vosstream suffix)",
    )
    convert_parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip stream feasibility validation while reading",
    )
    convert_parser.add_argument("--csv", action="store_true")
    convert_parser.set_defaults(handler=_cmd_convert)

    topk_parser = subparsers.add_parser(
        "topk", help="query a snapshot for a user's most similar users"
    )
    topk_parser.add_argument("--snapshot", required=True, help="snapshot to query")
    topk_parser.add_argument("--user", type=int, required=True, help="query user id")
    topk_parser.add_argument("-k", type=int, default=10, dest="k", help="neighbours")
    topk_parser.add_argument(
        "--min-cardinality", type=int, default=1, help="ignore smaller users"
    )
    topk_parser.add_argument(
        "--index",
        choices=("none", "lsh"),
        default="none",
        help="candidate generation: scan every user, or only the users the "
        "LSH banding index proposes",
    )
    _add_index_options(topk_parser)
    topk_parser.add_argument("--csv", action="store_true")
    topk_parser.set_defaults(handler=_cmd_topk)

    pairs_parser = subparsers.add_parser(
        "pairs", help="vectorized top-k similar-pair search over a snapshot"
    )
    pairs_parser.add_argument("--snapshot", required=True, help="snapshot to query")
    pairs_parser.add_argument("-k", type=int, default=10, dest="k", help="pairs to return")
    pairs_parser.add_argument(
        "--min-cardinality", type=int, default=1, help="ignore smaller users"
    )
    pairs_parser.add_argument(
        "--prefilter",
        type=float,
        default=0.0,
        help="cardinality pre-filter threshold (prunes pairs whose size-ratio "
        "bound is below it)",
    )
    pairs_parser.add_argument(
        "--index",
        choices=("all", "lsh"),
        default="all",
        help="candidate generation: enumerate all pairs, or only the pairs "
        "the LSH banding index proposes",
    )
    _add_index_options(pairs_parser)
    pairs_parser.add_argument("--csv", action="store_true")
    pairs_parser.set_defaults(handler=_cmd_pairs)

    index_parser = subparsers.add_parser(
        "index", help="LSH banding candidate index over a snapshot"
    )
    index_subparsers = index_parser.add_subparsers(dest="index_command", required=True)
    for name, handler, description in (
        ("build", _cmd_index_build, "build the index and report its layout"),
        ("stats", _cmd_index_stats, "candidate-reduction statistics"),
    ):
        sub = index_subparsers.add_parser(name, help=description)
        sub.add_argument("--snapshot", required=True, help="snapshot to index")
        _add_index_options(sub)
        sub.add_argument("--csv", action="store_true")
        sub.set_defaults(handler=handler)

    snapshot_parser = subparsers.add_parser(
        "snapshot", help="incremental persistence: full/delta checkpoints and compaction"
    )
    snapshot_subparsers = snapshot_parser.add_subparsers(
        dest="snapshot_command", required=True
    )
    for name, handler, description, takes_stream in (
        ("save", _cmd_snapshot_save, "rewrite a full checkpoint (resets the journal)", True),
        ("delta", _cmd_snapshot_delta, "append changed words/counters to the journal", True),
        ("compact", _cmd_snapshot_compact, "fold the journal into a fresh full checkpoint", False),
        ("info", _cmd_snapshot_info, "describe a snapshot file and its journal", False),
    ):
        sub = snapshot_subparsers.add_parser(name, help=description)
        sub.add_argument("--snapshot", required=True, help="snapshot file to operate on")
        if takes_stream:
            sub.add_argument(
                "--stream",
                default=None,
                required=(name == "delta"),
                help="stream file to ingest first (chunked columnar reader)",
            )
            sub.add_argument(
                "--format",
                choices=("auto", "text", "binary"),
                default="auto",
                help="stream file format (auto detects via magic bytes)",
            )
        if name == "save":
            sub.add_argument(
                "--with-index",
                action="store_true",
                help="build the LSH banding index and persist its signature "
                "tables inside the snapshot (O(1) restart to first lsh query)",
            )
        sub.add_argument("--csv", action="store_true")
        sub.set_defaults(handler=handler)

    shards_parser = subparsers.add_parser(
        "shards", help="cross-shard VOS accuracy across shard counts"
    )
    _add_common_options(shards_parser)
    _add_accuracy_options(shards_parser)
    shards_parser.add_argument("--dataset", default="youtube", help="dataset name")
    shards_parser.add_argument(
        "--shard-counts",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8],
        help="shard counts N to compare (each under the same total budget)",
    )
    shards_parser.set_defaults(handler=_cmd_shards)

    bias_parser = subparsers.add_parser("bias", help="sampling-bias ablation (A3)")
    bias_parser.add_argument(
        "--rates", type=float, nargs="+", default=[0.0, 0.2, 0.4], help="deletion rates"
    )
    bias_parser.add_argument("--seed", type=int, default=0)
    bias_parser.add_argument("--csv", action="store_true")
    bias_parser.set_defaults(handler=_cmd_bias)

    metrics_parser = subparsers.add_parser(
        "metrics", help="inspect the in-process metrics registry"
    )
    metrics_subparsers = metrics_parser.add_subparsers(
        dest="metrics_command", required=True
    )
    for name, description in (
        ("show", "exercise a snapshot and print a metrics table"),
        ("dump", "exercise a snapshot and dump metrics as JSON/Prometheus"),
    ):
        sub = metrics_subparsers.add_parser(name, help=description)
        sub.add_argument("--snapshot", required=True, help="snapshot file to load")
        sub.add_argument("--stream", help="optional stream file to ingest first")
        sub.add_argument("-k", type=int, default=10, help="top-k pairs to query")
        if name == "show":
            sub.add_argument("--csv", action="store_true")
            sub.set_defaults(handler=_cmd_metrics_show)
        else:
            sub.add_argument(
                "--format",
                choices=("json", "prometheus"),
                default="json",
                help="dump format (default: json)",
            )
            sub.add_argument("--out", help="also write the dump to this file")
            sub.set_defaults(handler=_cmd_metrics_dump)
    reset_parser = metrics_subparsers.add_parser(
        "reset", help="zero every metric in this process"
    )
    reset_parser.set_defaults(handler=_cmd_metrics_reset)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the serving daemon over a snapshot (epoch-versioned reads)",
    )
    serve_parser.add_argument(
        "--snapshot", required=True, help="snapshot file to serve (journal replayed)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: localhost)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port (default: {DEFAULT_PORT}; 0 = ephemeral)",
    )
    serve_parser.add_argument(
        "--serve-workers",
        type=int,
        default=4,
        help="request worker threads",
    )
    _add_index_options(serve_parser)
    serve_parser.add_argument("--csv", action="store_true")
    serve_parser.set_defaults(handler=_cmd_serve)

    query_parser = subparsers.add_parser(
        "query", help="query a running serving daemon (see `repro serve`)"
    )
    query_parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="daemon address, e.g. 127.0.0.1:7437",
    )
    query_parser.add_argument(
        "--user",
        type=int,
        default=None,
        help="nearest-neighbour query for this user (omit for top-k pairs)",
    )
    query_parser.add_argument("-k", type=int, default=10, dest="k", help="results")
    query_parser.add_argument(
        "--min-cardinality", type=int, default=1, help="ignore smaller users"
    )
    query_parser.add_argument(
        "--prefilter",
        type=float,
        default=0.0,
        help="cardinality pre-filter threshold for pair queries",
    )
    query_parser.add_argument(
        "--index",
        choices=("none", "lsh"),
        default="none",
        help="route candidate generation through the daemon's banding index",
    )
    query_parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print daemon + service stats; combined with --user, both run "
            "over the same connection"
        ),
    )
    query_parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run the query N times on one connection and report p50/p99 latency",
    )
    query_parser.add_argument("--csv", action="store_true")
    query_parser.set_defaults(handler=_cmd_query)

    kernels_parser = subparsers.add_parser(
        "kernels",
        help="show the scoring kernel tier (native/numpy) and micro-time both",
    )
    kernels_parser.add_argument(
        "--bench",
        action="store_true",
        help="micro-time both tiers on a synthetic block (asserts bit-identity)",
    )
    kernels_parser.add_argument(
        "--users", type=int, default=2000, help="synthetic pool size for --bench"
    )
    kernels_parser.add_argument(
        "--pairs", type=int, default=200_000, help="pairs scored per tier for --bench"
    )
    kernels_parser.add_argument(
        "--sketch-size", type=int, default=1536, help="virtual sketch bits k for --bench"
    )
    kernels_parser.add_argument("--seed", type=int, default=0, help="synthetic data seed")
    kernels_parser.add_argument(
        "--csv", action="store_true", help="emit CSV instead of a table"
    )
    kernels_parser.set_defaults(handler=_cmd_kernels)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
