"""Span recording around the program's layer functions, from outside the program.

:func:`install` replaces a fixed list of public layer functions (module
functions and methods) with wrappers that record a span per call: name,
start, end, parent span and request id.  Spans stay in memory and are
written as one JSON file when the process ends (:meth:`Tracer.dump`); the
benchmark merges the files of every process of a run and reduces them with
:func:`summarize`.

Self time is a span's duration minus the time its child spans cover.  One
thread runs its spans strictly nested, so children never overlap and the
covered time is the sum of their durations.

The hottest leaf (``ShardedVOS.cardinality``, called once per user by a
nearest-neighbour scan) is aggregated as calls + seconds instead of one span
per call; its time still counts as child time of the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import select
import socket
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, rid, self_seconds)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._count_lock = threading.Lock()

    # -- per-thread state -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def rid(self):
        return getattr(self._local, "rid", None)

    @rid.setter
    def rid(self, value) -> None:
        self._local.rid = value

    def excluded(self) -> bool:
        """Requests with a negative id are checks outside the measured phase."""
        rid = self.rid
        return rid is not None and rid < 0

    def count(self, name: str, amount: float) -> None:
        if self.excluded():
            return
        with self._count_lock:
            self.counts[name] += amount

    # -- spans ------------------------------------------------------------------------

    def begin(self, name: str) -> list:
        with self._id_lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [span_id, name, time.perf_counter(), parent, self.rid, 0.0]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        finished = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = finished - frame[2]
        if stack:
            stack[-1][5] += duration
        span_id, name, started, parent, rid, child = frame
        if not (rid is not None and rid < 0):
            self.spans.append((span_id, name, started, finished, parent, rid, duration - child))
        return duration

    def leaf(self, name: str, seconds: float) -> None:
        """Aggregate a hot leaf call: no span record, but parent child time."""
        stack = self._stack()
        if stack:
            stack[-1][5] += seconds
        if self.excluded():
            return
        with self._count_lock:
            self.counts[f"{name}.calls"] += 1
            self.counts[f"{name}.seconds"] += seconds

    def snapshot(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.snapshot()))


# -- wrappers ---------------------------------------------------------------------------


def _span_wrapper(tracer: Tracer, name: str, original, hook=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        before = hook.before(args, kwargs) if hook else None
        frame = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(frame)
        if hook:
            hook.after(tracer, before, args, kwargs, result)
        return result

    return wrapper


def _generator_wrapper(tracer: Tracer, name: str, original):
    """Each resume of the generator is one span (lazy work happens there)."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        iterator = original(*args, **kwargs)
        while True:
            frame = tracer.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.end(frame)
            yield item

    return wrapper


def _leaf_wrapper(tracer: Tracer, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            tracer.leaf(name, time.perf_counter() - started)

    return wrapper


class _Hook:
    """Counts taken around a call (``before`` state, ``after`` increments)."""

    def __init__(self, after, before=None) -> None:
        self._after = after
        self._before = before

    def before(self, args, kwargs):
        return self._before(args, kwargs) if self._before else None

    def after(self, tracer, before, args, kwargs, result) -> None:
        self._after(tracer, before, args, kwargs, result)


def _cache_state(args, kwargs):
    shard = args[0]
    return shard.sketch_cache_info()


def _count_cache(tracer, before, args, kwargs, result):
    after = args[0].sketch_cache_info()
    tracer.count("vos.row_cache_hits", after["hits"] - before["hits"])
    tracer.count("vos.row_cache_misses", after["misses"] - before["misses"])


def _count_rows(tracer, before, args, kwargs, result):
    tracer.count("families.rows_recovered", len(result))


def _count_dirty(tracer, before, args, kwargs, result):
    tracer.count("bitarray.dirty_words", len(result))


def _count_journal(tracer, before, args, kwargs, result):
    tracer.count("journal.bytes", result)


def _rebuild_state(args, kwargs):
    return args[0].stats()["rebuilds"]


def _count_rebuilds(tracer, before, args, kwargs, result):
    tracer.count("banding.rebuilds", args[0].stats()["rebuilds"] - before)


def _count_candidates(tracer, before, args, kwargs, result):
    pool = args[2] if len(args) > 2 else kwargs["pool"]
    tracer.count("banding.candidates", len(result))
    tracer.count("banding.pool", len(pool))


def _count_pairs(tracer, before, args, kwargs, result):
    tracer.count("kernels.pairs_scored", len(result))


def _count_frame(tracer, before, args, kwargs, result):
    tracer.count("protocol.frame_bytes", result)


def _count_ingest(tracer, before, args, kwargs, result):
    tracer.count("service.elements_ingested", result.elements)


def _cow_state(args, kwargs):
    return args[0].stats()["rebases"]


def _count_cow(tracer, before, args, kwargs, result):
    delta = args[1]
    tracer.count("cow.publishes", 1)
    tracer.count("cow.delta_words", sum(len(entry["words"]) for entry in delta["shards"]))
    tracer.count("cow.rebases", args[0].stats()["rebases"] - before)


#: ``(module, attribute path, span name, kind, hook)`` for every traced layer
#: function.  ``kind`` is ``span``, ``generator`` or ``leaf``.
LAYER_FUNCTIONS = [
    ("repro.service.sharding", "ShardedVOS.split_by_shard", "sharding.split", "generator", None),
    ("repro.service.sharding", "ShardedVOS.cardinality", "sharding.cardinality", "leaf", None),
    ("repro.core.vos", "VirtualOddSketch.process_batch", "vos.process_batch", "span", None),
    ("repro.core.vos", "VirtualOddSketch._packed_rows", "vos.packed_rows", "span",
     _Hook(_count_cache, _cache_state)),
    ("repro.core.vos", "VirtualOddSketch.packed_rows", "vos.packed_rows", "span", None),
    ("repro.hashing.families", "HashFamily.hash_pairs", "families.hash_pairs", "span", None),
    ("repro.hashing.families", "HashFamily.apply_many_array", "families.apply_many_array",
     "span", _Hook(_count_rows)),
    ("repro.core.bitarray", "SharedBitArray.xor_bulk", "bitarray.xor_bulk", "span", None),
    ("repro.core.bitarray", "SharedBitArray.dirty_words", "bitarray.dirty_words", "span",
     _Hook(_count_dirty)),
    ("repro.core.bitarray", "SharedBitArray.epoch_dirty_words", "bitarray.dirty_words", "span",
     _Hook(_count_dirty)),
    ("repro.service.journal", "JournalWriter.append_delta", "journal.append", "span",
     _Hook(_count_journal)),
    ("repro.service.snapshot", "load_snapshot_state", "snapshot.load", "span", None),
    ("repro.index.banding", "BandedSketchIndex.refresh", "banding.refresh", "span",
     _Hook(_count_rebuilds, _rebuild_state)),
    ("repro.index.banding", "BandedSketchIndex.neighbour_candidates",
     "banding.neighbour_candidates", "span", _Hook(_count_candidates)),
    ("repro.kernels", "pair_counts", "kernels.pair_xor_counts", "span", _Hook(_count_pairs)),
    ("repro.similarity.search", "nearest_neighbours", "search.nearest", "span", None),
    ("repro.similarity.search", "top_k_similar_pairs", "search.top_k_pairs", "span", None),
    ("repro.server.protocol", "send_frame", "protocol.send", "span", _Hook(_count_frame)),
    ("repro.server.cow", "CowEpochPublisher.publish_delta", "cow.publish_delta", "span",
     _Hook(_count_cow, _cow_state)),
    ("repro.service.service", "SimilarityService.freeze_delta", "service.freeze_delta",
     "span", None),
    ("repro.service.service", "SimilarityService.ingest", "service.ingest", "span",
     _Hook(_count_ingest)),
    ("repro.service.service", "SimilarityService.save_delta", "service.save_delta", "span",
     None),
]


def _replace_everywhere(original, replacement) -> None:
    """Rebind a module-level function in every ``repro`` module importing it."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _traced_recv(tracer: Tracer, original):
    """``recv_frame`` timed from the moment the frame is readable.

    Waiting for the peer to send (client think time on the daemon side,
    daemon work on the client side) is not protocol work, so the wrapper
    waits for readability first — honouring the socket's timeout exactly as
    a blocking read would — and only then opens the span.  The daemon side
    also clears the thread's request id here: a new frame is a new request.
    """

    @functools.wraps(original)
    def wrapper(sock, *args, **kwargs):
        readable, _, _ = select.select([sock], [], [], sock.gettimeout())
        if not readable:
            raise socket.timeout("timed out")
        if tracer.daemon_side:
            tracer.rid = None
        frame = tracer.begin("protocol.recv")
        try:
            return original(sock, *args, **kwargs)
        finally:
            tracer.end(frame)

    return wrapper


def _traced_send(tracer: Tracer, traced_send):
    """Client side: stamp the current request id into the outgoing frame."""

    @functools.wraps(traced_send)
    def wrapper(sock, payload, *args, **kwargs):
        if tracer.rid is not None:
            payload = {**payload, "rid": tracer.rid}
        return traced_send(sock, payload, *args, **kwargs)

    return wrapper


def _traced_dispatch(tracer: Tracer, original):
    """Daemon side: one ``daemon.handler`` span per request, keyed by its id."""

    @functools.wraps(original)
    def wrapper(self, request):
        tracer.rid = request.get("rid")
        frame = tracer.begin(f"daemon.handler.{request.get('op')}")
        try:
            return original(self, request)
        finally:
            tracer.end(frame)

    return wrapper


def install(tracer: Tracer, *, side: str) -> None:
    """Wrap the layer functions of one process.

    ``side`` is ``system`` for a process running the program (ingest, build
    or daemon: every layer function) or ``client`` for the benchmark's own
    process, where only the wire functions are wrapped, so in-process
    reference answers computed there stay out of the trace.
    """
    tracer.daemon_side = side == "system"
    for module_name in ("repro.cli", "repro.server.daemon", "repro.server.client"):
        importlib.import_module(module_name)
    for module_name, path, name, kind, hook in LAYER_FUNCTIONS:
        if side == "client" and name != "protocol.send":
            continue
        module = importlib.import_module(module_name)
        owner_name, _, attribute = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = inspect.getattr_static(owner, attribute)
        if kind == "generator":
            replacement = _generator_wrapper(tracer, name, original)
        elif kind == "leaf":
            replacement = _leaf_wrapper(tracer, name, original)
        else:
            replacement = _span_wrapper(tracer, name, original, hook)
        if name == "protocol.send" and side == "client":
            replacement = _traced_send(tracer, replacement)
        if owner_name:
            setattr(owner, attribute, replacement)
        else:
            _replace_everywhere(original, replacement)
    protocol = importlib.import_module("repro.server.protocol")
    _replace_everywhere(protocol.recv_frame, _traced_recv(tracer, protocol.recv_frame))
    if side == "client":
        return
    daemon = importlib.import_module("repro.server.daemon")
    daemon.ServingDaemon._dispatch = _traced_dispatch(tracer, daemon.ServingDaemon._dispatch)


# -- reduction --------------------------------------------------------------------------

#: Span names whose summed self time is reported as ``<metric>`` (ms).
SELF_TIME_METRICS = {
    "sharding.split_ms": "sharding.split",
    "vos.process_batch_ms": "vos.process_batch",
    "vos.packed_rows_ms": "vos.packed_rows",
    "families.hash_pairs_ms": "families.hash_pairs",
    "families.apply_many_array_ms": "families.apply_many_array",
    "bitarray.xor_bulk_ms": "bitarray.xor_bulk",
    "journal.append_ms": "journal.append",
    "snapshot.load_ms": "snapshot.load",
    "banding.refresh_ms": "banding.refresh",
    "banding.neighbour_candidates_ms": "banding.neighbour_candidates",
    "kernels.pair_xor_counts_ms": "kernels.pair_xor_counts",
    "search.nearest_self_ms": "search.nearest",
    "search.top_k_pairs_self_ms": "search.top_k_pairs",
    "protocol.recv_ms": "protocol.recv",
    "protocol.send_ms": "protocol.send",
    "cow.publish_delta_ms": "cow.publish_delta",
    "service.freeze_delta_ms": "service.freeze_delta",
}

#: Daemon ops whose median handler time is reported.
HANDLER_OPS = ("nearest", "estimate_many", "top_k_pairs", "ingest_batch")


def _median(values: list[float]) -> float:
    """The median, or 0 for a layer the workload did not run."""
    return statistics.median(values) if values else 0.0


def summarize(dumps: list[dict], client_requests: dict) -> dict[str, float]:
    """Per-layer metrics from every process's span dump of one run.

    ``client_requests`` maps request id to the client-side round-trip
    seconds, so ``wire_p50_ms`` is the median of round trip minus the daemon
    handler span of the same request.
    """
    self_seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    handlers: dict[str, dict] = defaultdict(dict)
    for dump in dumps:
        for _, name, started, finished, _, rid, own in dump["spans"]:
            self_seconds[name] += own
            if name.startswith("daemon.handler.") and rid is not None:
                handlers[name.rsplit(".", 1)[1]][rid] = finished - started
        for name, value in dump["counts"].items():
            counts[name] += value
    metrics = {metric: self_seconds[name] * 1e3 for metric, name in SELF_TIME_METRICS.items()}
    metrics["sharding.cardinality_calls"] = counts["sharding.cardinality.calls"]
    metrics["sharding.cardinality_ms"] = counts["sharding.cardinality.seconds"] * 1e3
    looked_up = counts["vos.row_cache_hits"] + counts["vos.row_cache_misses"]
    metrics["vos.row_cache_hit_ratio"] = counts["vos.row_cache_hits"] / looked_up if looked_up else 0.0
    metrics["families.rows_recovered"] = counts["families.rows_recovered"]
    metrics["bitarray.dirty_words"] = counts["bitarray.dirty_words"]
    elements = counts["service.elements_ingested"]
    metrics["journal.bytes_per_element"] = counts["journal.bytes"] / elements if elements else 0.0
    metrics["banding.rebuilds"] = counts["banding.rebuilds"]
    pool = counts["banding.pool"]
    metrics["banding.candidate_fraction"] = counts["banding.candidates"] / pool if pool else 0.0
    metrics["kernels.pairs_scored"] = counts["kernels.pairs_scored"]
    metrics["protocol.frame_bytes"] = counts["protocol.frame_bytes"]
    for op in HANDLER_OPS:
        metrics[f"daemon.{op}_handler_p50_ms"] = _median(list(handlers[op].values())) * 1e3
    wire = [
        seconds - handlers[op][rid]
        for rid, (op, seconds) in client_requests.items()
        if rid in handlers[op]
    ]
    metrics["wire_p50_ms"] = _median(wire) * 1e3
    publishes = counts["cow.publishes"]
    metrics["banding.rebuilds_per_publish"] = (
        counts["banding.rebuilds"] / publishes if publishes else 0.0
    )
    metrics["cow.delta_words"] = counts["cow.delta_words"]
    metrics["cow.rebases"] = counts["cow.rebases"]
    return metrics
