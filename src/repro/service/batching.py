"""Array-native batch assembly and timed batch ingest.

The service layer never feeds sketches element by element: stream input is
chopped into :class:`~repro.streams.batch.ElementBatch` columns and handed to
:meth:`~repro.baselines.base.SimilaritySketch.process_batch`, which sketches
with a vectorized fast path (VOS, sharded VOS) turn into a handful of numpy
operations.  This module owns the two pieces every caller needs:

* :func:`iter_batches` — chop any element iterable, ``ElementBatch`` iterable
  (e.g. :func:`~repro.streams.io.iter_stream_batches` straight off a
  ``.vosstream`` file) or single batch into ``ElementBatch`` chunks of a
  fixed maximum size;
* :func:`ingest_stream` — drive a sketch over a whole stream batch-by-batch
  on the caller's thread and return an :class:`IngestReport` with per-phase
  timings.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import groupby, islice

from repro.baselines.base import SimilaritySketch
from repro.exceptions import ConfigurationError
from repro.obs import get_registry, timed
from repro.streams.batch import ElementBatch
from repro.streams.edge import StreamElement

#: Default ingest batch size used by the service layer and the CLI.
DEFAULT_BATCH_SIZE = 8192


def _sliced(batch: ElementBatch, batch_size: int) -> Iterator[ElementBatch]:
    for start in range(0, len(batch), batch_size):
        yield batch.slice(start, start + batch_size)


def iter_batches(
    source: Iterable[StreamElement] | Iterable[ElementBatch] | ElementBatch,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[ElementBatch]:
    """Yield consecutive :class:`ElementBatch` chunks of up to ``batch_size``.

    ``source`` may be an iterable of stream elements (a
    :class:`~repro.streams.stream.GraphStream`, a list), an iterable of
    ``ElementBatch`` objects (chunked stream readers), a mix of the two, or a
    single ``ElementBatch``.  Order is preserved and every element appears in
    exactly one yielded batch, so feeding the batches to ``process_batch`` is
    state-equivalent to feeding the original input to per-element ``process``.
    Pre-built batches are re-chunked with NumPy slicing (no per-element work);
    a flush at a batch boundary may yield a chunk shorter than ``batch_size``.
    """
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    if isinstance(source, ElementBatch):
        yield from _sliced(source, batch_size)
        return
    pending: list[StreamElement] = []
    # Runs of same-typed entries are split and chunked in C (groupby,
    # islice): no Python-level step per element.
    for kind, run in groupby(source, key=type):
        if issubclass(kind, ElementBatch):
            if pending:
                yield ElementBatch.from_elements(pending)
                pending = []
            for batch in run:
                yield from _sliced(batch, batch_size)
            continue
        while True:
            pending.extend(islice(run, batch_size - len(pending)))
            if len(pending) < batch_size:
                break
            yield ElementBatch.from_elements(pending)
            pending = []
    if pending:
        yield ElementBatch.from_elements(pending)


@dataclass(frozen=True)
class IngestReport:
    """Throughput accounting for one ingest run.

    Attributes
    ----------
    elements:
        Stream elements consumed.
    batches:
        Number of batches they were grouped into.
    seconds:
        Total wall-clock time of the ingest run.
    assemble_seconds:
        Time spent pulling/columnarizing batches from the source (stream
        parsing, list-to-column conversion).
    process_seconds:
        Time spent inside ``process_batch``.

    All timings are sums of the per-batch ``repro.obs`` spans
    (``ingest.run``/``ingest.assemble``/``ingest.process``), so when the
    metrics registry is enabled the report and the registry histograms are
    fed from the same measurements and can never disagree.
    """

    elements: int
    batches: int
    seconds: float
    assemble_seconds: float = 0.0
    process_seconds: float = 0.0

    @property
    def elements_per_second(self) -> float:
        """Ingest throughput; 0 when nothing was processed."""
        if self.seconds <= 0.0:
            return 0.0
        return self.elements / self.seconds


def ingest_stream(
    sketch: SimilaritySketch,
    source: Iterable[StreamElement] | Iterable[ElementBatch] | ElementBatch,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> IngestReport:
    """Feed ``source`` to ``sketch`` in batches and report per-phase throughput.

    Every batch goes through ``sketch.process_batch`` on the caller's thread.
    """
    registry = get_registry()
    assemble = process = 0.0
    total = 0
    batches = 0
    iterator = iter_batches(source, batch_size)
    with timed("ingest.run", registry) as run_span:
        while True:
            with timed("ingest.assemble", registry) as span:
                batch = next(iterator, None)
            assemble += span.seconds
            if batch is None:
                break
            with timed("ingest.process", registry) as span:
                total += sketch.process_batch(batch)
            process += span.seconds
            batches += 1
    report = IngestReport(
        elements=total,
        batches=batches,
        seconds=run_span.seconds,
        assemble_seconds=assemble,
        process_seconds=process,
    )
    if registry.enabled:
        registry.inc("ingest.elements", total, unit="elements")
        registry.inc("ingest.batches", batches, unit="batches")
        registry.set_gauge(
            "ingest.elements_per_second", report.elements_per_second, unit="elements/s"
        )
    return report
