"""The similarity *service* layer: batch ingest, sharding, snapshots, serving.

The core package proves the paper's sketch; this package turns it into a
system component.  These pieces compose:

* :mod:`repro.service.batching` — fixed-size batch assembly and timed batch
  ingest through the sketches' ``process_batch`` fast path;
* :mod:`repro.service.sharding` — :class:`ShardedVOS`, hash-partitioning users
  across independent VOS shards with sound cross-shard pair estimates;
* :mod:`repro.service.snapshot` — versioned, checksummed binary save/load of
  sketch state with a bit-exact round-trip guarantee, atomic writes, and a
  pluggable extra-section registry (the banding index persists its signature
  tables through it);
* :mod:`repro.service.delta` — the shard delta, the one record of what a
  shard changed after a consumer's cursor (journal checkpoints, epoch
  publishes and the process pool's merge-back all ship it);
* :mod:`repro.service.journal` — the write-ahead shard journal: CRC-framed
  shard deltas (plus index signature appends) between full checkpoints,
  replayed on load;
* :mod:`repro.service.service` — :class:`SimilarityService`, the facade that
  owns a sharded sketch and exposes ``ingest`` / ``estimate`` / ``top_k`` plus
  full/delta checkpointing and journal compaction under a
  :class:`CheckpointPolicy` (wired to the ``repro ingest`` / ``repro topk`` /
  ``repro snapshot`` CLI).
"""

from repro.service.batching import (
    DEFAULT_BATCH_SIZE,
    IngestReport,
    ingest_stream,
    iter_batches,
)
from repro.service.journal import (
    JournalConfig,
    JournalWriter,
    default_journal_path,
    journal_info,
    read_journal,
    replay_journal,
)
from repro.service.procpool import ProcessShardIngestor
from repro.service.service import CheckpointPolicy, ServiceConfig, SimilarityService
from repro.service.sharding import ShardedVOS
from repro.service.snapshot import (
    SnapshotState,
    dumps_snapshot,
    load_snapshot,
    load_snapshot_state,
    loads_snapshot,
    loads_snapshot_state,
    register_snapshot_section,
    save_snapshot,
    shard_snapshots,
    snapshot_info,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "IngestReport",
    "ingest_stream",
    "iter_batches",
    "ShardedVOS",
    "ProcessShardIngestor",
    "CheckpointPolicy",
    "ServiceConfig",
    "SimilarityService",
    "save_snapshot",
    "load_snapshot",
    "dumps_snapshot",
    "loads_snapshot",
    "load_snapshot_state",
    "loads_snapshot_state",
    "register_snapshot_section",
    "shard_snapshots",
    "snapshot_info",
    "SnapshotState",
    "JournalConfig",
    "JournalWriter",
    "default_journal_path",
    "journal_info",
    "read_journal",
    "replay_journal",
]
