"""repro.server: the serving daemon, its client, and the wire protocol.

A long-running process built from three pieces:

* :mod:`repro.server.protocol` — CRC-checked, length-prefixed JSON frames
  over TCP, plus the version handshake and payload codecs;
* :mod:`repro.server.epochs` — epoch-versioned immutable service snapshots
  (publish / pin / drain / retire), so reads stay consistent during ingest;
* :mod:`repro.server.cow` — the copy-on-publish epoch publisher: a publish
  copies only the shards it touches and applies only its own delta, instead
  of freezing the whole state;
* :mod:`repro.server.daemon` / :mod:`repro.server.client` — the threaded
  request loop (``repro serve``) and the typed client
  (``repro query --connect``), answering bit-identically to the in-process
  :class:`~repro.service.service.SimilarityService`.
"""

from repro.server.client import ServingClient
from repro.server.cow import CowEpochPublisher
from repro.server.daemon import ServingDaemon
from repro.server.epochs import Epoch, EpochManager
from repro.server.protocol import DEFAULT_PORT, PROTOCOL_VERSION, REQUEST_OPS

__all__ = [
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "CowEpochPublisher",
    "Epoch",
    "EpochManager",
    "ServingClient",
    "ServingDaemon",
]
