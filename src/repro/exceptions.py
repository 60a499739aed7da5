"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause
while still distinguishing finer-grained conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """A sketch, stream, or experiment was configured with invalid parameters.

    Examples include a non-positive sketch size, a memory budget smaller than
    a single register, or a deletion probability outside ``[0, 1]``.
    """


class InfeasibleStreamError(ReproError):
    """A fully dynamic stream violated the feasibility constraint.

    Feasibility (Section II of the paper) requires that an insertion
    ``(u, i, "+")`` only occurs when item ``i`` is *not* currently subscribed
    by user ``u``, and a deletion ``(u, i, "-")`` only occurs when it *is*.
    """

    def __init__(self, message: str, *, time: int | None = None) -> None:
        super().__init__(message)
        self.time = time


class UnknownUserError(ReproError):
    """A similarity query referenced a user that never appeared in the stream."""

    def __init__(self, user: object) -> None:
        super().__init__(f"user {user!r} has never appeared in the stream")
        self.user = user


class EstimationError(ReproError):
    """An estimator could not produce a finite estimate.

    This typically happens when the observed sketch statistics fall outside
    the domain of the inversion formula (for example ``alpha >= 0.5`` in the
    odd-sketch inversion); estimators normally clamp instead of raising, but
    strict modes raise this error.
    """


class DatasetError(ReproError):
    """A dataset file or synthetic dataset specification could not be used."""


class SnapshotError(ReproError):
    """A sketch snapshot could not be written or restored.

    Raised for unrecognized or truncated snapshot files, unsupported format
    versions, payload corruption (checksum mismatch) and sketch state that the
    snapshot format cannot represent (e.g. non-integer user identifiers).
    """


class ProtocolError(ReproError):
    """A serving-protocol frame or handshake could not be honoured.

    Raised for corrupt frames (length/CRC mismatch, truncated reads, frames
    over the size ceiling), malformed request/response payloads, and
    client/daemon handshake mismatches — a client built at one protocol or
    package version refuses to talk to a daemon at another instead of
    silently mis-decoding frames.
    """


class ServerError(ReproError):
    """A serving daemon answered a request with an error response.

    Carries the exception type name the daemon raised remotely in
    ``remote_type`` so callers can branch on it (e.g. ``UnknownUserError``)
    without the server leaking stack frames over the wire.
    """

    def __init__(self, message: str, *, remote_type: str = "ReproError") -> None:
        super().__init__(message)
        self.remote_type = remote_type
