"""Integration tests: the serving daemon vs the in-process service.

The acceptance bar of the serving subsystem: every answer a daemon gives must
compare ``==`` with the in-process :class:`SimilarityService` answer for the
same question on the same state (including string user ids), epochs must swap
live under reader traffic without tearing a request, and shutdown must drain
cleanly — including the final journal checkpoint when the writer is bound to
a snapshot.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro._version import __version__
from repro.core.vos import VirtualOddSketch
from repro.exceptions import ConfigurationError, ProtocolError, ServerError
from repro.server import ServingClient, ServingDaemon, protocol
from repro.service.journal import default_journal_path
from repro.service.service import SimilarityService
from repro.streams import Action, StreamElement


def _elements(users: range, items_per_user: int = 14) -> list[StreamElement]:
    return [
        StreamElement(user, user + offset, Action.INSERT)
        for user in users
        for offset in range(items_per_user)
    ]


def _service(seed: int = 11) -> SimilarityService:
    sketch = VirtualOddSketch(
        shared_array_bits=1 << 14, virtual_sketch_size=256, seed=seed
    )
    service = SimilarityService(sketch)
    service.ingest(_elements(range(25)))
    return service


@pytest.fixture
def daemon():
    with ServingDaemon(_service(), workers=3) as running:
        yield running


@pytest.fixture
def client(daemon):
    with ServingClient(*daemon.address) as connected:
        yield connected


class TestWireParity:
    def test_hello_carries_version_and_epoch(self, client):
        assert client.server_version == __version__
        assert client.epoch == 1

    def test_top_k_pairs_bit_identical(self, daemon, client):
        local = daemon.writer.top_k_pairs(k=8, prefilter_threshold=0.1)
        remote = client.top_k_pairs(k=8, prefilter_threshold=0.1)
        assert remote == local

    def test_nearest_bit_identical(self, daemon, client):
        assert client.nearest(5, k=6) == daemon.writer.top_k(5, k=6)

    def test_nearest_with_lsh_index_bit_identical(self, daemon, client):
        local = daemon.writer.top_k(7, k=5, index="lsh")
        assert client.nearest(7, k=5, index="lsh") == local

    def test_top_k_pairs_with_lsh_candidates_bit_identical(self, daemon, client):
        local = daemon.writer.top_k_pairs(k=6, candidates="lsh")
        assert client.top_k_pairs(k=6, candidates="lsh") == local

    def test_estimate_many_bit_identical(self, daemon, client):
        pairs = [(0, 1), (3, 4), (10, 20), (2, 24)]
        assert client.estimate_many(pairs) == daemon.writer.estimate_many(pairs)

    def test_single_estimate(self, daemon, client):
        assert client.estimate(1, 2) == daemon.writer.estimate(1, 2)

    def test_string_user_ids_survive_the_wire(self):
        sketch = VirtualOddSketch(
            shared_array_bits=1 << 13, virtual_sketch_size=128, seed=3
        )
        service = SimilarityService(sketch)
        users = ["alice", "bob", "carol", "dave"]
        service.ingest(
            [
                StreamElement(user, item, Action.INSERT)
                for index, user in enumerate(users)
                for item in range(index, index + 10)
            ]
        )
        with ServingDaemon(service, workers=2) as daemon:
            with ServingClient(*daemon.address) as client:
                local_pairs = service.top_k_pairs(k=4)
                assert client.top_k_pairs(k=4) == local_pairs
                wire = client.estimate_many([("alice", "bob")])[0]
                assert wire == service.estimate("alice", "bob")
                assert wire.user_a == "alice" and isinstance(wire.user_a, str)

    def test_ping_and_stats_and_metrics(self, client):
        assert client.ping()["epoch"] == 1
        stats = client.stats()
        assert stats["users"] == 25
        assert stats["server"]["epochs"]["current"] == 1
        metrics = client.metrics()
        assert "server.requests" in metrics["counters"]


class TestLiveIngest:
    def test_ingest_batch_publishes_a_new_epoch(self, daemon, client):
        before = client.top_k_pairs(k=3)
        report = client.ingest_batch(_elements(range(100, 102)))
        assert report["epoch"] == 2
        assert report["elements"] == 28
        assert client.epoch == 2
        after = client.nearest(100, k=2)
        assert after and all(100 in (p.user_a, p.user_b) for p in after)
        # the writer and the published epoch answer identically
        assert client.top_k_pairs(k=3) == daemon.writer.top_k_pairs(k=3)
        assert before  # old epoch's answer was served, not torn

    def test_ingest_batch_reply_fields(self, daemon, client):
        report = client.ingest_batch(_elements(range(150, 151)), publish=False)
        assert set(report) == {
            "epoch",
            "published",
            "publish_mode",
            "elements",
            "batches",
            "seconds",
            "users",
        }
        assert report["published"] is False
        assert report["publish_mode"] == "deferred"
        assert report["users"] == len(daemon.writer.sketch.users())

    def test_unpublished_ingest_keeps_the_current_epoch(self, daemon, client):
        client.ingest_batch(_elements(range(200, 201)), publish=False)
        assert client.epoch == 1
        # readers still see the epoch-1 state: user 200 is unknown to them
        with pytest.raises(ServerError):
            client.nearest(200, k=1)
        # the next published batch folds both writes into one swap
        report = client.ingest_batch(_elements(range(201, 202)))
        assert report["epoch"] == 2
        assert client.nearest(200, k=1)

    def test_superseded_epoch_retires_after_its_readers_drain(self, daemon, client):
        client.ingest_batch(_elements(range(300, 301)))
        client.ping()  # any read pins the *new* epoch, letting the old retire
        stats = daemon.epochs.stats()
        assert stats["current"] == 2
        assert stats["retired"] == 1
        assert [entry["epoch"] for entry in stats["live"]] == [2]

    def test_concurrent_readers_never_tear_during_swaps(self, daemon):
        """Readers hammering the daemon through swaps see only whole epochs."""
        errors: list[Exception] = []
        observed: list[tuple[int, int]] = []
        stop = threading.Event()

        def reader() -> None:
            try:
                with ServingClient(*daemon.address) as client:
                    while not stop.is_set():
                        stats = client.stats()
                        # client.epoch tracks the epoch id of the last
                        # response, i.e. the epoch that answered stats()
                        observed.append((client.epoch, stats["elements_ingested"]))
                        client.top_k_pairs(k=3)
            except Exception as error:  # noqa: BLE001 - recorded for the assert
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        with ServingClient(*daemon.address) as writer:
            for round_index in range(4):
                writer.ingest_batch(_elements(range(500 + round_index, 501 + round_index)))
        time.sleep(0.1)
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []
        # an epoch id maps to exactly one elements_ingested value: no reader
        # ever saw an epoch with a half-applied batch
        by_epoch: dict[int, set[int]] = {}
        for epoch, ingested in observed:
            by_epoch.setdefault(epoch, set()).add(ingested)
        assert by_epoch
        for epoch, values in by_epoch.items():
            assert len(values) == 1, f"epoch {epoch} answered with torn states {values}"


class TestProtocolFailures:
    def test_version_mismatch_fails_the_handshake(self, daemon, monkeypatch):
        real = protocol.hello_payload
        monkeypatch.setattr(
            "repro.server.protocol.hello_payload",
            lambda epoch: {**real(epoch), "version": "0.0.0-mismatch"},
        )
        with pytest.raises(ProtocolError, match="version mismatch"):
            ServingClient(*daemon.address)

    def test_unknown_op_is_answered_with_an_error(self, daemon):
        with socket.create_connection(daemon.address, timeout=10) as sock:
            protocol.check_hello(protocol.recv_frame(sock))
            protocol.send_frame(sock, {"op": "nonsense"})
            response = protocol.recv_frame(sock)
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"
        assert "nonsense" in response["error"]["message"]

    def test_remote_error_surfaces_type_and_message(self, client):
        with pytest.raises(ServerError, match="requires a 'pairs' list") as info:
            client._call("estimate_many", pairs="oops")
        assert info.value.remote_type == "ProtocolError"

    @pytest.mark.parametrize(
        ("op", "field", "value"),
        [
            ("ingest_batch", "publish", "false"),
            ("ingest_batch", "publish", 0),
            ("nearest", "k", 3.7),
            ("nearest", "k", True),
            ("nearest", "k", "3"),
            ("nearest", "minimum_cardinality", 1.0),
            ("top_k_pairs", "k", False),
            ("top_k_pairs", "minimum_cardinality", "1"),
        ],
    )
    def test_request_fields_are_checked_not_coerced(
        self, daemon, client, op, field, value
    ):
        params = {"ingest_batch": {"elements": [[300, 1, "+"]]}, "nearest": {"user": 1}}
        with pytest.raises(ServerError, match=repr(field)) as info:
            client._call(op, **params.get(op, {}), **{field: value})
        assert info.value.remote_type == "ProtocolError"
        assert client.ping()["epoch"] == 1  # nothing was published
        assert daemon.writer.elements_ingested == 350  # nor ingested

    @pytest.mark.parametrize(
        "bad_row",
        [
            pytest.param([1, 2, "x"], id="unknown-action"),
            pytest.param("ab+", id="length-3-string"),
            pytest.param({"u": 1, "i": 2, "+": 3}, id="length-3-object"),
            pytest.param([[1], 2, "+"], id="list-user"),
            pytest.param([1, {"a": 1}, "+"], id="object-item"),
            pytest.param([True, 2, "+"], id="bool-user"),
            pytest.param([1, 2.5, "+"], id="float-item"),
            pytest.param([None, 2, "+"], id="null-user"),
            pytest.param([1, 2], id="short-row"),
        ],
    )
    def test_malformed_request_rows_fail_without_mutating_state(self, client, bad_row):
        # The good row comes first: a decoder that let the bad row through
        # would leave user "fresh" in the writer when the sketch then raised.
        with pytest.raises(ServerError) as info:
            client._call("ingest_batch", elements=[["fresh", 9, "+"], bad_row])
        assert info.value.remote_type == "ProtocolError"
        client.ingest_batch([])  # publish whatever the writer now holds
        stats = client.stats()
        assert stats["elements_ingested"] == 350  # 25 users x 14 items
        assert stats["users"] == 25

    def test_connection_survives_request_errors(self, client):
        with pytest.raises(ServerError):
            client.nearest(999999, k=1)  # unknown user
        assert client.ping()["epoch"] == client.epoch


class TestConcurrencyLimits:
    def test_more_connections_than_workers_are_all_served(self):
        """``workers`` bounds dispatch, not connections: a single-worker
        daemon must still answer five concurrently connected clients (a
        connection-per-worker model would strand all but the first until
        another client disconnects)."""
        with ServingDaemon(_service(), workers=1) as daemon:
            clients = [ServingClient(*daemon.address, timeout=10) for _ in range(5)]
            try:
                for connected in clients:
                    assert connected.ping()["version"] == __version__
                # interleaved round-robin requests on every live connection
                for _ in range(3):
                    for connected in clients:
                        assert len(connected.top_k_pairs(k=3)) == 3
            finally:
                for connected in clients:
                    connected.close()

    def test_connections_beyond_backlog_are_shed(self):
        """Connections past the ``backlog`` live cap are dropped at accept
        instead of hanging the client until its timeout."""
        with ServingDaemon(_service(), workers=2, backlog=2) as daemon:
            first = ServingClient(*daemon.address, timeout=10)
            second = ServingClient(*daemon.address, timeout=10)
            try:
                with pytest.raises((ProtocolError, OSError)):
                    ServingClient(*daemon.address, timeout=2)
                # the live connections are unaffected by the shed one
                assert first.ping()["version"] == __version__
                assert second.ping()["version"] == __version__
            finally:
                first.close()
                second.close()


class TestLifecycle:
    def test_client_driven_shutdown_drains(self):
        daemon = ServingDaemon(_service(), workers=2)
        daemon.start()
        with ServingClient(*daemon.address) as client:
            assert client.shutdown_server()["stopping"] is True
        daemon.wait()
        with pytest.raises(OSError):
            socket.create_connection(daemon.address, timeout=0.5)

    def test_shutdown_without_binding_skips_the_checkpoint(self):
        daemon = ServingDaemon(_service(), workers=2)
        daemon.start()
        daemon.shutdown()
        assert daemon.final_checkpoint is None

    def test_shutdown_checkpoints_a_bound_writer(self, tmp_path):
        path = tmp_path / "state.vos"
        service = _service()
        service.save(path)
        with ServingDaemon(service, workers=2) as daemon:
            with ServingClient(*daemon.address) as client:
                client.ingest_batch(_elements(range(700, 702)))
        checkpoint = daemon.final_checkpoint
        assert checkpoint is not None and checkpoint["kind"] in ("delta", "full")
        restored = SimilarityService.load(path)
        assert restored.top_k(700, k=1)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ServingDaemon(_service(), workers=0)

    def test_snapshot_op_checkpoints_on_demand(self, tmp_path, daemon, client):
        path = tmp_path / "ondemand.vos"
        result = client.snapshot(str(path))
        assert Path(result["path"]) == path
        assert path.exists()
        restored = SimilarityService.load(path)
        assert restored.top_k_pairs(k=3) == daemon.writer.top_k_pairs(k=3)


class TestSigtermSubprocess:
    def test_sigterm_drains_and_writes_a_final_checkpoint(self, tmp_path):
        """`repro serve` under SIGTERM: drain, checkpoint, exit 0."""
        snapshot = tmp_path / "state.vos"
        setup = textwrap.dedent(
            """
            from repro.core.vos import VirtualOddSketch
            from repro.service.service import SimilarityService
            from repro.streams import Action, StreamElement
            sketch = VirtualOddSketch(
                shared_array_bits=1 << 13, virtual_sketch_size=128, seed=5
            )
            service = SimilarityService(sketch)
            service.ingest(
                [StreamElement(u, u + i, Action.INSERT)
                 for u in range(10) for i in range(8)]
            )
            service.save(r"%s")
            """
            % snapshot
        )
        subprocess.run(
            [sys.executable, "-c", setup], check=True, env=_child_env(), timeout=60
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--snapshot",
                str(snapshot),
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_child_env(),
        )
        try:
            port = _wait_for_port(process)
            with ServingClient("127.0.0.1", port) as client:
                client.ingest_batch(
                    [StreamElement(99, item, Action.INSERT) for item in range(9)]
                )
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "serve drained cleanly" in output
        # the post-ingest state survived via the shutdown checkpoint
        restored = SimilarityService.load(snapshot)
        assert restored.top_k(99, k=1)
        assert default_journal_path(snapshot).exists()


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _wait_for_port(process: subprocess.Popen, timeout: float = 30.0) -> int:
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if "# serving" in line:
            return int(line.split(":")[-1].split(" ")[0])
        if process.poll() is not None:
            break
        time.sleep(0.01)
    raise AssertionError(f"daemon never reported its port (last line: {line!r})")
