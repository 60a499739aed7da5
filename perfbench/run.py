"""The repository's benchmark: two workloads, one command, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload serve_churn --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric (plus the tracing overhead) with
``--trace 1``.  Each workload replays a fixed operation sequence made from
the seed; ``--seconds`` sizes it (read rotations per second asked), it never
stops the run on a clock.  See ``README.md`` here for the workloads, the
metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from system import (  # noqa: E402
    BATCH,
    CHECKPOINT_EVERY,
    check_estimates,
    check_nearest,
    estimate_rows,
    neighbours,
    peak_rss_mb,
)
from speed import Speed  # noqa: E402
from tracer import Tracer, install, summarize  # noqa: E402

#: Users in the ``churn_ingest`` stream and in the served snapshot (more
#: than the daemon's packed-row cache holds: 8 shards x 1024 rows).
USERS = 10_000
#: New users whose edges ``serve_churn``'s writes bring (ids after the
#: snapshot's users).
SIGNUP_USERS = 2_400
K = 10
PAIRS_PER_ESTIMATE = 256
POOL_USERS = 192
#: LSH `nearest` is asked for users with at least this many items (see
#: gen.read_requests).
NEAREST_MIN_ITEMS = 64
#: Read rotations per second of ``--seconds``, per workload.
ROTATIONS_PER_SECOND = {"churn_ingest": 5, "serve_churn": 5}
#: AAPE/ARMSE are taken over the pairs among this many top-cardinality users
#: that share at least ``TRACKED_MIN_COMMON`` items (~7.3k pairs).  Pairs
#: linked only by a few popular items carry an absolute error of several
#: items on a true count of 1-19, which made AAPE swing 3x between seeds.
TRACKED_USERS = 1000
TRACKED_MIN_COMMON = 20
#: Share of ``churn_ingest`` events that delete an edge one chunk old.
CHURN_DELETE_SHARE = 0.3
#: ``serve_churn`` writes: held-out inserts per batch, share of the previous
#: batch's inserts deleted again.
WRITE_INSERTS = 1000
WRITE_DELETE_SHARE = 0.3
SERVE_WORKERS = 2
#: Extra daemon cold starts an untraced ``serve_churn`` run times, spread
#: evenly over the rotations (the measured daemon's own start is one more
#: set-up sample).
EXTRA_SETUPS = 10
#: Served answers compared with in-process answers after the writes.
PARITY_SAMPLES = 3
#: Latency p50s and p90s are means over consecutive windows of this many
#: requests (see ``latency_metrics``).
WINDOW = 10

#: ``(name, unit)`` of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("ingest_eps", "elements/s"),
    ("aape", "ratio"),
    ("armse", "ratio"),
    ("recall_at_10", "ratio"),
    ("nearest_p50_ms", "ms"),
    ("nearest_p90_ms", "ms"),
    ("estimate_p50_ms", "ms"),
    ("estimate_p90_ms", "ms"),
    ("pairs_p50_ms", "ms"),
    ("pairs_p90_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
]
#: Metrics that repeat exactly for a seed (everything else is a timing).
EXACT = ("aape", "armse", "recall_at_10")
#: Per-layer metrics that are not times, with their units (see tracer.summarize).
PER_LAYER_UNITS = {
    "sharding.cardinality_calls": "count",
    "vos.row_cache_hit_ratio": "ratio",
    "families.rows_recovered": "count",
    "bitarray.dirty_words": "count",
    "journal.bytes_per_element": "bytes/element",
    "banding.rebuilds": "count",
    "banding.candidate_fraction": "ratio",
    "kernels.pairs_scored": "count",
    "protocol.frame_bytes": "bytes",
    "banding.rebuilds_per_publish": "ratio",
    "cow.delta_words": "count",
    "cow.rebases": "count",
}


class Context:
    """Paths and the child-process environment of one run."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: int) -> None:
        self.root = root
        self.seed = seed
        self.trace = trace
        self.rotations = max(1, ROTATIONS_PER_SECOND[workload] * seconds)
        self.work = root / ".bench_build" / "perfbench"
        self.digest = source_digest(root)
        self.run_dir = self.work / f"run-{os.getpid()}"
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]),
            TMPDIR=str(self.run_dir),
            REPRO_KERNEL_CACHE=str(self.work / "kernels"),
        )

    def path(self, name: str) -> Path:
        return self.run_dir / name


def latency_metrics(prefix: str, seconds: list[float]) -> dict[str, float]:
    """``p50`` and ``p90`` in ms of one operation's samples, in time order.

    A shared 2-vCPU virtual machine was seen to run at one of two speeds
    (about 1.5x apart) for seconds to tens of seconds at a time.  A plain
    percentile of a run then jumps between the two speeds with the share of
    time the run spent slow, and a plain p90 with the few slow seconds that
    happen to hold its 10 tail samples.  So both are windowed: the mean, over
    consecutive windows of ``WINDOW`` requests, of each window's median and
    90th percentile.  That moves in proportion to the slow share instead.  A
    window's p90 (linear interpolation, 10 samples) is 0.9 of its
    second-slowest request plus 0.1 of its slowest.
    """
    windows = [seconds[i : i + WINDOW] for i in range(0, len(seconds), WINDOW)]
    return {
        f"{prefix}_p50_ms": statistics.mean(statistics.median(w) for w in windows) * 1e3,
        f"{prefix}_p90_ms": statistics.mean(float(np.percentile(w, 90)) for w in windows) * 1e3,
    }


def run_system(ctx: Context, plan: dict) -> dict:
    """Run one ``system.py`` job to completion and return its results."""
    plan_path = ctx.path(f"{plan['job']}-plan.json")
    plan["out"] = str(ctx.path(f"{plan['job']}-out.json"))
    plan_path.write_text(json.dumps(plan))
    completed = subprocess.run(
        [sys.executable, str(HERE / "system.py"), str(plan_path)],
        env=ctx.env,
        cwd=ctx.root,
        timeout=170,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"system job {plan['job']} exited with {completed.returncode}")
    return json.loads(Path(plan["out"]).read_text())


def read_dump(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


# -- churn_ingest ---------------------------------------------------------------------


def prepare_churn(ctx: Context) -> dict:
    from repro.streams import write_stream

    base = gen.population(ctx.seed, USERS)
    stream = gen.churn_stream(ctx.seed, base, USERS, BATCH, CHURN_DELETE_SHARE)
    stream_path = ctx.path("churn.vosstream")
    write_stream(stream, stream_path)
    truth = gen.ExactGraph(base, USERS)
    tracked, common, jaccard = truth.tracked_pairs(TRACKED_USERS, TRACKED_MIN_COMMON)
    rotations = gen.read_requests(
        ctx.seed, base, USERS, ctx.rotations, PAIRS_PER_ESTIMATE, POOL_USERS, NEAREST_MIN_ITEMS
    )
    return {
        "stream": str(stream_path),
        "deletions": int((stream.signs < 0).sum()),
        "events": len(stream),
        "tracked": tracked,
        "common": common,
        "jaccard": jaccard,
        "rotations": rotations,
        "top10": [truth.top_k(r["nearest"], K) for r in rotations],
    }


def checkpoint_groups(ingest: dict, scale) -> list[float]:
    """Seconds to make each group of ``CHECKPOINT_EVERY`` batches durable.

    A group is its batches' ingest plus the journal checkpoint closing it;
    the last group also carries the final checkpoint.  ``scale`` maps a
    ``(started, seconds)`` pair to the seconds reported.
    """
    seconds = [scale(*batch) for batch in ingest["batches"]]
    groups = [
        sum(seconds[i : i + CHECKPOINT_EVERY]) for i in range(0, len(seconds), CHECKPOINT_EVERY)
    ]
    groups[-1] += scale(*ingest["final"])
    return groups


def unscaled(started: float, seconds: float) -> float:
    return seconds


def timing_metrics(scale, setups: list, ingest: tuple, series: dict) -> dict[str, float]:
    """The timing end-to-end metrics of one run, each duration through ``scale``.

    ``ingest`` is ``(elements, [(started, seconds), ...])``; ``series`` maps
    ``nearest``/``estimate``/``pairs`` to request pairs and ``write`` to
    durations already scaled by the same ``scale``.
    """
    elements, ingest_timings = ingest
    return {
        "setup_s": statistics.median(scale(*s) for s in setups),
        "ingest_eps": elements / sum(scale(*t) for t in ingest_timings),
        **latency_metrics("nearest", [scale(*t) for t in series["nearest"]]),
        **latency_metrics("estimate", [scale(*t) for t in series["estimate"]]),
        **latency_metrics("pairs", [scale(*t) for t in series["pairs"]]),
        **latency_metrics("write", series["write"]),
    }


def churn_ingest(ctx: Context, inputs: dict, trace: bool) -> dict:
    spans = ctx.path("churn-spans.json")
    result = run_system(
        ctx,
        {
            "job": "churn",
            "work": str(ctx.run_dir),
            "seed": ctx.seed,
            "users": USERS,
            "k": K,
            "stream": inputs["stream"],
            "batches": -(-inputs["events"] // BATCH),
            "tracked": inputs["tracked"],
            "rotations": inputs["rotations"],
            "trace": trace,
            "spans": str(spans),
        },
    )
    ingests, reads = result["ingests"], result["reads"]
    speed = Speed(result["probes"])
    batches = [b for ingest in ingests for b in ingest["batches"]]
    ingest_timings = batches + [ingest["final"] for ingest in ingests]
    elements = sum(i["elements"] for i in ingests)

    def timings(scale):
        durable_writes = [s for ingest in ingests for s in checkpoint_groups(ingest, scale)]
        series = {**reads["timings"], "write": durable_writes}
        return timing_metrics(scale, result["setups"], (elements, ingest_timings), series)

    metrics = {
        **timings(speed.scale),
        "rss_peak_mb": result["rss_peak_mb"],
        **gen.accuracy(inputs["common"], inputs["jaccard"], result["tracked_estimates"]),
        "recall_at_10": gen.recall_at_k(reads["answers"], inputs["top10"]),
    }
    return {
        "metrics": metrics,
        "unscaled": timings(unscaled),
        "probe_ms": speed.median_probe_ms(),
        "attempted": len(batches) + 3 * len(inputs["rotations"]),
        "failed": reads["failed"],
        "checks": {
            "elements_ingested": all(i["elements"] == inputs["events"] for i in ingests),
            "restart_parity": result["parity"],
        },
        "counts": {
            "elements": inputs["events"],
            "deletions": inputs["deletions"],
            "ingest_passes": len(ingests),
            "batches": len(batches),
            "reads_per_op": len(inputs["rotations"]),
        },
        "dumps": [read_dump(spans)] if trace else [],
        "client_requests": {},
        "series": {"setup": result["setups"], "ingest": ingest_timings, **reads["timings"]},
        "probes": result["probes"],
    }


# -- serve_churn ----------------------------------------------------------------------


def prepare_serve(ctx: Context) -> dict:
    """Inputs, exact answers and the snapshot every daemon of the run loads.

    The snapshot (with its persisted LSH index) is built by the code under
    test in an untraced ``system.py`` job, before any measured phase.
    """
    from repro.streams import write_stream

    snapshot_keys = gen.population(ctx.seed, USERS)
    signups = gen.population(ctx.seed, SIGNUP_USERS, first_user=USERS)
    if signups.size < WRITE_INSERTS * ctx.rotations:
        raise RuntimeError(f"{signups.size} sign-up edges cannot feed {ctx.rotations} writes")
    stream_path = ctx.path("build.vosstream")
    write_stream(gen.insert_stream(snapshot_keys), stream_path)
    snapshot = ctx.path("setup.vos")
    build = run_system(
        ctx,
        {
            "job": "build",
            "seed": ctx.seed,
            "users": USERS,
            "stream": str(stream_path),
            "snapshot": str(snapshot),
            "trace": False,
        },
    )
    rotations = gen.read_requests(
        ctx.seed, snapshot_keys, USERS, ctx.rotations, PAIRS_PER_ESTIMATE, POOL_USERS,
        NEAREST_MIN_ITEMS,
    )
    writes = gen.churn_writes(ctx.seed, signups, ctx.rotations, WRITE_INSERTS, WRITE_DELETE_SHARE)
    # Exact answers as the daemon should give them: each rotation's nearest
    # query runs after the previous rotations' writes were published.
    truth = gen.ExactGraph(snapshot_keys, USERS + SIGNUP_USERS)
    top10 = []
    for rotation, write in zip(rotations, writes):
        top10.append(truth.top_k(rotation["nearest"], K))
        truth.apply(*write)
    tracked, common, jaccard = truth.tracked_pairs(TRACKED_USERS, TRACKED_MIN_COMMON)
    users = np.unique(gen.split_keys(snapshot_keys)[0]).tolist()
    return {
        "snapshot": snapshot,
        "build_elements": build["ingest"]["elements"],
        "snapshot_edges": int(snapshot_keys.size),
        "warm_pairs": list(zip(users[0::2], users[1::2])),
        "rotations": rotations,
        "writes": [write_elements(batch) for batch in writes],
        "top10": top10,
        "tracked": [tuple(pair) for pair in tracked],
        "common": common,
        "jaccard": jaccard,
    }


def write_elements(batch: tuple[np.ndarray, np.ndarray]) -> list:
    from repro.streams import Action, StreamElement

    inserts, deletes = batch
    elements = []
    for keys, action in ((inserts, Action.INSERT), (deletes, Action.DELETE)):
        users, items = gen.split_keys(keys)
        elements.extend(
            StreamElement(u, i, action) for u, i in zip(users.tolist(), items.tolist())
        )
    return elements


class Daemon:
    """One ``repro serve`` process started through the benchmark's launcher.

    Starting it is timed from spawn to the first answered ``ping``, as a
    ``(started, seconds)`` pair.
    """

    def __init__(self, ctx: Context, snapshot: Path, spans: Path | None, name: str) -> None:
        from repro.server import ServingClient

        self.spans = spans
        self.log = ctx.path(f"{name}.log").open("w")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "launcher.py"),
                str(spans) if spans else "-",
                "--",
                "serve",
                "--snapshot",
                str(snapshot),
                "--port",
                "0",
                "--serve-workers",
                str(SERVE_WORKERS),
            ],
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=ctx.env,
            cwd=ctx.root,
            text=True,
        )
        try:
            banner = self.process.stdout.readline()
            if "# serving" not in banner:
                raise RuntimeError(f"daemon did not start: {banner!r}")
            port = int(banner.split(" on ", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])
            self.client = ServingClient("127.0.0.1", port, timeout=120)
            self.client.ping()
        except BaseException:
            self.process.kill()
            self.stop()
            raise
        self.setup = (started, time.perf_counter() - started)

    def stop(self) -> None:
        """Ask for the drain when connected, wait for the exit, else kill."""
        client = getattr(self, "client", None)
        if client is not None:
            try:
                client.shutdown_server()
            except OSError:
                pass
            client.close()
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        finally:
            self.log.close()


class ServeRun:
    """The client side of ``serve_churn``: requests, timings and checks.

    Timings are ``(started, seconds)`` pairs; the host-speed probes run in
    this process, between requests (the daemon idles then: the loop is
    closed).
    """

    def __init__(self, ctx: Context, inputs: dict, trace: bool) -> None:
        self.ctx = ctx
        self.inputs = inputs
        self.tracer = None
        if trace:
            self.tracer = Tracer()
            install(self.tracer, side="client")
        self.timings = {"nearest": [], "estimate": [], "pairs": [], "write": []}
        self.failures = {"nearest": 0, "estimate_many": 0, "top_k_pairs": 0, "ingest_batch": 0}
        self.client_requests: dict[int, tuple[str, float]] = {}
        self.answers: list[list] = []
        self.setups: list[tuple[float, float]] = []
        self.speed = Speed()
        self.write_elements = 0

    def call(self, op: str, timing: str, function, *args, **kwargs):
        """One measured request: its round trip is timed whatever the outcome."""
        from repro.exceptions import ReproError

        rid = len(self.client_requests) + 1
        self.speed.probe()
        if self.tracer:
            self.tracer.rid = rid
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        except ReproError:
            self.failures[op] += 1
            return None
        finally:
            seconds = time.perf_counter() - started
            self.timings[timing].append((started, seconds))
            self.client_requests[rid] = (op, seconds)

    def check(self, function, *args, **kwargs):
        """A request outside the measured phase (negative id: never traced)."""
        if self.tracer:
            self.tracer.rid = -1
        return function(*args, **kwargs)

    def extra_setup(self, snapshot: Path, name: str) -> None:
        self.speed.probe()
        daemon = Daemon(self.ctx, snapshot, None, name)
        self.setups.append(daemon.setup)
        daemon.stop()
        self.speed.probe()

    def rotation(self, client, index: int) -> int:
        """nearest, estimate_many, top_k_pairs, then one ingest_batch; returns requests."""
        rotation = self.inputs["rotations"][index]
        user = rotation["nearest"]
        pairs = [tuple(p) for p in rotation["pairs"]]
        nearest = self.call("nearest", "nearest", client.nearest, user, k=K, index="lsh")
        estimates = self.call("estimate_many", "estimate", client.estimate_many, pairs)
        top = self.call("top_k_pairs", "pairs", client.top_k_pairs, k=K, users=rotation["pool"])
        elements = self.inputs["writes"][index]
        report = self.call("ingest_batch", "write", client.ingest_batch, elements)
        self.failures["nearest"] += nearest is not None and not check_nearest(user, nearest, K)
        self.failures["estimate_many"] += estimates is not None and not check_estimates(
            pairs, estimates
        )
        self.failures["top_k_pairs"] += top is not None and len(top) != K
        self.failures["ingest_batch"] += report is not None and not (
            report["published"] and report["elements"] == len(elements)
        )
        self.answers.append(neighbours(user, nearest or []))
        self.write_elements += len(elements)
        return 4

    def run(self, trace: bool) -> dict:
        pristine = self.inputs["snapshot"]
        # The measured daemon journals next to its own copy of the snapshot.
        snapshot = self.ctx.path(f"serve-t{int(trace)}.vos")
        shutil.copyfile(pristine, snapshot)
        spans = self.ctx.path("daemon-spans.json") if trace else None
        self.speed.probe()
        daemon = Daemon(self.ctx, snapshot, spans, "daemon")
        self.setups.append(daemon.setup)
        client = daemon.client
        rotations = len(self.inputs["rotations"])
        # The extra cold starts only steady setup_s, which a traced run does
        # not report; leaving them out keeps its two passes within time.
        extras = 0 if self.ctx.trace else EXTRA_SETUPS
        extra_after = {rotations * (n + 1) // extras for n in range(extras)}
        try:
            # Row recovery needs each user's bit positions once per process;
            # compute them all before timing, as a long-running daemon has.
            self.check(client.estimate_many, self.inputs["warm_pairs"])
            requests = 0
            for index in range(rotations):
                requests += self.rotation(client, index)
                if index + 1 in extra_after:
                    self.extra_setup(pristine, f"setup{index}")
            self.speed.probe()
            tracked = self.check(client.estimate_many, self.inputs["tracked"])
            final = [
                (
                    r["nearest"],
                    r["pool"],
                    self.check(client.nearest, r["nearest"], k=K, index="lsh"),
                    self.check(client.top_k_pairs, k=K, users=r["pool"]),
                )
                for r in self.inputs["rotations"][:PARITY_SAMPLES]
            ]
            served = self.check(client.metrics)["counters"]["server.requests"]["value"]
            rss = peak_rss_mb(daemon.process.pid)
        finally:
            daemon.stop()
        # ping + warm-up + measured requests + the checks after them
        count_ok = served == 2 + requests + 1 + 2 * PARITY_SAMPLES
        dumps = [read_dump(spans), self.tracer.snapshot()] if trace else []
        return {
            "tracked": tracked,
            "parity": self.parity(pristine, tracked, final),
            "count_ok": count_ok,
            "rss": rss,
            "dumps": dumps,
        }

    def parity(self, snapshot: Path, tracked: list, final: list) -> bool:
        """Served answers equal an in-process service's after the same writes."""
        from repro.service import SimilarityService

        reference = SimilarityService.load(snapshot, journal=None)
        for elements in self.inputs["writes"]:
            reference.ingest(elements)
        same = reference.estimate_many(self.inputs["tracked"]) == tracked
        for user, pool, nearest, top in final:
            same &= reference.top_k(user, k=K, index="lsh") == nearest
            same &= reference.top_k_pairs(k=K, users=pool) == top
        return same


def serve_churn(ctx: Context, inputs: dict, trace: bool) -> dict:
    run = ServeRun(ctx, inputs, trace)
    outcome = run.run(trace)

    def timings(scale):
        series = {**run.timings, "write": [scale(*t) for t in run.timings["write"]]}
        return timing_metrics(scale, run.setups, (run.write_elements, run.timings["write"]), series)

    metrics = {
        **timings(run.speed.scale),
        "rss_peak_mb": outcome["rss"],
        **gen.accuracy(inputs["common"], inputs["jaccard"], estimate_rows(outcome["tracked"])),
        "recall_at_10": gen.recall_at_k(run.answers, inputs["top10"]),
    }
    return {
        "metrics": metrics,
        "unscaled": timings(unscaled),
        "probe_ms": run.speed.median_probe_ms(),
        "attempted": len(run.client_requests),
        "failed": sum(run.failures.values()),
        "checks": {
            "served_parity": outcome["parity"],
            "build_elements": inputs["build_elements"] == inputs["snapshot_edges"],
            "daemon_request_count": outcome["count_ok"],
        },
        "counts": {
            "snapshot_edges": inputs["snapshot_edges"],
            "requests": len(run.client_requests),
            "reads_per_op": len(inputs["rotations"]),
            "writes": len(inputs["writes"]),
            "write_elements": run.write_elements,
            "failures": run.failures,
        },
        "dumps": outcome["dumps"],
        "client_requests": run.client_requests,
        "series": {"setup": run.setups, **run.timings},
        "probes": run.speed.probes,
    }


WORKLOADS = {
    "churn_ingest": (prepare_churn, churn_ingest),
    "serve_churn": (prepare_serve, serve_churn),
}


# -- run ------------------------------------------------------------------------------


def reference_loop_ms() -> float:
    """A fixed pure-Python loop (median of 5), to tell host drift from code change."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def warm_kernels() -> str:
    """Compile (first run only) and load the native kernel tier; returns the tier."""
    from repro.kernels import active_tier

    return active_tier()


def source_digest(root: Path) -> str:
    """A digest of the program's source and the benchmark's own files."""
    digest = hashlib.sha256()
    files = [p for p in (root / "src" / "repro").rglob("*") if "__pycache__" not in p.parts]
    for path in sorted(files) + sorted(HERE.glob("*.py")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint_check(ctx: Context, key: str, fingerprint: dict) -> bool:
    """Exact metrics and counts must repeat for a seed across runs of one source.

    Fingerprints are filed under the source digest, so a change to the
    program (or the benchmark) that legitimately moves a count starts a new
    record instead of failing against the old one.
    """
    path = ctx.work / "fingerprints" / ctx.digest / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        return json.loads(path.read_text()) == fingerprint
    path.write_text(json.dumps(fingerprint, sort_keys=True))
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    ctx = Context(root, args.workload, args.seed, args.seconds, args.trace)
    ctx.run_dir.mkdir(parents=True, exist_ok=True)
    os.environ.update(TMPDIR=ctx.env["TMPDIR"], REPRO_KERNEL_CACHE=ctx.env["REPRO_KERNEL_CACHE"])
    sys.path.insert(0, str(root / "src"))
    key = f"{args.workload}-s{args.seconds}-seed{args.seed}"
    try:
        tier = warm_kernels()
        reference_before = reference_loop_ms()
        prepare, workload = WORKLOADS[args.workload]
        started = time.perf_counter()
        inputs = prepare(ctx)
        phase_seconds = {"prepare": time.perf_counter() - started}
        # A traced run measures its untraced pass first: the tracing overhead
        # compares the same inputs, host period and source.
        passes = []
        for trace in (False, True)[: 1 + args.trace]:
            started = time.perf_counter()
            passes.append(workload(ctx, inputs, trace))
            phase_seconds[f"pass_t{int(trace)}"] = time.perf_counter() - started
        reference_after = reference_loop_ms()
    finally:
        shutil.rmtree(ctx.run_dir, ignore_errors=True)

    run = passes[-1]
    exact = [{name: p["metrics"][name] for name in EXACT} | p["counts"] for p in passes]
    checks = {name: all(p["checks"][name] for p in passes) for name in run["checks"]}
    checks["repeats_within_run"] = all(e == exact[0] for e in exact)
    checks["repeats_across_runs"] = fingerprint_check(ctx, key, exact[0])
    if args.trace:
        layer = summarize(run["dumps"], run["client_requests"])
        # Frame sizes are left out: responses carry the daemon's own timings
        # (e.g. ingest_batch's "seconds"), so they vary by a few bytes.
        checks["layer_counts_repeat"] = fingerprint_check(
            ctx,
            key + "-layers",
            {n: layer[n] for n in PER_LAYER_UNITS if n != "protocol.frame_bytes"},
        )
        metrics = {
            name: {"value": value, "unit": PER_LAYER_UNITS.get(name, "ms")}
            for name, value in layer.items()
        }
        for name, unit in END_TO_END:
            if name not in EXACT:
                metrics[f"overhead.{name}"] = {
                    "value": run["metrics"][name] - passes[0]["metrics"][name],
                    "unit": unit,
                }
    else:
        metrics = {name: {"value": run["metrics"][name], "unit": unit} for name, unit in END_TO_END}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and all(checks.values())
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source_digest": ctx.digest,
        "cpu_count": os.cpu_count(),
        "kernel_tier": tier,
        "reference_loop_ms": {"before": reference_before, "after": reference_after},
        "probe_median_ms": run["probe_ms"],
        "samples": run["counts"],
        "phase_seconds": phase_seconds,
        "checks": checks,
    }
    record = ctx.work / "runs" / ctx.digest / f"{key}-t{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(
        json.dumps(
            {
                "meta": meta,
                "end_to_end": run["metrics"],
                "unscaled_end_to_end": run["unscaled"],
                "metrics": metrics,
                "series_seconds": run["series"],
                "probes": run["probes"],
            },
            indent=1,
        )
    )
    print("# perfbench " + json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
