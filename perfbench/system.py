"""The processes that run the program under test, apart from the benchmark client.

``python3 perfbench/system.py PLAN.json`` runs one job described by the plan
file and writes its results next to it:

* ``churn`` — the ``churn_ingest`` workload in one process (see :func:`churn`);
* ``build`` — the snapshot ``serve_churn``'s daemon loads: the same timed
  ingest path, then the LSH index build and a full checkpoint that persists it.

Peak memory is this process's own high-water mark, so the benchmark's input
generator never counts against the program.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

from speed import Speed
from tracer import Tracer, install

#: The service is provisioned for this many times the users it will hold
#: (a sparse shared array, fill ~0.007: the regime where LSH banding works).
PROVISION = 8
SHARDS = 8
#: Elements per ingest call, and a journal checkpoint every this many calls.
BATCH = 4096
CHECKPOINT_EVERY = 4
#: ``churn_ingest`` ingests its stream this many times: once before the
#: reads start, then interleaved with them (each pass a fresh service).
INGEST_PASSES = 4
#: Extra set-ups (construction + first checkpoint) timed between reads, so
#: the set-up samples spread over the run like every other metric's.
EXTRA_SETUPS = 20


def peak_rss_mb(pid: int | str = "self") -> float:
    """The process's resident-set high-water mark (``VmHWM``) in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not reported by /proc")


def service_config(seed: int, users: int):
    from repro.service import ServiceConfig
    from repro.service.journal import JournalConfig

    return ServiceConfig(
        expected_users=PROVISION * users,
        num_shards=SHARDS,
        seed=seed,
        journal=JournalConfig(group_commit=True),
    )


class IngestPass:
    """A fresh service ingesting a ``.vosstream`` file, a batch per :meth:`step`.

    Construction and the first (empty) checkpoint are the timed set-up.
    Each step reads one batch back with ``iter_stream_batches``, ingests it
    and, every ``CHECKPOINT_EVERY`` batches, appends a journal checkpoint;
    the step's time covers all three.  The step after the last batch writes
    the final checkpoint that makes the whole stream durable.  Every timing
    is a ``(started, seconds)`` pair, for :meth:`speed.Speed.scale`.
    """

    def __init__(self, config, snapshot: Path, stream: Path) -> None:
        from repro.service import SimilarityService
        from repro.streams.io import iter_stream_batches

        gc.collect()
        started = time.perf_counter()
        self.service = SimilarityService.from_config(config)
        self.service.save(snapshot)
        self.setup = (started, time.perf_counter() - started)
        self._batches = iter_stream_batches(stream, batch_size=BATCH)
        self.batches: list[tuple[float, float]] = []
        self.final = (started, 0.0)
        self.elements = 0
        self.done = False

    def step(self) -> None:
        started = time.perf_counter()
        batch = next(self._batches, None)
        if batch is None:
            self.service.save_delta()
            self.final = (started, time.perf_counter() - started)
            self.done = True
            return
        self.service.ingest(batch)
        if len(self.batches) % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
            self.service.save_delta()
        self.batches.append((started, time.perf_counter() - started))
        self.elements += len(batch)

    def report(self) -> dict:
        return {
            "setup": self.setup,
            "elements": self.elements,
            "batches": self.batches,
            "final": self.final,
        }


def neighbours(user, pairs) -> list:
    return [pair.user_b if pair.user_a == user else pair.user_a for pair in pairs]


def check_nearest(user, answer, k: int) -> bool:
    found = neighbours(user, answer)
    return len(found) == k and len(set(found)) == k and user not in found


def check_estimates(pairs, answer) -> bool:
    return len(answer) == len(pairs) and all(
        (e.user_a, e.user_b) == pair for e, pair in zip(answer, pairs)
    )


def estimate_rows(estimates) -> list:
    return [[e.common_items, e.jaccard] for e in estimates]


def churn(plan: dict, tracer: Tracer | None) -> dict:
    """The ``churn_ingest`` workload.

    Pass 0 ingests the whole dynamic stream; the service is then restarted
    from its snapshot + journal, and that restarted reader answers the read
    rotations (LSH nearest, estimate_many, top_k_pairs) in-process.  Between
    rotations, passes 1..3 re-ingest the stream into fresh services a few
    batches at a time, so ingest, checkpoints, set-ups and reads are spread
    over the whole run: a host that changes speed for some seconds moves a
    share of every metric's samples, not all of one metric's.

    Checks (outside the trace): the reader answers like the live service
    it was restarted from, and every pass ends in the reader's state.
    The host-speed probes are taken between the timed operations.
    """
    from repro.service import SimilarityService

    work, stream, k = Path(plan["work"]), Path(plan["stream"]), plan["k"]
    config = service_config(plan["seed"], plan["users"])
    tracked = [tuple(pair) for pair in plan["tracked"]]
    pool = plan["rotations"][0]["pool"]

    def check(function, *args, **kwargs):
        if tracer:
            tracer.rid = -1
        try:
            return function(*args, **kwargs)
        finally:
            if tracer:
                tracer.rid = None

    def answers(service):
        return check(lambda: (service.estimate_many(tracked), service.top_k_pairs(k=k, users=pool)))

    speed = Speed()
    speed.probe()
    first = IngestPass(config, work / "pass0.vos", stream)
    while not first.done:
        speed.probe()
        first.step()
    live = answers(first.service)
    reports = [first.report()]
    first = None
    gc.collect()
    reader = SimilarityService.load(work / "pass0.vos", journal_config=config.journal)
    reader.index().refresh()  # the lazy index build, before timing
    reference = answers(reader)
    parity = reference == live

    rotations = plan["rotations"]
    later_steps = (INGEST_PASSES - 1) * (plan["batches"] + 1)
    timings = {"nearest": [], "estimate": [], "pairs": []}

    def timed(name, function, *args, **kwargs):
        speed.probe()
        started = time.perf_counter()
        result = function(*args, **kwargs)
        timings[name].append((started, time.perf_counter() - started))
        return result

    found, failed, steps_done = [], 0, 0
    writer, passes_left = None, INGEST_PASSES - 1
    extra_setups = []
    extra_setups_after = {len(rotations) * (n + 1) // EXTRA_SETUPS for n in range(EXTRA_SETUPS)}
    for index, request in enumerate(rotations):
        user, pairs = request["nearest"], [tuple(p) for p in request["pairs"]]
        nearest = timed("nearest", reader.top_k, user, k=k, index="lsh")
        estimates = timed("estimate", reader.estimate_many, pairs)
        top = timed("pairs", reader.top_k_pairs, k=k, users=request["pool"])
        failed += not check_nearest(user, nearest, k)
        failed += not check_estimates(pairs, estimates)
        failed += len(top) != k
        found.append(neighbours(user, nearest))
        if index + 1 in extra_setups_after:
            speed.probe()
            extra_setups.append(IngestPass(config, work / "setup.vos", stream).setup)
        target = later_steps * (index + 1) // len(rotations)
        while steps_done < target:
            speed.probe()
            if writer is None:
                writer = IngestPass(config, work / f"pass{passes_left}.vos", stream)
            writer.step()
            steps_done += 1
            if writer.done:
                parity &= answers(writer.service) == reference
                reports.append(writer.report())
                writer, passes_left = None, passes_left - 1
    speed.probe()
    if tracer:
        tracer.dump(Path(plan["spans"]))
    return {
        "ingests": reports,
        "setups": [report["setup"] for report in reports] + extra_setups,
        "probes": speed.probes,
        "reads": {"timings": timings, "answers": found, "failed": failed},
        "tracked_estimates": estimate_rows(reference[0]),
        "parity": parity and passes_left == 0,
        "rss_peak_mb": peak_rss_mb(),
    }


def build(plan: dict, tracer: Tracer | None) -> dict:
    """Ingest the snapshot stream, build the LSH index, persist both (untraced)."""
    snapshot = Path(plan["snapshot"])
    ingest = IngestPass(service_config(plan["seed"], plan["users"]), snapshot, Path(plan["stream"]))
    while not ingest.done:
        ingest.step()
    ingest.service.index().refresh()
    ingest.service.save(snapshot, include_index=True)
    return {"ingest": ingest.report()}


def main() -> int:
    plan_path = Path(sys.argv[1])
    plan = json.loads(plan_path.read_text())
    tracer = None
    if plan["trace"]:
        tracer = Tracer()
        install(tracer, side="system")
    job = {"churn": churn, "build": build}[plan["job"]]
    result = job(plan, tracer)
    Path(plan["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
