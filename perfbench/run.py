"""The archive benchmark: one workload, closed loop, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_scan --seed 1 --seconds 26 --trace 0

The program is imported from ``src/`` of the same checkout.  One run:

1. sets the workload up three times (catalog generation, store build,
   server start and connect) and keeps the last, reporting the median
   set-up time;
2. makes every client's operation stream from ``--seed``;
3. runs one warm-up lap, then the clients in a closed loop (each sends
   its next operation when the previous one has returned its last row)
   for ``--seconds``;
4. checks every operation's rows against a naive numpy oracle over the
   flat catalog;
5. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   metrics.

``--trace 0`` reports the end-to-end metrics of ``pb_metrics.END_TO_END``
with no instrumentation installed.  ``--trace 1`` splits the window:
the first half untraced, the second with every layer wrapped (see
``pb_trace``), and reports ``pb_metrics.PER_LAYER``.  A human-readable
summary goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: set-ups per run; setup_s is their median
SETUPS = 3
#: operations generated per client per second of the window, far more
#: than any client can send
OPS_PER_SECOND = 400


class Outcome:
    __slots__ = ("op", "started", "first_row", "ended", "rows", "digest", "error")

    def __init__(self, op):
        self.op = op
        self.started = self.first_row = self.ended = None
        self.rows = 0
        self.digest = None
        self.error = None

    def latency_ms(self):
        return (self.ended - self.started) * 1e3

    def first_row_ms(self):
        first = self.first_row if self.first_row is not None else self.ended
        return (first - self.started) * 1e3


def execute(session, op, digest, clock=None, observe=None):
    """Submit one operation and drain it; times submit to last row.

    The digest the checker reads is taken from the batches after the
    timer stops, so the benchmark's own work is never timed.
    """
    outcome = Outcome(op)
    outcome.started = time.perf_counter()
    job = None
    try:
        job = session.submit(op.sql, **op.submit)
        batches = iter(job.cursor)
        parts = []
        while True:
            if clock is None:
                batch = next(batches, None)
            else:
                with clock.span("session.fetch_wait"):
                    batch = next(batches, None)
            if batch is None:
                break
            if outcome.first_row is None and len(batch):
                outcome.first_row = time.perf_counter()
            parts.append(batch)
        outcome.ended = time.perf_counter()
        outcome.rows = sum(len(batch) for batch in parts)
        outcome.digest = digest(op, parts)
    except Exception as exc:  # a failed operation is counted, not fatal
        outcome.ended = time.perf_counter()
        outcome.error = f"{type(exc).__name__}: {exc}"
        if job is not None:
            job.cancel()
        return outcome
    if observe is not None:
        observe(job, outcome)
    return outcome


def run_clients(world, streams, digest, seconds=None, clock=None, observe=None):
    """Each client runs its stream on its own thread until the deadline
    (closed loop).  Returns ``(per-client outcomes, window start)``."""
    results = [[] for _ in streams]
    errors = []
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def client(index):
        try:
            for op in streams[index]:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                results[index].append(
                    execute(world.sessions[op.session], op, digest, clock, observe)
                )
        except BaseException as exc:  # surfaced on the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(k,), name=f"bench-client-{k}")
        for k in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results, started


def window_figures(results, started):
    from pb_metrics import TAIL, median, tail_percentile

    done = [o for outcomes in results for o in outcomes]
    ok = [o for o in done if o.error is None]
    if not ok:
        raise RuntimeError("no operation completed in the timed window")
    elapsed = max(o.ended for o in done) - started
    latencies = [o.latency_ms() for o in ok]
    tail, beyond, valid = tail_percentile(latencies, TAIL)
    by_kind = {}
    for o in ok:
        by_kind.setdefault(o.op.kind, []).append(o.latency_ms())
    writes = by_kind.get("write", [])
    return {
        "ops": len(done),
        "elapsed_s": elapsed,
        "latency_p50_ms": median(latencies),
        "latency_p80_ms": tail,
        "tail_beyond": beyond,
        "tail_valid": valid,
        "first_row_p50_ms": median(
            [o.first_row_ms() for o in ok if o.op.streaming]
            or [o.first_row_ms() for o in ok]
        ),
        "ops_per_s": len(done) / elapsed,
        "rows_per_s": sum(o.rows for o in ok) / elapsed,
        "rows": sum(o.rows for o in ok),
        "write_p50_ms": median(writes) if writes else 0.0,
        "by_kind": by_kind,
    }


def verify(workload, world, results):
    """Check every executed operation against the oracle, in each
    client's own order (reads of a MyDB table depend on its last write).
    Returns ``(attempted, failed, messages)``."""
    check = workload.checker(world.data)
    attempted = failed = 0
    messages = []
    for outcomes in results:
        state = {}
        for outcome in outcomes:
            attempted += 1
            if outcome.error is None and check(outcome.op, outcome.digest, state):
                continue
            failed += 1
            if len(messages) < 5:
                reason = outcome.error or "rows differ from the oracle"
                messages.append(f"{outcome.op.sql}: {reason}")
    return attempted, failed, messages


def store_counters(world):
    """Lifetime counters of the workload's pools, sweeps, cache and wire."""
    pools = {id(s.buffer_pool): s.buffer_pool for s in world.stores}
    sweeps = [s.sweeper() for s in world.stores]
    counters = {
        "pool_hits": sum(p.stats.hits for p in pools.values()),
        "pool_misses": sum(p.stats.misses for p in pools.values()),
        "evictions": sum(p.stats.evictions for p in pools.values()),
        "swept": sum(s.stats.containers_swept for s in sweeps),
        "skipped": sum(s.stats.containers_skipped for s in sweeps),
        "deliveries": sum(s.stats.deliveries for s in sweeps),
        "bytes_swept": sum(s.stats.bytes_swept for s in sweeps),
        "cache_hits": 0,
        "cache_misses": 0,
        "round_trips": 0,
    }
    if world.cache is not None:
        counters["cache_hits"] = world.cache.stats.hits
        counters["cache_misses"] = world.cache.stats.misses
    for session in world.sessions:
        telemetry = getattr(session.executor, "telemetry", None)
        if telemetry is not None:
            counters["round_trips"] += telemetry.snapshot()
    return counters


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_figures(clock, traced, untraced, before, after, setups):
    """The per-layer metrics of one traced window."""
    from pb_metrics import median

    ops = traced["ops"]
    self_s = clock.self_seconds()
    calls = clock.calls()
    counts = clock.counts()
    delta = {key: after[key] - before[key] for key in before}

    def ms_per_op(layer):
        return self_s.get(layer, 0.0) * 1e3 / ops

    return {
        "machines.sweep_step_ms": ms_per_op("machines.sweep_step"),
        "machines.sweep_useful_ratio": _ratio(
            delta["deliveries"], delta["swept"] + delta["skipped"]
        ),
        "machines.sharing_factor": _ratio(delta["deliveries"], delta["swept"]),
        "machines.queue_wait_ms": counts.get("queue_wait_s", 0.0) * 1e3 / ops,
        "storage.fetch_ms": ms_per_op("storage.fetch"),
        "storage.pool_hit_rate": _ratio(
            delta["pool_hits"], delta["pool_hits"] + delta["pool_misses"]
        ),
        "storage.evictions_per_op": delta["evictions"] / ops,
        "storage.bytes_swept_per_op": delta["bytes_swept"] / ops,
        "catalog.concat_ms": ms_per_op("catalog.concat"),
        "query.predicate_ms": ms_per_op("query.predicate"),
        "query.predicate_evals_per_op": calls.get("query.predicate", 0) / ops,
        "query.rows_examined_per_row_out": _ratio(
            counts.get("query.rows_examined", 0), traced["rows"]
        ),
        "htm.cover_ms": ms_per_op("htm.cover"),
        "query.parse_ms": ms_per_op("query.parse"),
        "query.plan_ms": ms_per_op("query.plan"),
        "distributed.route_ms": ms_per_op("distributed.route"),
        "distributed.servers_touched_per_op": counts.get("servers_touched", 0) / ops,
        "net.hello_ms": ms_per_op("net.hello"),
        "net.connections_per_op": calls.get("net.connect", 0) / ops,
        "net.round_trips_per_op": delta["round_trips"] / ops,
        "net.encode_ms": ms_per_op("net.encode"),
        "net.decode_ms": ms_per_op("net.decode"),
        "net.wire_bytes_per_row": _ratio(
            counts.get("net.wire_bytes", 0), counts.get("net.wire_rows", 0)
        ),
        "service.cache_hit_rate": _ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
        ),
        "service.cache_ms": ms_per_op("service.cache"),
        "service.mydb_save_ms": ms_per_op("service.mydb_save"),
        "service.write_p50_ms": untraced["write_p50_ms"],
        "session.submit_ms": ms_per_op("session.submit"),
        "session.fetch_wait_ms": ms_per_op("session.fetch_wait"),
        "obs.assemble_ms": ms_per_op("obs.assemble"),
        "catalog.generate_s": median([t["generate_s"] for t in setups]),
        "storage.load_s": median([t["load_s"] for t in setups]),
        "bench.trace_overhead_frac": (
            traced["latency_p50_ms"] / untraced["latency_p50_ms"] - 1.0
        ),
    }


def observe_job(clock):
    """Traced-window hook: read the job's own trace and fan-out report."""
    from pb_trace import phase_breakdown

    def observe(job, outcome):
        phases = phase_breakdown(job.trace())
        clock.count("queue_wait_s", phases["queue"])
        clock.count(
            "servers_touched", sum(r.servers_touched for r in job.reports)
        )

    return observe


def setup_world(workload):
    """Set up ``SETUPS`` times; keep the last world, close the others."""
    timings = []
    world = None
    for _ in range(SETUPS):
        if world is not None:
            world.close()
            world = None
            gc.collect()
        started = time.perf_counter()
        world = workload.setup()
        world.timings["setup_s"] = time.perf_counter() - started
        timings.append(world.timings)
    return world, timings


def measure(workload, world, streams, seconds, setups):
    """The untraced window: the end-to-end metrics."""
    from pb_metrics import median

    results, started = run_clients(world, streams, workload.digest, seconds)
    figures = window_figures(results, started)
    metrics = {"setup_s": median([t["setup_s"] for t in setups])}
    for name in ("latency_p50_ms", "latency_p80_ms", "first_row_p50_ms",
                 "ops_per_s", "rows_per_s"):
        metrics[name] = figures[name]
    return metrics, [figures], results


def measure_traced(workload, world, streams, seconds, setups):
    """Half the window untraced, then half with every layer wrapped:
    the per-layer metrics and the tracing overhead between the two."""
    from pb_trace import Instrumentation, LayerClock, assert_uninstrumented

    half = seconds / 2.0
    first, started = run_clients(world, streams, workload.digest, half)
    untraced = window_figures(first, started)
    rest = [stream[len(done):] for stream, done in zip(streams, first)]
    clock = LayerClock()
    before = store_counters(world)
    with Instrumentation(clock):
        second, started = run_clients(
            world, rest, workload.digest, half, clock, observe_job(clock)
        )
    after = store_counters(world)
    assert_uninstrumented()
    traced = window_figures(second, started)
    metrics = layer_figures(clock, traced, untraced, before, after, setups)
    return metrics, [untraced, traced], [a + b for a, b in zip(first, second)]


def report(workload, windows, messages):
    """The human-readable summary, on standard error."""
    from pb_metrics import median

    for message in messages:
        print(f"WRONG {message}", file=sys.stderr)
    for label, figures in zip(("untraced", "traced"), windows):
        kinds = ", ".join(
            f"{kind} {len(values)} x {median(values):.1f} ms"
            for kind, values in sorted(figures["by_kind"].items())
        )
        print(f"{workload.name} {label} by kind: {kinds}", file=sys.stderr)
        print(
            f"{workload.name} {label}: {figures['ops']} ops in "
            f"{figures['elapsed_s']:.2f} s, p50 {figures['latency_p50_ms']:.1f} ms, "
            f"p80 {figures['latency_p80_ms']:.1f} ms "
            f"({figures['tail_beyond']} samples beyond it"
            f"{'' if figures['tail_valid'] else ': fewer than 10, not valid'})",
            file=sys.stderr,
        )


def run(workload, seed, seconds, trace):
    import pb_metrics
    from pb_trace import assert_uninstrumented

    world, setups = setup_world(workload)
    try:
        n_ops = max(64, int(OPS_PER_SECOND * seconds))
        streams = workload.streams(seed, world.data, n_ops)
        warm, _ = run_clients(world, [w for w, _t in streams], workload.digest)
        assert_uninstrumented()
        gc.collect()
        window = measure_traced if trace else measure
        metrics, windows, executed = window(
            workload, world, [t for _w, t in streams], seconds, setups
        )
        attempted, failed, messages = verify(
            workload, world, [w + e for w, e in zip(warm, executed)]
        )
    finally:
        world.close()
    if not trace:
        metrics["success_rate"] = 1.0 - failed / attempted
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    report(workload, windows, messages)
    units = {m[0]: m[1] for m in pb_metrics.END_TO_END + pb_metrics.PER_LAYER}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program is missing (no {SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from pb_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
