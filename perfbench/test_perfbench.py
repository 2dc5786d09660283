"""Tests of the benchmark's own machinery: percentiles, self time, the
layer wrappers, the job-trace phase breakdown and BENCHMARK.json."""

from __future__ import annotations

import json
import os
import threading

import pytest

import pb_metrics
import pb_trace
from pb_trace import Instrumentation, LayerClock, assert_uninstrumented, phase_breakdown

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- the tail-percentile rule -------------------------------------------


def test_nearest_rank():
    values = list(range(1, 11))
    assert pb_metrics.nearest_rank(values, 0.5) == 5
    assert pb_metrics.nearest_rank(values, 0.9) == 9
    assert pb_metrics.nearest_rank(values, 1.0) == 10
    assert pb_metrics.nearest_rank([7.0], 0.9) == 7.0


def test_p90_needs_ten_samples_beyond_it():
    value, beyond, valid = pb_metrics.tail_percentile(list(range(100)), 0.9)
    assert (value, beyond, valid) == (89, 10, True)
    _value, beyond, valid = pb_metrics.tail_percentile(list(range(99)), 0.9)
    assert (beyond, valid) == (9, False)
    _value, beyond, valid = pb_metrics.tail_percentile(list(range(40)), 0.9)
    assert (beyond, valid) == (4, False)
    # The reported tail is valid from a 50-operation run.
    value, beyond, valid = pb_metrics.tail_percentile(list(range(50)), pb_metrics.TAIL)
    assert (value, beyond, valid) == (39, 10, True)
    _value, beyond, valid = pb_metrics.tail_percentile(list(range(49)), pb_metrics.TAIL)
    assert (beyond, valid) == (9, False)


# -- self time ------------------------------------------------------------


class FakeTime:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_nested_spans():
    now = FakeTime()
    clock = LayerClock(now=now)
    clock.enter("outer")  # t=0
    now.t = 2.0
    clock.enter("inner")
    now.t = 3.0
    clock.enter("leaf")
    now.t = 4.0
    clock.exit()  # leaf: 1
    now.t = 6.0
    clock.exit()  # inner: 4 long, 3 self
    now.t = 10.0
    clock.exit()  # outer: 10 long, 6 self
    assert clock.self_seconds() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert clock.calls() == {"outer": 1, "inner": 1, "leaf": 1}
    # Self times of one thread's spans add up to the outermost span.
    assert sum(clock.self_seconds().values()) == 10.0


def test_self_time_ignores_spans_on_other_threads():
    now = FakeTime()
    clock = LayerClock(now=now)
    clock.enter("query")  # t=0 on this thread

    def worker():
        now.t = 1.0
        with clock.span("sweep"):
            now.t = 5.0

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    now.t = 10.0
    clock.exit()
    # The sweep ran concurrently, not inside the query span.
    assert clock.self_seconds() == {"query": 10.0, "sweep": 4.0}


def test_counts_sum_over_threads():
    clock = LayerClock()
    threads = [
        threading.Thread(target=lambda: [clock.count("rows", 3) for _ in range(100)])
        for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert clock.counts() == {"rows": 1200}


# -- wrapping and unwrapping the program -----------------------------------


def test_instrumentation_wraps_every_binding_and_restores_it():
    import repro.query.engine as engine_module
    import repro.query.parser as parser_module

    original = parser_module.parse_query
    assert engine_module.parse_query is original
    clock = LayerClock()
    with Instrumentation(clock):
        # A module that did ``from ... import parse_query`` is patched too.
        assert engine_module.parse_query is not original
        assert parser_module.parse_query is engine_module.parse_query
        engine_module.parse_query("SELECT objid FROM photo")
        with pytest.raises(RuntimeError):
            assert_uninstrumented()
    assert parser_module.parse_query is original
    assert engine_module.parse_query is original
    assert clock.calls()["query.parse"] == 1
    assert_uninstrumented()


def test_instrumentation_restores_methods_and_static_methods():
    from repro.catalog.table import ObjectTable
    from repro.machines.sweep import SweepScanner

    concat = ObjectTable.__dict__["concat_all"]
    step = SweepScanner.__dict__["step"]
    with Instrumentation(LayerClock()):
        assert ObjectTable.__dict__["concat_all"] is not concat
        assert SweepScanner.__dict__["step"] is not step
    assert ObjectTable.__dict__["concat_all"] is concat
    assert SweepScanner.__dict__["step"] is step


# -- the job trace ---------------------------------------------------------


def small_photo():
    from repro import SkySimulator, SurveyParameters

    return SkySimulator(
        SurveyParameters(n_galaxies=1500, n_stars=800, n_quasars=50, seed=5)
    ).generate()


def test_phase_breakdown_counts_the_grafted_server_query_once():
    from repro import Archive, ContainerStore
    from repro.catalog import make_tag_table
    from repro.net import ArchiveServer

    photo = small_photo()
    server = ArchiveServer(stores={
        "photo": ContainerStore.from_table(photo, 4),
        "tag": ContainerStore.from_table(make_tag_table(photo), 4),
    }).start()
    try:
        with Archive.connect(server.url) as session:
            job = session.submit("SELECT objid, ra FROM photo WHERE mag_r < 21")
            job.cursor.to_table()
            trace = job.trace()
    finally:
        server.stop()

    queries = trace.find("query")
    assert len(queries) == 2, "expected the client root and the grafted server root"
    (root,) = [span for span in trace.roots() if span.name == "query"]
    client = {span.name: span for span in trace.children_of(root)}
    phases = phase_breakdown(trace)
    assert phases["execute"] == pytest.approx(client["execute"].duration())
    assert phases["plan"] == pytest.approx(client["plan"].duration())
    # Summing by name (the old breakdown) adds the server's own phases.
    by_name = sum(
        span.duration() for span in trace.spans
        if span.name in pb_trace.PHASES and span.duration() is not None
    )
    assert by_name > sum(phases.values())
    assert sum(phases.values()) <= root.duration() + 1e-6


# -- the workloads -----------------------------------------------------------


def test_sweep_scan_shapes_are_batch_jobs_through_the_photo_pool():
    import numpy as np

    from repro import Archive, ContainerStore
    from repro.catalog import make_tag_table
    from repro.storage import BufferPool

    import run
    from pb_workloads import SweepScan

    photo = small_photo()
    pool = BufferPool(photo.nbytes() // 2)
    stores = {
        "photo": ContainerStore.from_table(photo, 4, buffer_pool=pool),
        "tag": ContainerStore.from_table(make_tag_table(photo), 4),
    }
    workload = SweepScan()
    check = workload.checker(photo.data)
    rng = np.random.default_rng(1)
    with Archive.connect(stores=stores) as session:
        for kind in workload.shapes:
            op = workload.op(kind, rng)
            op.submit = workload.submit
            reads = pool.stats.hits + pool.stats.misses
            seen = {}
            outcome = run.execute(
                session, op, workload.digest,
                observe=lambda job, _o: seen.update(phases=phase_breakdown(job.trace())),
            )
            assert outcome.error is None, outcome.error
            assert check(op, outcome.digest, {}), op.sql
            # Every shape sweeps photo (no tag route) as a queued batch job.
            assert pool.stats.hits + pool.stats.misses > reads, op.sql
            assert seen["phases"]["queue"] > 0.0


def test_execute_does_not_concatenate_the_result():
    from repro.catalog.table import ObjectTable

    import run
    from pb_workloads import Op, _ids

    photo = small_photo()
    batches = list(photo.iter_chunks(700))

    class Job:
        cursor = batches

    class Session:
        def submit(self, text, **kwargs):
            return Job()

    original = ObjectTable.__dict__["concat_all"]

    def refuse(tables):
        raise AssertionError("the benchmark concatenated a result")

    ObjectTable.concat_all = staticmethod(refuse)
    try:
        outcome = run.execute(Session(), Op("scan", "SELECT"), lambda op, b: _ids(b))
    finally:
        ObjectTable.concat_all = original
    assert outcome.error is None, outcome.error
    assert outcome.rows == len(photo)
    assert list(outcome.digest) == list(photo["objid"])


# -- the oracle comparisons -------------------------------------------------


def test_oracle_comparisons_reject_wrong_rows():
    import numpy as np

    import pb_oracle

    assert pb_oracle.ids_equal(np.array([3, 1, 2, 2]), np.array([2, 1, 2, 3]))
    assert not pb_oracle.ids_equal(np.array([1, 2]), np.array([1, 2, 2]))
    assert not pb_oracle.ids_equal(np.array([1, 2, 3]), np.array([1, 2, 4]))
    expected = {1: (100, 20.0), 2: (50, 18.5)}
    f4 = np.dtype(np.float32)
    eps = float(np.finfo(f4).eps)
    close = [(2, 18.5 * (1 + eps), 50), (1, 20.0, 100)]
    assert pb_oracle.aggregate_equal(close, expected, f4)
    assert not pb_oracle.aggregate_equal([(1, 20.0, 100)], expected, f4)
    assert not pb_oracle.aggregate_equal([(1, 20.0, 99), (2, 18.5, 50)], expected, f4)
    assert not pb_oracle.aggregate_equal([(1, 20.01, 100), (2, 18.5, 50)], expected, f4)


# -- BENCHMARK.json --------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == [tuple(m) for m in pb_metrics.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
    ] == [tuple(m) for m in pb_metrics.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == [
        "sweep_scan", "cone_search", "remote_mixed"
    ]
    assert set(pb_metrics.PREDICTIONS) == {m[0] for m in pb_metrics.PER_LAYER}
    e2e = {m[0] for m in pb_metrics.END_TO_END} | set(pb_metrics.PREDICTIONS)
    for moved, _workloads in pb_metrics.PREDICTIONS.values():
        assert set(moved) <= e2e
