"""The benchmark's span arithmetic, wrapper hygiene and request inputs.

Runs with the repository's tests (``python -m pytest``) and on its own::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import threading
import types
from concurrent.futures import Future
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

from spans import Span, SpanIndex, Target, Tracer, union_length  # noqa: E402


class FakeClock:
    """A clock the test advances by hand (shared by every thread)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert union_length([(0, 2), (1, 3)], 1.5, 2.5) == pytest.approx(1.0)
    assert union_length([(4, 5)], 0, 3) == 0.0
    assert union_length([], 0, 1) == 0.0


def test_self_time_with_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer", root=True) as outer:
        clock.now = 1.0
        with tracer.span("child") as child:
            clock.now = 3.0
            with tracer.span("grandchild"):
                clock.now = 4.0
            clock.now = 5.0
        clock.now = 6.0
        with tracer.span("child"):
            clock.now = 7.0
        clock.now = 10.0
    index = SpanIndex(tracer.spans)
    spans = {s.id: s for s in tracer.spans}
    assert index.self_time(spans[outer]) == pytest.approx(10 - 4 - 1)
    assert index.self_time(spans[child]) == pytest.approx(4 - 1)
    assert index.total_self("child") == pytest.approx(3 + 1)
    # one request id for the whole tree, parents follow the nesting
    assert {s.request for s in tracer.spans} == {spans[outer].request}
    assert spans[child].parent == outer


def test_children_on_other_threads_overlap_by_union():
    # a parent whose two children ran concurrently on other threads:
    # self time subtracts the union of their intervals, not the sum
    parent = Span(1, "parent", 0.0, 10.0, request=1)
    a = Span(2, "child", 2.0, 6.0, parent=1, request=1, thread=11)
    b = Span(3, "child", 4.0, 8.0, parent=1, request=1, thread=12)
    index = SpanIndex([parent, a, b])
    assert index.self_time(parent) == pytest.approx(10 - 6)


def test_spans_on_another_thread_do_not_nest_implicitly():
    tracer = Tracer()
    with tracer.span("parent", root=True):

        def work() -> None:
            with tracer.span("worker"):
                pass

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
    # a worker thread's span is a root of its own unless linked
    worker = next(s for s in tracer.spans if s.name == "worker")
    assert worker.parent is None and worker.request is None
    assert worker.thread != threading.get_ident()


class _Request:
    def __init__(self, future):
        self.future = future


class FakeEngine:
    """The two engine calls the tracer hooks: submit and batch."""

    def __init__(self, clock: FakeClock):
        self.clock = clock
        self.queue: list[_Request] = []

    def submit_many(self, graphs):
        requests = [_Request(Future()) for _ in graphs]
        self.queue.extend(requests)
        return [r.future for r in requests]

    def process(self, requests, reason="size"):
        self.clock.now += 2.0  # the batch's own work
        for r in requests:
            r.future.set_result(1.0)


def test_batch_links_to_every_request_it_serves():
    clock = FakeClock()
    tracer = Tracer(clock)
    engine = FakeEngine(clock)
    tracer.install(
        [
            Target(FakeEngine, "submit_many", None),
            Target(FakeEngine, "process", "engine.batch", batch=True),
        ]
    )
    try:
        with tracer.span("score", root=True) as first:
            engine.submit_many(["g1", "g2"])
        with tracer.span("score", root=True) as second:
            engine.submit_many(["g3"])
        # the batch runs on a worker thread, with nothing open there
        thread = threading.Thread(target=engine.process, args=(list(engine.queue),))
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
    finally:
        tracer.uninstall()
    batch = next(s for s in tracer.spans if s.name == "engine.batch")
    assert batch.links == (first, second)
    assert batch.parent is None
    index = SpanIndex(tracer.spans)
    assert batch in index.children[first]
    assert batch in index.children[second]


def test_queue_wait_is_score_self_time_minus_the_linked_batch():
    # score span 0..10 on thread A; the batch it caused ran 6..9 on
    # thread B: 7 ms of the score span were spent waiting in the queue
    score = Span(1, "engine.score", 0.0, 10.0, request=1, thread=1)
    lookup = Span(2, "cache.prediction_get", 0.0, 1.0, parent=1, request=1, thread=1)
    batch = Span(3, "engine.batch", 6.0, 9.0, thread=2, links=(1,))
    forward = Span(4, "gnn.forward", 7.0, 9.0, parent=3, thread=2)
    index = SpanIndex([score, lookup, batch, forward])
    assert index.self_time(score) == pytest.approx(10 - 1 - 3)
    assert index.time_in(score, {"gnn.forward"}) == pytest.approx(2.0)
    assert index.self_time(batch) == pytest.approx(1.0)


def test_span_round_trips_through_dict():
    span = Span(7, "x", 1.0, 2.5, parent=3, request=2, thread=9, links=(1, 2), items=4)
    assert Span.from_dict(span.as_dict()) == span


def _plain(x):
    return x + 1


class Base:
    def inherited(self):
        return "base"


class Child(Base):
    def own(self):
        return "own"


def test_uninstall_restores_every_original():
    module = types.ModuleType("fake_module")
    module.plain = _plain
    before = {
        "plain": module.plain,
        "own": Child.__dict__["own"],
    }
    tracer = Tracer()
    targets = [
        Target(module, "plain", "m.plain"),
        Target(Child, "own", "c.own"),
        Target(Child, "inherited", "c.inherited"),
    ]
    tracer.install(targets)
    assert module.plain is not before["plain"]
    assert Child().own() == "own" and Child().inherited() == "base"
    assert module.plain(1) == 2
    assert [s.name for s in tracer.spans] == ["c.own", "c.inherited", "m.plain"]
    tracer.uninstall()
    assert module.plain is before["plain"]
    assert Child.__dict__["own"] is before["own"]
    assert "inherited" not in Child.__dict__
    assert Child().inherited() == "base"
    assert not tracer.installed
    # reinstalling after uninstalling wraps the originals again, once
    tracer.install(targets)
    tracer.uninstall()
    assert module.plain is before["plain"]


def test_program_targets_restore_the_unmodified_program():
    """Every function the traced runs wrap is the original afterwards."""
    import layers

    def snapshot(targets):
        return [
            (t.owner, t.attr, vars(t.owner).get(t.attr) if isinstance(t.owner, type)
             else getattr(t.owner, t.attr))
            for t in targets
        ]

    for make in (layers.serving_targets, layers.training_targets):
        targets = make()
        before = snapshot(targets)
        tracer = Tracer()
        tracer.install(targets)
        assert all(
            (vars(o).get(a) if isinstance(o, type) else getattr(o, a)) is not f
            for o, a, f in before
        )
        tracer.uninstall()
        assert snapshot(targets) == before


def _tiny_pool(n_queries: int = 5) -> list[dict]:
    """Pool entries shaped like state.py's, over small synthetic graphs."""
    import numpy as np

    from repro.core import encoding as enc
    from repro.core.joint_graph import JointGraph
    from repro.serve import graph_to_json

    rng = np.random.default_rng(0)
    pool = []
    for q in range(n_queries):
        graphs = {}
        for placement in ("push_down", "pull_up"):
            graph = JointGraph()
            for gtype in ("TABLE", "SCAN", "FILTER", "AGG"):
                graph.add_node(gtype, rng.random(enc.FEATURE_DIMS[gtype]))
            for node in range(1, 4):
                graph.add_edge(node - 1, node)
            graph.root_id = 3
            graphs[placement] = graph
        pool.append(
            {
                "graph": {p: graph_to_json(g) for p, g in graphs.items()},
                "joint_graph": graphs,
                "runtime": {"push_down": 1.0 + q, "pull_up": 2.0},
            }
        )
    return pool


def test_predict_bodies_decode_to_the_reference_graphs_and_never_repeat():
    import json

    from repro.feedback import graph_fingerprint
    from repro.serve import graph_from_json, graph_to_json
    from workloads import PredictInputs

    inputs = PredictInputs(_tiny_pool(), seed=3, repeat=False)
    seen = set()
    for index in range(12):
        body_id = inputs.body_id(index)
        wire = [graph_from_json(g) for g in json.loads(inputs.body(body_id))["graphs"]]
        objects = inputs.graph_objects(body_id)
        assert [graph_fingerprint(g) for g in wire] == [
            graph_fingerprint(g) for g in objects
        ]
        for graph in objects:
            fp = graph_fingerprint(graph)
            assert fp not in seen
            seen.add(fp)
    # the perturbed copies leave the pool's graphs untouched
    assert all(
        graph_to_json(entry["joint_graph"][p]) == entry["graph"][p]
        for entry in inputs.pool
        for p in ("push_down", "pull_up")
    )


def test_repeat_workload_misses_exactly_one_request_in_eight():
    from workloads import FRESH_BODY_BASE, FRESH_EVERY, ROTATE_EVERY, PredictInputs

    inputs = PredictInputs(_tiny_pool(40), seed=5, repeat=True)
    start = inputs.quality_requests
    assert start == 3 and inputs.hot_bodies == 1
    ids = [inputs.body_id(i) for i in range(start, start + 3 * ROTATE_EVERY)]
    for block in range(len(ids) // FRESH_EVERY):
        chunk = ids[block * FRESH_EVERY : (block + 1) * FRESH_EVERY]
        assert sum(b >= FRESH_BODY_BASE for b in chunk) == 1
    # the quality pass walks the pool once, with unique bodies
    assert [inputs.body_id(i) for i in range(start)] == list(range(start))
    # every repeat resends a body of the pass, from a window that moves
    # on every ROTATE_EVERY requests
    windows = [
        {b for b in ids[w * ROTATE_EVERY : (w + 1) * ROTATE_EVERY] if b < FRESH_BODY_BASE}
        for w in range(3)
    ]
    assert windows == [{0}, {1}, {2}]
