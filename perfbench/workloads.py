"""The four workloads: their inputs, their checks and their metrics.

* ``predict_unique`` — ``/predict`` bodies of ``QUERIES_PER_REQUEST``
  queries × both placement plans (32 graphs, ``scripts/loadtest.py``'s
  default ``--submit-chunk``); every graph carries a perturbation unique
  in the run, so no payload or prediction cache can hit, and each
  body's 32 misses take the joint ``prepare_graphs`` path: the miss path
  (codec → prepared → batching → forward).
* ``predict_repeat`` — the same shape, but after the quality pass all
  but one request in every ``FRESH_EVERY`` resend a body from a hot
  window over the quality pass's bodies that moves on every
  ``ROTATE_EVERY`` requests (``scripts/loadtest.py``'s repeat / drift
  model: a hot quarter of the templates, moved on every drift period,
  counted here in requests so the inputs do not depend on speed).
* ``advise`` — ``/advise`` on distinct UDF-filter queries, each decision
  followed by a ``/feedback`` post of the chosen placement's simulated
  runtime.
* ``train`` — ``GracefulModel.fit`` on a fixed corpus, then prediction
  on the held-out pool, in the benchmark's own process (``run.py``).

Request ``i`` of a run is a pure function of ``(seed, i)``. Each serving
run opens with a *quality pass* of fixed work whose served answers give
the quality metrics: on ``predict_*`` one walk over the whole query pool,
on ``advise`` a fixed set of ``EVAL_QUERIES`` queries. The advisor's
speedup is a ratio of runtime sums that a few heavy queries dominate (5%
of the pool carry 58% of its push-down runtime), so over a seed's random
subset it would measure the subset; over a fixed set it measures the
served decisions.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from client import Phase, post

#: 16 queries × 2 placements = 32 graphs per body: ``scripts/loadtest.py``'s
#: default ``--submit-chunk``, and at least ``serve.cache``'s
#: ``JOINT_PREPARE_THRESHOLD`` (24), so a body's misses are prepared
#: jointly by ``prepare_graphs``
QUERIES_PER_REQUEST = 16
PLACEMENTS = ("push_down", "pull_up")
#: one fresh body in each block of this many requests, at a seeded
#: position: an exact miss share (1/8, "about nine in ten" repeats), so
#: the latency quantiles do not move with a seed's miss count; a random
#: 1-in-10 miss share put p90 on the edge between hits and misses and
#: spread it over seeds
FRESH_EVERY = 8
#: the hot window is this share of the template bodies, as loadtest's
#: default 32 hot of 128 templates; the templates are the quality pass's
#: bodies, so the pass leaves every one cached (steady-state hit ratios)
HOT_SHARE = 4
#: loadtest moves its hot window every second (``--drift-period 1``);
#: in requests, that is about one second of predict_repeat at the rate
#: measured on two cores (README.md)
ROTATE_EVERY = 53
#: advise's quality set: the same queries for every seed
EVAL_QUERIES = 60
#: advise's timed queries are dealt from this many cost strata (by plan
#: size, which decision cost follows most) in turn, so any run's prefix of the
#: order has the pool's mix of cheap and expensive decisions
COST_STRATA = 16
#: perturbation step added to one log-cardinality feature per graph:
#: unique per (body, graph), small enough to leave the estimate intact
PERTURB_STEP = 1e-12
#: /predict answers must match the offline forward within this relative
#: tolerance (float32 model; a graph's value may differ in the last
#: bits with the composition of the batch it was scored in)
PREDICT_RTOL = 1e-4
#: the same tolerance for the advisor's per-level costs
ADVISE_RTOL = 1e-4
#: body ids of the set-up request and of predict_repeat's fresh bodies
#: live in disjoint ranges above any run's request count; kept small, as
#: the perturbation grows with the id (at most ~1e-4 on a log feature)
SETUP_BODY_ID = 1_000_000
FRESH_BODY_BASE = 2_000_000


def percentile_ms(latencies_s: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(np.asarray(latencies_s), q)) if latencies_s else 0.0


def q_errors(predicted, actual) -> np.ndarray:
    predicted = np.maximum(np.asarray(predicted, dtype=np.float64), 1e-9)
    actual = np.maximum(np.asarray(actual, dtype=np.float64), 1e-9)
    return np.maximum(predicted / actual, actual / predicted)


def _table_row(graph: dict) -> int:
    """Index of the graph's first TABLE node (its feature 0 is log rows)."""
    return graph["node_types"].index("TABLE")


class PredictInputs:
    """Request bodies of the two /predict workloads."""

    def __init__(self, pool: list[dict], seed: int, repeat: bool):
        self.pool = pool
        self.seed = seed
        self.repeat = repeat
        self._rows = [
            {p: _table_row(q["graph"][p]) for p in PLACEMENTS} for q in pool
        ]
        #: the quality pass walks the pool in one fixed order: a query's
        #: float32 prediction can change in the last bits with the batch
        #: it is scored in, and a near-tie placement choice with it, so a
        #: seeded order made advisor_speedup depend on the seed
        self.quality_order = [int(i) for i in np.random.default_rng(11).permutation(len(pool))]
        #: later bodies walk it in a seeded order, so every run sees the
        #: pool's mix of plan sizes, not a lucky draw of it
        self.order = [int(i) for i in np.random.default_rng([seed, 11]).permutation(len(pool))]
        #: requests of the quality pass: one walk over the whole pool
        self.quality_requests = math.ceil(len(pool) / QUERIES_PER_REQUEST)
        self.warmup_requests = self.quality_requests
        self.hot_bodies = max(1, self.quality_requests // HOT_SHARE)

    def body_id(self, index: int) -> int:
        if not self.repeat or index < self.quality_requests:
            return index
        block, slot = divmod(index - self.quality_requests, FRESH_EVERY)
        if slot == np.random.default_rng([self.seed, 5, block]).integers(FRESH_EVERY):
            return FRESH_BODY_BASE + index
        window = (index - self.quality_requests) // ROTATE_EVERY
        rng = np.random.default_rng([self.seed, 7, index])
        hot = window * self.hot_bodies + int(rng.integers(self.hot_bodies))
        return hot % self.quality_requests

    def picks(self, body_id: int) -> list[int]:
        order = self.quality_order if body_id < self.quality_requests else self.order
        first = body_id * QUERIES_PER_REQUEST
        return [order[(first + j) % len(order)] for j in range(QUERIES_PER_REQUEST)]

    def _perturbations(self, body_id: int):
        """``(pick, placement, row, offset)`` per graph of the body."""
        for j, pick in enumerate(self.picks(body_id)):
            for k, placement in enumerate(PLACEMENTS):
                unique = (body_id * QUERIES_PER_REQUEST + j) * len(PLACEMENTS) + k + 1
                yield pick, placement, self._rows[pick][placement], unique * PERTURB_STEP

    def graphs(self, body_id: int) -> list[dict]:
        """The body's graphs in wire form."""
        out = []
        for pick, placement, row, offset in self._perturbations(body_id):
            template = self.pool[pick]["graph"][placement]
            features = list(template["features"])
            features[row] = [features[row][0] + offset] + features[row][1:]
            out.append({**template, "features": features})
        return out

    def graph_objects(self, body_id: int) -> list:
        """The same graphs built from the prepared objects, not the codec."""
        from repro.core.joint_graph import JointGraph

        out = []
        for pick, placement, row, offset in self._perturbations(body_id):
            template = self.pool[pick]["joint_graph"][placement]
            features = list(template.features)
            features[row] = features[row].copy()
            features[row][0] += offset
            out.append(
                JointGraph(
                    node_types=template.node_types,
                    features=features,
                    edges=template.edges,
                    root_id=template.root_id,
                )
            )
        return out

    def body(self, body_id: int) -> bytes:
        return json.dumps({"graphs": self.graphs(body_id)}).encode()


class PredictRun:
    """Drives one /predict workload against a started server."""

    def __init__(self, inputs: PredictInputs, model):
        self.inputs = inputs
        self.model = model
        self.port = 0
        #: body id -> runtimes of its first answer; later answers to the
        #: same body must equal it
        self.answers: dict[int, list[float]] = {}
        self.mismatched_answers: set[int] = set()

    def call(self, index: int) -> tuple[float, bool, str]:
        return self.send(self.inputs.body_id(index))[:3]

    def send(self, body_id: int) -> tuple[float, bool, str, float]:
        """``(latency_s, ok, error, answer arrival time)`` of one body."""
        body = self.inputs.body(body_id)
        start = time.perf_counter()
        try:
            status, raw = post(self.port, "/predict", body)
        except OSError as exc:
            now = time.perf_counter()
            return now - start, False, f"predict: {exc!r}", now
        arrived = time.perf_counter()
        latency = arrived - start
        if status != 200:
            return latency, False, f"predict: HTTP {status} {raw[:200]!r}", arrived
        runtimes = json.loads(raw).get("runtimes")
        expected = 2 * QUERIES_PER_REQUEST
        if not isinstance(runtimes, list) or len(runtimes) != expected or None in runtimes:
            return latency, False, f"predict: malformed answer {raw[:200]!r}", arrived
        previous = self.answers.setdefault(body_id, runtimes)
        if previous is not runtimes and previous != runtimes:
            self.mismatched_answers.add(body_id)
        return latency, True, "", arrived

    def shares(self, phase: Phase) -> dict[str, float]:
        """Share of the phase's bodies sent before in the run, and of its
        graphs whose plan topology (template) was sent before."""
        last = max((i for i, _, _ in phase.results), default=-1)
        first = min((i for i, _, _ in phase.results), default=0)
        bodies: set[int] = set()
        templates: set[int] = set()
        repeated = seen = graphs = 0
        for index in range(last + 1):
            body_id = self.inputs.body_id(index)
            timed = index >= first
            if timed and body_id in bodies:
                repeated += 1
            bodies.add(body_id)
            for pick in self.inputs.picks(body_id):
                if timed:
                    graphs += 1
                    seen += pick in templates
                templates.add(pick)
        timed_requests = last + 1 - first
        return {
            "repeated_body_share": repeated / timed_requests if timed_requests > 0 else 0.0,
            "seen_topology_share": seen / graphs if graphs else 0.0,
        }

    def reference(self, body_ids) -> dict[int, np.ndarray]:
        """Offline ``predict_runtimes`` of the published model per body."""
        from repro.model.training import predict_runtimes

        ids = sorted(set(body_ids))
        graphs = [g for b in ids for g in self.inputs.graph_objects(b)]
        values = predict_runtimes(self.model, graphs)
        width = 2 * QUERIES_PER_REQUEST
        return {b: values[i * width : (i + 1) * width] for i, b in enumerate(ids)}

    def check(self, body_id: int, reference: dict[int, np.ndarray]) -> bool:
        if body_id in self.mismatched_answers:
            return False
        served = np.asarray(self.answers[body_id])
        return bool(np.allclose(served, reference[body_id], rtol=PREDICT_RTOL, atol=0.0))

    def quality(self) -> dict[str, float]:
        """Cost-mode placement choice and q-error of the quality pass.

        Each body holds both placement plans of its queries; an
        optimizer takes the cheaper predicted plan. The speedup is the
        always-push-down runtime over the chosen plans' runtimes, both
        from the simulator, summed over the pass (every pool query once).
        """
        pushdown = chosen = 0.0
        errors = []
        for body_id in range(self.inputs.quality_requests):
            if body_id not in self.answers:
                continue
            served = self.answers[body_id]
            for j, pick in enumerate(self.inputs.picks(body_id)):
                runtime = self.inputs.pool[pick]["runtime"]
                down, up = served[2 * j], served[2 * j + 1]
                pushdown += runtime["push_down"]
                chosen += runtime["pull_up"] if up < down else runtime["push_down"]
                errors.extend(q_errors([down, up], [runtime["push_down"], runtime["pull_up"]]))
        return {
            "advisor_speedup": pushdown / chosen if chosen > 0 else 0.0,
            "qerror_p50": float(np.percentile(errors, 50)) if errors else 0.0,
            "qerror_p90": float(np.percentile(errors, 90)) if errors else 0.0,
        }


class AdviseRun:
    """Drives the /advise + /feedback workload against a started server."""

    def __init__(self, pool: list[dict], seed: int):
        self.pool = pool
        fixed = np.random.default_rng(0).permutation(len(pool))
        self.eval_set = sorted(int(i) for i in fixed[:EVAL_QUERIES])
        rng = np.random.default_rng([seed, 13])
        # the quality pass: the fixed set, in the seed's order
        self.order = [self.eval_set[i] for i in rng.permutation(EVAL_QUERIES)]
        # the rest, dealt round-robin from plan-size strata
        rest = sorted(
            (int(i) for i in fixed[EVAL_QUERIES:]),
            key=lambda i: (len(pool[i]["graph"]["push_down"]["node_types"]), i),
        )
        strata = [list(rng.permutation(part)) for part in np.array_split(rest, COST_STRATA)]
        while any(strata):
            for stratum in rng.permutation(COST_STRATA):
                if strata[stratum]:
                    self.order.append(int(strata[stratum].pop()))
        self.warmup_requests = EVAL_QUERIES
        self.port = 0
        #: pool index -> (served pull_up, q_error from /feedback)
        self.decisions: dict[int, tuple[bool, float]] = {}

    def call(self, index: int) -> tuple[float, bool, str]:
        # past the end of the pool, queries repeat (the report says so)
        return self.decide(self.order[index % len(self.order)])[:3]

    def decide(self, pick: int) -> tuple[float, bool, str, float]:
        """``(latency_s, ok, error, decision arrival time)``; the
        ``/feedback`` post follows the arrival and is not in the latency."""
        entry = self.pool[pick]
        body = json.dumps({"query": entry["query"], "client": "optimizer"}).encode()
        start = time.perf_counter()
        try:
            status, raw = post(self.port, "/advise", body)
        except OSError as exc:
            now = time.perf_counter()
            return now - start, False, f"advise: {exc!r}", now
        arrived = time.perf_counter()
        latency = arrived - start
        if status != 200:
            return latency, False, f"advise: HTTP {status} {raw[:200]!r}", arrived
        decision = json.loads(raw)
        offline = entry["offline"]
        if decision.get("pull_up") is not offline["pull_up"]:
            return latency, False, f"advise: query {entry['query_id']} placement differs", arrived
        for key in ("pullup_costs", "pushdown_costs"):
            if not np.allclose(decision.get(key), offline[key], rtol=ADVISE_RTOL, atol=0.0):
                return latency, False, f"advise: query {entry['query_id']} {key} differ", arrived
        placement = "pull_up" if decision["pull_up"] else "push_down"
        feedback = {
            "decision_id": decision.get("decision_id"),
            "observed": entry["runtime"][placement],
        }
        if entry["true_selectivity"] is not None:
            feedback["true_selectivity"] = entry["true_selectivity"]
        try:
            status, raw = post(self.port, "/feedback", json.dumps(feedback).encode())
        except OSError as exc:
            return latency, False, f"feedback: {exc!r}", arrived
        answer = json.loads(raw) if status == 200 else {}
        if answer.get("accepted") != 1:
            return latency, False, f"feedback: HTTP {status} {raw[:200]!r}", arrived
        self.decisions[pick] = (bool(decision["pull_up"]), float(answer["q_error"]))
        return latency, True, "", arrived

    def shares(self, phase: Phase) -> dict[str, float]:
        repeated = sum(1 for i, _, _ in phase.results if i >= len(self.order))
        return {"repeated_body_share": repeated / phase.attempted if phase.attempted else 0.0}

    def quality(self) -> dict[str, float]:
        """Speedup and feedback q-error over the fixed quality set."""
        pushdown = served = 0.0
        errors = []
        for pick in self.eval_set:
            if pick not in self.decisions:
                continue
            pull_up, q_error = self.decisions[pick]
            runtime = self.pool[pick]["runtime"]
            pushdown += runtime["push_down"]
            served += runtime["pull_up" if pull_up else "push_down"]
            errors.append(q_error)
        return {
            "advisor_speedup": pushdown / served if served > 0 else 0.0,
            "qerror_p50": float(np.percentile(errors, 50)) if errors else 0.0,
            "qerror_p90": float(np.percentile(errors, 90)) if errors else 0.0,
        }
