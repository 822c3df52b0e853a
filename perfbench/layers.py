"""The program's layers as the traced run sees them.

``serving_targets``/``training_targets`` name the public functions the
traced run wraps (see ``spans.py``); ``serving_layer_metrics`` and
``training_layer_metrics`` turn the recorded spans into the per-layer
metrics of ``BENCHMARK.json`` (metrics of layers a workload does not
run read 0). Each span name is ``<layer>.<call>``:

=====================  =================================================
span                   wrapped function (module)
=====================  =================================================
http.request           ``ServingHandler.do_POST`` (serve.http)
codec.graph            ``graph_from_json`` as called by serve.http
codec.query            ``query_from_json`` as called by serve.http
cache.payload          ``PreparedRequestCache.lookup_payload`` (serve.cache)
cache.fingerprints     ``PreparedRequestCache.fingerprints``
cache.prepared         ``PreparedRequestCache.prepared_many``
cache.prediction_get   ``PredictionCache.get_many``
cache.prediction_put   ``PredictionCache.put_many``
engine.score           ``ShardedEngine.score_resilient`` (serve.engine)
engine.batch           one shard batch (``MicroBatchEngine._process``),
                       linked to the ``engine.score`` spans it serves
prepare.graphs         ``prepare_graphs`` (model.prepared)
batch.make             ``make_batch_prepared`` (model.batching)
gnn.forward            ``CostGNN.forward`` (model.gnn, nn)
advisor.suggest        ``AdvisorService.suggest_placement`` (advisor)
advisor.graphs         ``placement_graphs`` (advisor)
optimizer.build_plan   ``build_plan`` (sql.optimizer)
joint_graph.build      ``build_joint_graph`` (core.joint_graph)
stats.estimate         ``CardinalityEstimator.estimate`` (stats)
feedback.record        ``AdvisorService.record_runtime``
feedback.append        ``FeedbackLog.append`` (feedback.collector)
registry.load          ``ModelRegistry.load_serving`` (serve.registry)
samples.prepare        ``prepare_dataset_samples`` (eval.samples), as
                       exported by ``repro.eval``
train.fit              one ``GracefulModel.fit`` (recorded by run.py)
train.forward          ``CostGNN.forward`` inside a fit
train.backward         ``Tensor.backward`` (nn.tensor)
optim.step             ``Adam.step`` (nn.optim)
=====================  =================================================
"""

from __future__ import annotations

from spans import Span, SpanIndex, Target

_CACHE_SPANS = {
    "cache.payload",
    "cache.fingerprints",
    "cache.prepared",
    "cache.prediction_get",
    "cache.prediction_put",
}
_ADVISOR_LAYERS = {"optimizer.build_plan", "joint_graph.build", "stats.estimate"}


def _count_first(_self, items, *args, **kwargs) -> int:
    return len(items)


def _count_arg(items, *args, **kwargs) -> int:
    return len(items)


def _batch_graphs(_self, batch, *args, **kwargs) -> int:
    return int(batch.n_graphs)


def serving_targets() -> list[Target]:
    from repro.advisor import advisor
    from repro.feedback.collector import FeedbackLog
    from repro.model import gnn
    from repro.serve import advisor_service, cache, engine, http, registry
    from repro.stats.base import CardinalityEstimator

    return [
        Target(http.ServingHandler, "do_POST", "http.request", root=True),
        Target(http, "graph_from_json", "codec.graph"),
        Target(http, "query_from_json", "codec.query"),
        Target(cache.PreparedRequestCache, "lookup_payload", "cache.payload"),
        Target(cache.PreparedRequestCache, "fingerprints", "cache.fingerprints"),
        Target(
            cache.PreparedRequestCache,
            "prepared_many",
            "cache.prepared",
            items=_count_first,
        ),
        Target(cache.PredictionCache, "get_many", "cache.prediction_get"),
        Target(cache.PredictionCache, "put_many", "cache.prediction_put"),
        Target(engine.ShardedEngine, "score_resilient", "engine.score", items=_count_first),
        Target(engine.MicroBatchEngine, "submit_many", None),
        Target(engine.MicroBatchEngine, "_process", "engine.batch", items=_count_first, batch=True),
        Target(cache, "prepare_graphs", "prepare.graphs", items=_count_arg),
        Target(engine, "make_batch_prepared", "batch.make", items=_count_arg),
        Target(gnn.CostGNN, "forward", "gnn.forward", items=_batch_graphs),
        Target(advisor_service.AdvisorService, "suggest_placement", "advisor.suggest"),
        Target(advisor_service, "placement_graphs", "advisor.graphs"),
        Target(advisor, "build_plan", "optimizer.build_plan"),
        Target(advisor, "build_joint_graph", "joint_graph.build"),
        Target(CardinalityEstimator, "estimate", "stats.estimate"),
        Target(advisor_service.AdvisorService, "record_runtime", "feedback.record"),
        Target(FeedbackLog, "append", "feedback.append"),
        Target(registry.ModelRegistry, "load_serving", "registry.load"),
    ]


def training_targets() -> list[Target]:
    import repro.eval
    from repro.model import gnn
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor

    return [
        Target(repro.eval, "prepare_dataset_samples", "samples.prepare"),
        Target(gnn.CostGNN, "forward", "train.forward", items=_batch_graphs),
        Target(Tensor, "backward", "train.backward"),
        Target(Adam, "step", "optim.step"),
    ]


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def serving_layer_metrics(
    spans: list[Span], latencies_s: list[float], decisions: int
) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced serving phase.

    ``latencies_s`` are the client's round trips of the traced requests
    (for span coverage); ``decisions`` is the number of /advise calls,
    the denominator of the advisor layers.
    """
    index = SpanIndex(spans)
    requests = index.named("http.request")
    posts = len(requests)
    request_s = sum(s.duration for s in requests)
    forwards = index.named("gnn.forward")
    forward_s = sum(s.duration for s in forwards)
    prepared = index.named("prepare.graphs")
    appends = index.named("feedback.append")
    out = {
        "http.self_ms": 1e3 * _per(index.total_self("http.request"), posts),
        "http.requests": float(posts),
        "codec.decode_ms": 1e3
        * _per(index.total("codec.graph") + index.total("codec.query"), posts),
        "cache.self_ms": 1e3 * _per(sum(index.total_self(n) for n in _CACHE_SPANS), posts),
        "engine.queue_wait_ms": 1e3
        * _per(index.total_self("engine.score"), len(index.named("engine.score"))),
        "prepare.ms_per_graph": 1e3
        * _per(sum(s.duration for s in prepared), sum(s.items for s in prepared)),
        "batch.ms_per_batch": 1e3
        * _per(index.total("batch.make"), len(index.named("batch.make"))),
        "forward.ms_per_batch": 1e3 * _per(forward_s, len(forwards)),
        "forward.graphs_per_s": _per(sum(s.items for s in forwards), forward_s),
        "forward.latency_share": _per(
            sum(index.time_in(r, {"gnn.forward"}) for r in requests), request_s
        ),
        "advisor.self_ms": 1e3
        * _per(
            index.total_self("advisor.suggest") + index.total_self("advisor.graphs"),
            decisions,
        ),
        "optimizer.build_plan_ms": 1e3
        * _per(index.total("optimizer.build_plan"), decisions),
        "optimizer.build_plan_calls": _per(
            len(index.named("optimizer.build_plan")), decisions
        ),
        "stats.estimate_ms": 1e3 * _per(index.total_self("stats.estimate"), decisions),
        "joint_graph.build_ms": 1e3
        * _per(index.total_self("joint_graph.build"), decisions),
        "feedback.append_ms": 1e3 * _per(index.total("feedback.append"), len(appends)),
        "feedback.records": float(len(appends)),
        "trace.span_coverage": _per(request_s, sum(latencies_s)),
    }
    # wall time of each decision spent building plans and graphs: the
    # advisor's own code plus the optimizer, estimator and joint-graph
    # layers it calls (the forward runs on the shard threads)
    suggest = index.named("advisor.suggest")
    layer_s = index.total_self("advisor.graphs") + sum(
        index.time_in(s, _ADVISOR_LAYERS) + index.self_time(s) for s in suggest
    )
    advise_s = sum(r.duration for r in requests if index.time_in(r, {"advisor.suggest"}))
    out["advisor.latency_share"] = _per(layer_s, advise_s)
    return out


def training_layer_metrics(spans: list[Span], epochs_per_fit: int) -> dict[str, float]:
    """Per-epoch training-layer times and the corpus preparation time.

    Only fits with wrapped layers (children of a ``train.fit`` span)
    count; ``trace.span_coverage`` is the share of their time inside
    the forward, backward and optimizer spans.
    """
    index = SpanIndex(spans)
    prepare = index.named("samples.prepare")
    fits = [f for f in index.named("train.fit") if index.children.get(f.id)]
    epochs = epochs_per_fit * len(fits)
    steps = {"train.forward", "train.backward", "optim.step"}
    return {
        "samples.prepare_s": _per(sum(s.duration for s in prepare), len(prepare)),
        "train.forward_ms": 1e3 * _per(index.total_self("train.forward"), epochs),
        "train.backward_ms": 1e3 * _per(index.total("train.backward"), epochs),
        "optim.step_ms": 1e3 * _per(index.total("optim.step"), epochs),
        "trace.span_coverage": _per(
            sum(index.time_in(f, steps) for f in fits), sum(f.duration for f in fits)
        ),
    }
