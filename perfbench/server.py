"""The served deployment, launched as its own process by ``run.py``.

Wires the same components as ``scripts/serve.py`` without ``--workers``
— a :class:`~repro.serve.ShardedEngine` with the prepared-request and
prediction caches, circuit breaker and degraded fallback behind the
threaded ``repro.serve.http`` front end, an ``AdvisorService`` and a
``FeedbackLog`` — with the script's default settings. Unlike the script
it neither generates a database nor trains: it loads the database and
the published model that ``state.py`` prepared, so start-up time is the
deployment's own (imports, registry load, catalog and estimator build).

Protocol with the parent, one line each way::

    stdout  ready <port>            once the socket is listening
    stdin   trace on                wrap the layers (see layers.py)
    stdin   trace off               restore the original functions
    stdin   dump <path>             write the recorded spans as JSON
    stdin   stop  (or EOF)          drain and exit

Run standalone for a manual look (after one benchmark run built the
state)::

    python3 perfbench/server.py --state .bench_build/perfbench/<hash> \\
        --feedback-dir /tmp/fb
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

import layers
import state as bench_state
from spans import Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state", required=True, help="prepared state directory")
    parser.add_argument("--feedback-dir", required=True)
    parser.add_argument(
        "--trace", action="store_true", help="wrap the layers from the start"
    )
    args = parser.parse_args(argv)

    bench_state.use_program()
    tracer = Tracer()
    if args.trace:
        tracer.install(layers.serving_targets())

    from repro.feedback import FeedbackLog
    from repro.serve import (
        AdvisorService,
        CircuitBreaker,
        DegradedFallback,
        ModelRegistry,
        PredictionCache,
        PreparedRequestCache,
        ShardedEngine,
        make_server,
    )
    from repro.stats import StatisticsCatalog, make_estimator

    prepared = bench_state.State(Path(args.state))
    database = prepared.load_database()
    registry = ModelRegistry(prepared.registry)
    model, version = registry.load_serving(bench_state.MODEL_NAME)
    # scripts/serve.py defaults: shards from $REPRO_SERVE_SHARDS / cores,
    # batch 64, 2 ms coalescing timer, default admission bound
    engine = ShardedEngine(
        model,
        shards=None,
        max_batch_size=64,
        max_wait_us=2000.0,
        request_cache=PreparedRequestCache(),
        prediction_cache=PredictionCache(),
        max_queue=None,
        breaker=CircuitBreaker(),
        fallback=DegradedFallback(),
    )
    service = AdvisorService(
        engine,
        catalog=StatisticsCatalog(database),
        estimator=make_estimator("actual", database),
        strategy="conservative",
        feedback=FeedbackLog(args.feedback_dir),
    )
    server = make_server(service, registry=registry, port=0, model_ref=version.ref)
    serving = threading.Thread(target=server.serve_forever, name="http", daemon=True)
    serving.start()
    print(f"ready {server.server_address[1]}", flush=True)

    try:
        for line in sys.stdin:
            command = line.split()
            if not command or command[0] == "stop":
                break
            if command == ["trace", "on"] and not tracer.installed:
                tracer.install(layers.serving_targets())
            elif command == ["trace", "off"]:
                tracer.uninstall()
            elif command[0] == "dump" and len(command) == 2:
                with open(command[1], "w") as fh:
                    json.dump([s.as_dict() for s in tracer.spans], fh)
            print("ok", flush=True)
    finally:
        server.drain()
        serving.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
