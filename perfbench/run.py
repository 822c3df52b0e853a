#!/usr/bin/env python3
"""One benchmark command for serving and training (see README.md).

    python3 perfbench/run.py --workload predict_unique --seed 1 \\
        --seconds 12 --trace 0

Workloads: ``predict_unique``, ``predict_repeat``, ``advise``, ``train``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it reports sample counts, cache shares and the
processes and threads the workload ran. Any failed check makes the
command exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading
import time

import state as bench_state

WORKLOADS = ("predict_unique", "predict_repeat", "advise", "train")
#: server launches per run; set-up time is the fastest of them. The
#: two-core VM's vCPUs switch between speeds about 35% apart for seconds
#: to minutes; a median of a few launches follows the swing, the
#: minimum of deterministic work does not
SETUP_LAUNCHES = 8
#: traced runs alternate untraced and traced slices of the timed phase
TRACE_SLICES = 4

#: train workload: the quality fits fine-tune the served weights the way
#: the retrain loop does (``repro.feedback.RetrainConfig``: gentle
#: learning rate, short run); from-scratch fits are chaotic here, so
#: their q-errors would measure luck, not the code
TRAIN_EPOCHS = 15
TRAIN_LR = 1e-3
#: quality fits; fit ``k`` shuffles with seed ``k`` whatever the run's
#: seed, so the quality metrics are a function of the code alone
TRAIN_FITS = 2
#: the timed phase repeats rounds of short units and keeps each unit's
#: fastest time (see SETUP_LAUNCHES): per round, one preparation of the
#: corpus (a set-up sample), TIMING_FITS fits of TIMING_EPOCHS epochs
#: (the same seed, so the same work) and one pass over the timed
#: held-out queries
TIMING_FITS = 4
TIMING_EPOCHS = 1
#: held-out queries whose single-query prediction latency is timed
LATENCY_QUERIES = 150
#: train's times are scaled to a reference machine speed. The VM's speed
#: wanders by up to half for minutes at a time; a run's fastest units
#: follow it, and a single-process workload feels all of it (two sets of
#: ten seeds put train's set-up medians 31% apart). A fixed pure-Python
#: loop, timed before every unit, measures the speed of the moment; the
#: times are multiplied by CALIBRATION_REF_S over the loop's fastest time
#: in the run. CALIBRATION_REF_S is that loop's typical fastest time on
#: the two-vCPU 2.1 GHz Xeon VM the bounds were set on.
CALIBRATION_LOOPS = 70_000
CALIBRATION_REF_S = 0.005


def calibration_s() -> float:
    """Time of a fixed pure-Python loop (no program code, no allocation)."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _ratio(stats_before: dict, stats_after: dict, hits: str, misses: str) -> float:
    h = stats_after[hits] - stats_before[hits]
    m = stats_after[misses] - stats_before[misses]
    return h / (h + m) if h + m else 0.0


def metric_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    return json.loads((bench_state.ROOT / "BENCHMARK.json").read_text())


def stats_layers(before: dict, after: dict) -> dict[str, float]:
    """Cache and engine per-layer metrics from two ``/stats`` snapshots."""
    req_b, req_a = before["caches"]["request"], after["caches"]["request"]
    pred_b, pred_a = before["caches"]["prediction"], after["caches"]["prediction"]
    eng_b, eng_a = before["engine"]["stats"], after["engine"]["stats"]
    fb_b = before["engine"].get("fallback", {}).get("served", 0)
    fb_a = after["engine"].get("fallback", {}).get("served", 0)

    def delta(key: str) -> int:
        return eng_a[key] - eng_b[key]

    batches = delta("batches")
    return {
        "cache.payload_hit_ratio": _ratio(req_b, req_a, "payload_hits", "payload_misses"),
        "cache.topology_hit_ratio": _ratio(req_b, req_a, "topology_hits", "topology_misses"),
        "cache.prediction_hit_ratio": _ratio(pred_b, pred_a, "hits", "misses"),
        "engine.batches": float(batches),
        "engine.batch_size_mean": delta("predictions") / batches if batches else 0.0,
        "engine.retries": float(delta("failed_requests") + delta("crashed_requests")),
        "engine.degraded": float(fb_a - fb_b),
        "engine.shed": float(delta("shed_overload") + delta("shed_deadline")),
    }


def run_serving(name: str, st, seed: int, seconds: float, trace: bool, workdir) -> dict:
    import layers
    import workloads as wl
    from client import CONNECTIONS, Phase, ServerProcess, closed_loop, get_json
    from repro.serve import ModelRegistry
    from spans import Span

    pool = st.load_pool()
    model, _ = ModelRegistry(st.registry).load_serving(bench_state.MODEL_NAME)
    if name == "advise":
        load = wl.AdviseRun(pool, seed)
        warmup_requests = load.warmup_requests
    else:
        load = wl.PredictRun(wl.PredictInputs(pool, seed, name == "predict_repeat"), model)
        warmup_requests = load.inputs.warmup_requests

    def warm() -> tuple[float, bool, str]:
        """One request to a fresh server: ``(answer arrival time, ok, error)``."""
        if name == "advise":
            _, ok, error, arrived = load.decide(load.order[-1])
        else:
            _, ok, error, arrived = load.send(wl.SETUP_BODY_ID)
        return arrived, ok, error

    setups: list[float] = []
    failures: list[str] = []
    server = None
    try:
        for launch in range(SETUP_LAUNCHES):
            if server is not None:
                server.stop()
            last = launch == SETUP_LAUNCHES - 1
            server = ServerProcess(
                st.root, workdir / f"feedback-{launch}", trace=trace and last
            )
            load.port = server.port
            arrived, ok, error = warm()
            setups.append(arrived - server.started)
            if not ok:
                failures.append(f"set-up request: {error}")
        if name != "advise":
            # every launch answered the same body; the first answer is
            # kept and later ones had to equal it (load.send checks)
            reference = load.reference([wl.SETUP_BODY_ID])
            if not load.check(wl.SETUP_BODY_ID, reference):
                failures.append("predict: set-up answer differs from the offline model")
        if trace:
            server.command("trace off")
        # untimed warm-up of fixed work (the quality pass, which also
        # caches predict_repeat's template bodies); peak RSS is read after
        # it, so a faster server, whose caches fill sooner, does not read
        # bigger
        warmup, next_index = closed_loop(load.call, 0, count=warmup_requests)
        failures.extend(warmup.errors)
        rss_kb = server.status()["VmHWM"]
        before = get_json(server.port, "/stats")
        phase = Phase()
        traced: list[Phase] = []
        untraced: list[Phase] = []
        windows: list[tuple[float, float]] = []
        if not trace:
            phase, next_index = closed_loop(load.call, next_index, seconds)
        else:
            for k in range(TRACE_SLICES):
                on = k % 2 == 1
                server.command("trace on" if on else "trace off")
                started = time.perf_counter()
                piece, next_index = closed_loop(load.call, next_index, seconds / TRACE_SLICES)
                (traced if on else untraced).append(piece)
                if on:
                    windows.append((started, time.perf_counter()))
                phase.results.extend(piece.results)
                phase.errors.extend(piece.errors)
                phase.seconds += piece.seconds
            server.command("trace off")
        after = get_json(server.port, "/stats")
        status = server.status()
        spans: list = []
        if trace:
            path = workdir / "spans.json"
            server.command(f"dump {path}")
            spans = [Span.from_dict(d) for d in json.loads(path.read_text())]
    finally:
        if server is not None:
            server.stop()

    # -- correctness: every answer against the offline reference -------
    attempted = phase.attempted
    correct = phase.succeeded
    failures.extend(phase.errors)
    if name != "advise":
        # warm-up answers are checked too; only the timed ones count in
        # success_fraction
        answered = {i for i, _, ok in warmup.results + phase.results if ok}
        reference = load.reference(load.inputs.body_id(i) for i in answered)
        wrong = {i for i in answered if not load.check(load.inputs.body_id(i), reference)}
        if wrong:
            failures.append(f"predict: {len(wrong)} answers differ from the offline model")
        correct -= sum(1 for i, _, ok in phase.results if ok and i in wrong)
    latencies = phase.latencies()
    metrics = {
        "setup_s": min(setups),
        "throughput_per_s": phase.succeeded / phase.seconds if phase.seconds else 0.0,
        "latency_p50_ms": wl.percentile_ms(latencies, 50),
        "latency_p90_ms": wl.percentile_ms(latencies, 90),
        "success_fraction": correct / attempted if attempted else 0.0,
        "rss_peak_mb": rss_kb / 1024.0,
        **load.quality(),
    }
    layer_metrics = stats_layers(before, after)
    report = {
        "workload": name,
        "samples": len(latencies),
        "setup_samples_s": setups,
        "processes": [
            {"role": "benchmark client", "threads": 1 + CONNECTIONS, "connections": CONNECTIONS},
            {"role": "server", "threads": status["Threads"]},
        ],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        **load.shares(phase),
        **{k: v for k, v in layer_metrics.items() if k.endswith("_hit_ratio")},
    }
    if trace:
        in_window = [
            s for s in spans if any(lo <= s.start and s.end <= hi + 1.0 for lo, hi in windows)
        ]
        traced_latencies = [lat for p in traced for lat in p.latencies()]
        decisions = sum(p.succeeded for p in traced) if name == "advise" else 0
        layer_metrics.update(layers.serving_layer_metrics(in_window, traced_latencies, decisions))
        layer_metrics["registry.load_ms"] = 1e3 * sum(
            s.duration for s in spans if s.name == "registry.load"
        )
        rate_on = sum(p.succeeded for p in traced) / sum(p.seconds for p in traced)
        rate_off = sum(p.succeeded for p in untraced) / sum(p.seconds for p in untraced)
        layer_metrics["trace.overhead"] = 1.0 - rate_on / rate_off if rate_off else 0.0
        report["spans"] = len(in_window)
    return {
        "attempted": attempted,
        "failed": attempted - correct,
        "failures": failures,
        "metrics": metrics,
        "layers": layer_metrics,
        "report": report,
    }


def run_train(st, seed: int, seconds: float, trace: bool) -> dict:
    """Fine-tune on the corpus, then predict the held-out pool.

    The quality metrics come from ``TRAIN_FITS`` fixed fits. The timed
    phase then runs rounds of short units for ``seconds`` (at least two
    rounds); each unit reports its fastest time over the rounds, so a
    speed swing of the VM that spans some rounds does not move it.
    """
    import resource

    import numpy as np

    import layers
    import workloads as wl
    import repro.eval
    from repro.model import GracefulModel, TrainConfig
    from repro.model.training import predict_runtimes
    from repro.serve import ModelRegistry
    from spans import Tracer

    corpus = st.load_train_corpus()
    pool = st.load_pool()
    served, _ = ModelRegistry(st.registry).load_serving(bench_state.MODEL_NAME)
    held_out = [q["joint_graph"][p] for q in pool for p in wl.PLACEMENTS]
    runtimes = np.asarray([q["runtime"][p] for q in pool for p in wl.PLACEMENTS])
    timed = np.random.default_rng([seed, 17]).permutation(len(pool))[:LATENCY_QUERIES]
    tracer = Tracer()
    targets = layers.training_targets()

    def prepare() -> tuple[list, float]:
        if trace:
            tracer.install(targets)
        started = time.perf_counter()
        # looked up on the package at call time, so the traced run's
        # wrapper (installed on repro.eval) sees the call
        samples = repro.eval.prepare_dataset_samples(
            corpus, estimator_name="actual", placements=repro.eval.training_placements()
        )
        elapsed = time.perf_counter() - started
        tracer.uninstall()
        return samples, elapsed

    def fitted(epochs: int, shuffle_seed: int, traced: bool = False):
        graceful = GracefulModel(
            served.config, TrainConfig(epochs=epochs, lr=TRAIN_LR, seed=shuffle_seed)
        )
        graceful.model.load_state_dict(served.state_dict())
        if traced:
            tracer.install(targets)
            with tracer.span("train.fit"):
                started = time.perf_counter()
                graceful.fit(samples)
                elapsed = time.perf_counter() - started
            tracer.uninstall()
        else:
            started = time.perf_counter()
            graceful.fit(samples)
            elapsed = time.perf_counter() - started
        return graceful.model, elapsed

    calibrations: list[float] = []

    def calibrate() -> None:
        calibrations.append(calibration_s())

    calibrate()
    samples, first_setup = prepare()
    setups = [first_setup]

    # -- quality: fixed fits, every held-out query -------------------
    errors: list[np.ndarray] = []
    pushdown = chosen = 0.0
    attempted = failed = 0
    model = served
    for fit in range(TRAIN_FITS):
        model, _ = fitted(TRAIN_EPOCHS, fit)
        predicted = predict_runtimes(model, held_out)
        attempted += len(pool)
        bad = ~(np.isfinite(predicted) & (predicted > 0)).reshape(-1, 2).all(axis=1)
        failed += int(bad.sum())
        errors.append(wl.q_errors(predicted, runtimes))
        down, up = predicted[0::2], predicted[1::2]
        pushdown += runtimes[0::2].sum()
        chosen += np.where(up < down, runtimes[1::2], runtimes[0::2]).sum()
    # a fixed amount of work, like the serving warm-up
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # -- timed rounds: each unit's fastest time ---------------------
    fits: list[tuple[float, bool]] = []  # (seconds, traced)
    latency = np.full(len(timed), np.inf)
    rounds = 0
    clock_started = time.perf_counter()
    while rounds < 2 or time.perf_counter() - clock_started < seconds:
        calibrate()
        setups.append(prepare()[1])
        for j in range(TIMING_FITS):
            # traced runs trace every other fit, for the overhead ratio
            traced = trace and (rounds * TIMING_FITS + j) % 2 == 1
            calibrate()
            fits.append((fitted(TIMING_EPOCHS, TRAIN_FITS, traced)[1], traced))
        calibrate()
        for k, i in enumerate(timed):
            started = time.perf_counter()
            predicted = predict_runtimes(model, held_out[2 * i : 2 * i + 2])
            latency[k] = min(latency[k], time.perf_counter() - started)
            attempted += 1
            failed += int(not (np.isfinite(predicted) & (predicted > 0)).all())
        rounds += 1

    untraced_s = [s for s, t in fits if not t]
    all_errors = np.concatenate(errors)
    scale = CALIBRATION_REF_S / min(calibrations)
    metrics = {
        "setup_s": min(setups) * scale,
        "throughput_per_s": len(samples) * TIMING_EPOCHS / (min(untraced_s) * scale),
        "latency_p50_ms": wl.percentile_ms(list(latency), 50) * scale,
        "latency_p90_ms": wl.percentile_ms(list(latency), 90) * scale,
        "success_fraction": (attempted - failed) / attempted,
        "rss_peak_mb": rss_kb / 1024.0,
        "advisor_speedup": pushdown / chosen,
        "qerror_p50": float(np.percentile(all_errors, 50)),
        "qerror_p90": float(np.percentile(all_errors, 90)),
    }
    layer_metrics: dict[str, float] = {}
    if trace:
        traced_s = [s for s, t in fits if t]
        layer_metrics = layers.training_layer_metrics(tracer.spans, TIMING_EPOCHS)
        layer_metrics["trace.overhead"] = 1.0 - min(untraced_s) / min(traced_s)
    report = {
        "workload": "train",
        "samples": len(latency),
        "rounds": rounds,
        "setup_samples_s": setups,
        "fit_seconds": [s for s, _ in fits],
        "calibration_s": calibrations,
        "speed_scale": scale,
        "unscaled": {
            "setup_s": min(setups),
            "throughput_per_s": len(samples) * TIMING_EPOCHS / min(untraced_s),
            "latency_p50_ms": wl.percentile_ms(list(latency), 50),
            "latency_p90_ms": wl.percentile_ms(list(latency), 90),
        },
        "corpus_graphs": len(samples),
        "epochs_per_quality_fit": TRAIN_EPOCHS,
        "epochs_per_timed_fit": TIMING_EPOCHS,
        "held_out_queries": len(pool),
        "processes": [
            {"role": "benchmark (trains in-process)", "threads": threading.active_count()}
        ],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": [f"train: {failed} held-out queries got no finite prediction"]
        if failed
        else [],
        "metrics": metrics,
        "layers": layer_metrics,
        "report": report,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not bench_state.have_program():
        log(f"no program to measure: {bench_state.SRC / 'repro'} is missing")
        return 2
    spec = metric_spec()
    bench_state.use_program()
    st = bench_state.ensure_state()
    workdir = bench_state.STATE_ROOT / "runs" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "train":
            result = run_train(st, args.seed, args.seconds, bool(args.trace))
        else:
            result = run_serving(
                args.workload, st, args.seed, args.seconds, bool(args.trace), workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in result["failures"]:
        log(f"check failed: {failure}")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["layers"] if args.trace else result["metrics"]
    correct = result["failed"] == 0 and not result["failures"]
    print(json.dumps(result["report"]))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
