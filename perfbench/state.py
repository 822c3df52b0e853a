"""Untimed preparation shared by every run in one checkout.

Everything here is independent of the run's ``--seed`` and is built once
per version of the code, then reused from ``.bench_build/perfbench/``:

* the movielens database the server plans and estimates against;
* the training corpus (a fixed benchmark of executed queries);
* the served model, published to the benchmark's own model registry;
* a pool of held-out UDF-filter queries with both placements executed on
  the simulator: each carries the query, both placement plans' joint
  graphs (wire form and objects), both simulated runtimes, the true UDF
  selectivity and the offline advisor's decision
  (``PullUpAdvisor.decide``) with the published model.

The served model's weights are ``served_model.npz`` in this directory,
trained once by :func:`train_served_model` (``python3 perfbench/state.py
train-served-model`` rewrites them). Training from scratch is chaotic
here: with only the BLAS thread count changed, two 120-epoch fits of the
same seed ended with held-out p90 q-errors of 2.56 and 3.30. Shipping
the weights keeps the serving workloads' quality metrics a function of
the serving code, not of how a kernel change reorders float sums.

A run draws its inputs from the pool with its seed, so the same seed
gives the same inputs, and the minutes of simulation that build the pool
stay out of every measurement. The state directory is keyed by a hash of
the program's sources, this file and the shipped weights, so a changed
program never reads a pool or model built by another version.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
STATE_ROOT = ROOT / ".bench_build" / "perfbench"

DATASET = "movielens"
MODEL_NAME = "costgnn-movielens"
SERVED_WEIGHTS = BENCH_DIR / "served_model.npz"
#: the served model: the ``scripts/serve.py`` architecture, trained to
#: convergence on the training corpus
SERVED_HIDDEN_DIM = 24
SERVED_EPOCHS = 120
TRAIN_QUERIES = 120
TRAIN_SEED = 3
#: queries generated for the pool; about 60% are UDF filters over joins
POOL_QUERIES = 900
POOL_SEED = 1009

#: environment every process of the benchmark runs with: one BLAS
#: thread each (a 2-thread OpenBLAS made fit times spread 28% on two
#: cores and changed float summation order between runs)
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def have_program() -> bool:
    """True when the checkout holds the program the benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Pin the thread budget and make ``repro`` importable.

    Must run before numpy is imported: OpenBLAS reads its thread count
    once, at load time.
    """
    os.environ.update(THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def code_fingerprint() -> str:
    """Hash of every source file whose change could change the state."""
    sha = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")) + [Path(__file__).resolve(), SERVED_WEIGHTS]:
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    sha.update(json.dumps(THREAD_ENV, sort_keys=True).encode())
    return sha.hexdigest()[:16]


class State:
    """Paths of one prepared state directory."""

    def __init__(self, root: Path):
        self.root = root
        self.database = root / "database.pkl"
        self.registry = root / "registry"
        self.pool = root / "pool.pkl"
        self.train_corpus = root / "train_corpus.pkl"

    def load_pool(self) -> list[dict]:
        with open(self.pool, "rb") as fh:
            return pickle.load(fh)

    def load_database(self):
        with open(self.database, "rb") as fh:
            return pickle.load(fh)

    def load_train_corpus(self):
        with open(self.train_corpus, "rb") as fh:
            return pickle.load(fh)


def ensure_state() -> State:
    """The prepared state for this code version, built if missing.

    A child process builds it, so no measuring process ever holds the
    build's memory (the train workload reports its own peak RSS).
    """
    final = STATE_ROOT / "state" / code_fingerprint()
    if not (final / "done").is_file():
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "build"],
            check=True,
            stdout=sys.stderr,
            env={**os.environ, **THREAD_ENV},
        )
    return State(final)


def build_state(log=print) -> None:
    """Build this code version's state directory.

    Other versions' directories stay: the state is keyed by code hash,
    so benchmarking two versions alternately in one checkout builds each
    once. A concurrent build of the same version that finished first
    wins; this one's copy is dropped.
    """
    final = STATE_ROOT / "state" / code_fingerprint()
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.parent / f"building-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        _build(State(tmp), log)
        (tmp / "done").write_text("ok\n")
        if not (final / "done").is_file():
            shutil.rmtree(final, ignore_errors=True)
            os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _database():
    from repro.bench.builder import prepare_full_database
    from repro.storage.generator import generate_database

    return prepare_full_database(generate_database(DATASET))


def _train_corpus(database):
    from repro.bench.builder import build_benchmark_for_database

    return build_benchmark_for_database(DATASET, database, TRAIN_QUERIES, seed=TRAIN_SEED)


def train_served_model(log=print) -> None:
    """Train the served model from scratch and write ``served_model.npz``."""
    from repro.eval import prepare_dataset_samples, training_placements
    from repro.model import GNNConfig, GracefulModel, TrainConfig
    from repro.model.persistence import save_model

    samples = prepare_dataset_samples(
        _train_corpus(_database()), estimator_name="actual", placements=training_placements()
    )
    log(f"training the served model on {len(samples)} graphs")
    graceful = GracefulModel(
        GNNConfig(hidden_dim=SERVED_HIDDEN_DIM), TrainConfig(epochs=SERVED_EPOCHS)
    )
    graceful.fit(samples)
    save_model(graceful.model, SERVED_WEIGHTS)


def _build(state: State, log) -> None:
    import numpy as np

    from repro.advisor import PullUpAdvisor
    from repro.bench.builder import build_benchmark_for_database
    from repro.eval import prepare_dataset_samples, training_placements
    from repro.feedback import true_udf_selectivity
    from repro.model.persistence import load_model
    from repro.serve import ModelRegistry, graph_to_json, query_to_json
    from repro.sql.query import UDFPlacement, UDFRole
    from repro.stats import StatisticsCatalog, make_estimator

    database = _database()
    with open(state.database, "wb") as fh:
        pickle.dump(database, fh, protocol=pickle.HIGHEST_PROTOCOL)

    log(f"preparing: training corpus ({TRAIN_QUERIES} queries on the simulator)")
    with open(state.train_corpus, "wb") as fh:
        pickle.dump(_train_corpus(database), fh, protocol=pickle.HIGHEST_PROTOCOL)

    ModelRegistry(state.registry).publish(
        MODEL_NAME,
        load_model(SERVED_WEIGHTS),
        description="served by the perfbench benchmark",
    )
    # the reference decisions use the published artifact, read back the
    # way the server reads it
    served, _ = ModelRegistry(state.registry).load_serving(MODEL_NAME)

    log(f"preparing: query pool ({POOL_QUERIES} queries on the simulator)")
    pool_bench = build_benchmark_for_database(
        DATASET, database, POOL_QUERIES, seed=POOL_SEED
    )
    catalog = StatisticsCatalog(database)
    estimator = make_estimator("actual", database)
    advisor = PullUpAdvisor(served, catalog, estimator)
    pool_samples = prepare_dataset_samples(
        pool_bench,
        estimator_name="actual",
        placements=training_placements(),
        catalog=catalog,
    )
    graphs = {(s.query_id, s.placement): s.joint_graph for s in pool_samples}
    pool: list[dict] = []
    for entry in pool_bench.entries:
        query = entry.query
        if not (query.has_udf and query.udf.role is UDFRole.FILTER):
            continue
        if query.num_joins == 0:
            continue
        decision = advisor.decide(query)
        pool.append(
            {
                "query_id": query.query_id,
                "query": query_to_json(query),
                "runtime": {
                    p.value: float(entry.runs[p].runtime)
                    for p in (UDFPlacement.PUSH_DOWN, UDFPlacement.PULL_UP)
                },
                "graph": {
                    p.value: graph_to_json(graphs[(query.query_id, p)])
                    for p in (UDFPlacement.PUSH_DOWN, UDFPlacement.PULL_UP)
                },
                # the same graphs as objects: the offline reference never
                # goes through the codec it checks
                "joint_graph": {
                    p.value: graphs[(query.query_id, p)]
                    for p in (UDFPlacement.PUSH_DOWN, UDFPlacement.PULL_UP)
                },
                "true_selectivity": true_udf_selectivity(
                    entry.runs[UDFPlacement.PUSH_DOWN]
                ),
                "offline": {
                    "pull_up": bool(decision.pull_up),
                    "pullup_costs": np.asarray(decision.pullup_costs).tolist(),
                    "pushdown_costs": np.asarray(decision.pushdown_costs).tolist(),
                },
            }
        )
    with open(state.pool, "wb") as fh:
        pickle.dump(pool, fh, protocol=pickle.HIGHEST_PROTOCOL)
    log(f"preparing: pool holds {len(pool)} UDF-filter queries")


if __name__ == "__main__":
    commands = {"build": build_state, "train-served-model": train_served_model}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: python3 perfbench/state.py {{{'|'.join(commands)}}}")
    use_program()
    commands[sys.argv[1]]()
