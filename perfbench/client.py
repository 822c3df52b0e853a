"""The server process handle and the closed-loop HTTP load.

The load plays the optimizers that consult the cost model: each of
``connections`` client threads sends its next request only after the
previous answer arrived (a closed loop — an optimizer waits for its
estimate before it goes on planning). Requests are numbered; request
``i`` is a pure function of the run's seed and ``i``, built outside the
timed round trip.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import state as bench_state

#: client connections: at most one per core (the server shares the box)
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
START_TIMEOUT_S = 60.0


class ServerProcess:
    """One launched ``server.py``; always stopped by :meth:`stop`."""

    def __init__(self, state_dir: Path, feedback_dir: Path, trace: bool = False):
        env = dict(os.environ)
        env.update(bench_state.THREAD_ENV)
        cmd = [
            sys.executable,
            str(bench_state.BENCH_DIR / "server.py"),
            "--state",
            str(state_dir),
            "--feedback-dir",
            str(feedback_dir),
        ]
        if trace:
            cmd.append("--trace")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(bench_state.ROOT),
        )
        try:
            line = self._readline(START_TIMEOUT_S)
            if not line.startswith("ready "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.stop()
            raise

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError("server process did not answer")
        return self.proc.stdout.readline().strip()

    def command(self, line: str, timeout: float = 60.0) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        answer = self._readline(timeout)
        if answer != "ok":
            raise RuntimeError(f"server answered {answer!r} to {line!r}")

    def status(self) -> dict[str, int]:
        """``VmHWM`` (peak RSS, kB) and ``Threads`` of the live process."""
        out = {}
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key in ("VmHWM", "Threads"):
                    out[key] = int(value.split()[0])
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, ValueError):
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except (BrokenPipeError, ValueError):
                pass


def post(port: int, path: str, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


@dataclass
class Phase:
    """What one closed-loop phase sent and got back."""

    seconds: float = 0.0
    #: (request index, latency seconds, ok) per completed call
    results: list[tuple[int, float, bool]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def succeeded(self) -> int:
        return sum(1 for _, _, ok in self.results if ok)

    def latencies(self) -> list[float]:
        return [lat for _, lat, ok in self.results if ok]


def closed_loop(
    call, first_index: int, seconds: float = float("inf"), count: int | None = None
) -> tuple[Phase, int]:
    """Run ``call(i) -> (latency_s, ok, error)`` in a closed loop.

    Each connection takes the next unused index until ``seconds`` have
    passed or ``count`` requests were taken; returns the phase and the
    next unused index.
    """
    phase = Phase()
    lock = threading.Lock()
    counter = [first_index]
    deadline = time.perf_counter() + seconds
    stop = first_index + count if count is not None else None

    def worker() -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = counter[0]
                if stop is not None and index >= stop:
                    return
                counter[0] += 1
            try:
                latency, ok, error = call(index)
            except Exception as exc:  # a malformed answer is a failure, not the end
                latency, ok, error = 0.0, False, f"request {index}: {exc!r}"
            with lock:
                phase.results.append((index, latency, ok))
                if error and len(phase.errors) < 5:
                    phase.errors.append(error)

    started = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.seconds = time.perf_counter() - started
    return phase, counter[0]
