"""``serve_mixed``: one writer and one reader (= nproc), one persistent
HTTP/1.1 connection each, against a server in its own process."""

from __future__ import annotations

import gc
import http.client
import json
import socket
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import harness

#: Forward transactions of the untimed warm-up mini-round.
WARM_UP_TXNS = 10
READY_TIMEOUT_S = 120


class ServerProcess:
    """``serve_launcher.py`` as a child process, stopped on exit."""

    def __init__(self, workload, seed: int, smoke: bool):
        command = [
            sys.executable, str(harness.BENCH_DIR / "serve_launcher.py"),
            "--workload", workload.name, "--seed", str(seed),
        ]
        if smoke:
            command.append("--smoke")
        self._command = command
        self.ready: dict = {}

    def __enter__(self) -> "ServerProcess":
        self._process = subprocess.Popen(
            self._command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(READY_TIMEOUT_S, self._process.kill)
        watchdog.start()
        try:
            line = self._process.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            self.__exit__(None, None, None)
            raise RuntimeError("server launcher exited before it was ready")
        self.ready = json.loads(line)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._process.stdin.close()
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()

    @property
    def port(self) -> int:
        return self.ready["port"]

    def peak_rss_mb(self) -> float:
        """The server's resident high-water mark (``VmHWM``)."""
        status = Path(f"/proc/{self.ready['pid']}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")


class Client:
    """One keep-alive connection.  ``http.client`` sets ``TCP_NODELAY``
    on connect, so a stall is never the load generator's."""

    def __init__(self, port: int):
        self._connection = http.client.HTTPConnection("127.0.0.1", port)
        self._connection.connect()
        if not self._connection.sock.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY
        ):
            raise RuntimeError("client socket lacks TCP_NODELAY")

    def request(self, method: str, path: str, body: bytes | None = None):
        """``(seconds, status, payload)`` for one round trip, timed from
        the first byte sent to the last byte read."""
        headers = {"Content-Type": "application/json"} if body else {}
        started = perf_counter()
        self._connection.request(method, path, body=body, headers=headers)
        response = self._connection.getresponse()
        payload = response.read()
        return perf_counter() - started, response.status, payload

    def close(self) -> None:
        self._connection.close()


def apply_body(transaction) -> bytes:
    return json.dumps({"deltas": [
        {"table": delta.table, "inserted": delta.inserted,
         "deleted": delta.deleted}
        for delta in transaction
    ]}).encode()


class Reader(threading.Thread):
    """Issues ``GET /query`` back-to-back until stopped, keeping
    ``(start, seconds, status, version)`` per read."""

    def __init__(self, port: int, view: str):
        super().__init__(name="bench-reader", daemon=True)
        self._client = Client(port)
        self._path = f"/query?view={view}"
        self._halt = threading.Event()
        self.reads: list[tuple[float, float, int, int]] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            while not self._halt.is_set():
                started = perf_counter()
                seconds, status, payload = self._client.request("GET", self._path)
                version = json.loads(payload)["version"] if status == 200 else -1
                self.reads.append((started, seconds, status, version))
        except BaseException as error:  # reported by the writer thread
            self.error = error
        finally:
            self._client.close()

    def finish(self) -> None:
        self._halt.set()
        self.join(60)
        if self.is_alive():
            raise RuntimeError("reader thread did not stop")
        if self.error is not None:
            raise self.error


def write_round(client: Client, bodies: list[bytes]):
    """POST every body synchronously; ``(start, end, seconds per
    request, statuses, versions)``."""
    seconds, statuses, versions = [], [], []
    gc.collect()
    started = perf_counter()
    for body in bodies:
        took, status, payload = client.request("POST", "/apply", body)
        seconds.append(took)
        statuses.append(status)
        versions.append(json.loads(payload)["version"] if status == 200 else -1)
    return started, perf_counter(), seconds, statuses, versions


def query_rows(client: Client, view: str) -> list[tuple]:
    __, status, payload = client.request("GET", f"/query?view={view}")
    if status != 200:
        raise RuntimeError(f"/query {view}: status {status}")
    return [tuple(row) for row in json.loads(payload)["rows"]]


def non_decreasing(values) -> bool:
    values = list(values)
    return all(a <= b for a, b in zip(values, values[1:]))


def run(workload, seed: int, rounds: int, smoke: bool) -> dict:
    """The untraced pass of ``serve_mixed``."""
    rows, stream, digest = harness.generate(workload, seed)
    database = harness.load_database(rows)
    views = harness.parse_views(workload.views, database)
    forward, inverse = harness.transactions(stream)
    round_txns = forward + inverse
    bodies = [apply_body(transaction) for transaction in round_txns]
    round_rows = harness.delta_rows(round_txns)
    warm = min(WARM_UP_TXNS, len(forward))
    # The server sets up alone on the host: nothing here runs beside it.
    with ServerProcess(workload, seed, smoke) as server:
        writer = Client(server.port)
        # Untimed warm-up mini-round with the oracle at its midpoint.
        write_round(writer, bodies[:warm])
        shadow = harness.shadow_database(rows, stream[:warm])
        mismatched = harness.oracle_mismatches(
            views, shadow, lambda name: query_rows(writer, name)
        )
        write_round(writer, bodies[len(bodies) - warm:])
        reader = Reader(server.port, workload.read_view)
        reader.start()
        written = [write_round(writer, bodies) for __ in range(rounds)]
        reader.finish()
        # Every round returned the server to the starting state.
        mismatched += harness.oracle_mismatches(
            views, database, lambda name: query_rows(writer, name)
        )
        writer.close()
        peak_rss_mb = server.peak_rss_mb()
        ready = server.ready
    log = harness.RoundLog()
    attempted = failed = 0
    fewest_reads = len(reader.reads)
    for started, ended, seconds, statuses, __ in written:
        reads = [r for r in reader.reads if started <= r[0] < ended]
        fewest_reads = min(fewest_reads, len(reads))
        attempted += len(seconds) + len(reads)
        failed += sum(status != 200 for status in statuses)
        failed += sum(read[2] != 200 for read in reads)
        log.add(
            round_rows, ended - started, seconds, [read[1] for read in reads]
        )
    monotone = non_decreasing(
        version for entry in written for version in entry[4]
    ) and non_decreasing(read[3] for read in reader.reads)
    if mismatched or not monotone:
        failed = attempted
    return {
        "workload_digest": digest,
        "correct": failed == 0,
        "oracle": {"views_differing": mismatched,
                   "versions_monotone": monotone},
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "txns_per_round": len(round_txns),
        "reads_per_round": fewest_reads,
        "metrics": log.metrics(
            ready["setup_samples"], ready["storage"], peak_rss_mb
        ),
        "exact": {"storage": ready["storage"], "round_delta_rows": round_rows},
    }
