#!/usr/bin/env python3
"""The server process of ``serve_mixed``.

Builds the same data as the client from ``--seed``, constructs the
warehouse and its HTTP server cold several times (``setup_s``), starts
the last one (tracing off, default ``max_batch``), prints one JSON
"ready" line, and serves until its standard input closes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import harness  # noqa: E402
from repro.serving import WarehouseServer  # noqa: E402
from repro.warehouse.warehouse import Warehouse  # noqa: E402
from workloads import BY_NAME  # noqa: E402


def discard(server: WarehouseServer) -> None:
    """Release a construction that was only timed: its listening socket
    closes in ``stop``, which needs a started server."""
    server.start()
    server.stop()
    server.service.warehouse.close()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    workload = BY_NAME[args.workload]
    if args.smoke:
        workload = workload.smoke()
    rows, __, ___ = harness.generate(workload, args.seed)
    database = harness.load_database(rows)
    samples, server = harness.cold_setups(
        database, workload.views, harness.SETUP_REPEATS,
        construct=lambda views: WarehouseServer(Warehouse(database, views)),
        dispose=discard,
    )
    warehouse = server.service.warehouse
    views = [warehouse.maintainer(name).view for name in workload.views]
    server.start()
    try:
        print(json.dumps({
            "port": server.port,
            "pid": os.getpid(),
            "setup_samples": samples,
            "storage": harness.storage(warehouse, views, database),
        }), flush=True)
        sys.stdin.read()  # serve until the client closes our stdin
    finally:
        server.stop()
        warehouse.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
