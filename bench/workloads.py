"""The four workloads and how ``--seconds`` sizes them."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from inputs import BaseShape

CSMAS_VIEWS = ("monthly_category_sales", "monthly_city_sales")
RECOMPUTE_VIEWS = ("product_sales", "product_sales_max")

#: The paper's Section 1.1 shape: two years, so the ``year = 1997``
#: selection reduces about half of every fact delta away.
PAPER_SHAPE = BaseShape(days=730, start_year=1996)

#: ``--seconds`` the round counts below were sized for (``run_seconds``
#: in BENCHMARK.json).
NOMINAL_SECONDS = 15


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    views: tuple[str, ...]
    shape: BaseShape
    kind: str          # stream mix, see inputs.make_stream
    batch: int         # rows per transaction (stream parameter)
    txns: int          # forward transactions per round (+ as many inverse)
    read_view: str     # read once after every transaction
    rounds: int        # measured rounds at NOMINAL_SECONDS
    min_rounds: int    # never fewer, whatever --seconds says
    traced_rounds: int = 4  # rounds of the separate, shorter traced pass
    served: bool = False

    def rounds_for(self, seconds: float) -> int:
        """A fixed round count, never a time limit: run length is set by
        the benchmark and is the same on both commits of a comparison."""
        scaled = math.ceil(self.rounds * seconds / NOMINAL_SECONDS)
        return max(self.min_rounds, scaled)

    def smoke(self) -> "Workload":
        """Seconds-fast variant that still walks every code path."""
        shape = BaseShape(
            days=40, start_year=1997, products=120, sold_per_store_day=5
        )
        return replace(
            self, shape=shape, txns=12, rounds=2, min_rounds=2,
            traced_rounds=2,
        )


WORKLOADS = (
    Workload(
        "trickle_csmas",
        "8-row transactions on two self-maintainable views: per-transaction "
        "fixed cost (undo logs, shared cache, plan dispatch, metric and event "
        "emission) dominates; per-row layers do little",
        CSMAS_VIEWS, PAPER_SHAPE, "mixed", batch=8, txns=100,
        read_view=CSMAS_VIEWS[0], rounds=100, min_rounds=8,
    ),
    Workload(
        "bulk_csmas",
        "512-row insert-heavy then delete-heavy transactions on the same "
        "views: per-row cost (coalesce, validate, reduce, fold, aux apply, "
        "undo) dominates; fixed costs are amortised",
        CSMAS_VIEWS, PAPER_SHAPE, "insert_heavy", batch=512, txns=100,
        read_view=CSMAS_VIEWS[0], rounds=20, min_rounds=8,
    ),
    Workload(
        "recompute_churn",
        "COUNT DISTINCT and MAX views: deleting a group's MAX or touching a "
        "DISTINCT group forces recomputation from X (paper 3.2); reads "
        "materialise 500 groups",
        RECOMPUTE_VIEWS,
        BaseShape(days=10, start_year=1997, products=500),
        "mixed", batch=16, txns=100,
        read_view=RECOMPUTE_VIEWS[1], rounds=24, min_rounds=8,
    ),
    Workload(
        "serve_mixed",
        "one writer and one reader over keep-alive HTTP to a server process: "
        "socket, apply queue, maintenance, snapshot publish and read "
        "together, so a write gain bought by blocking readers shows",
        CSMAS_VIEWS, PAPER_SHAPE, "mixed", batch=16, txns=100,
        read_view=CSMAS_VIEWS[0], rounds=6, min_rounds=6, traced_rounds=2,
        served=True,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
