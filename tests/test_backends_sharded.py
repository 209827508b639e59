"""Differential tests: the sharded backend against the interpreter.

Hash-partitioning the root auxiliary by the view's group key splits
every propagate join into disjoint per-shard joins, so the merged
result must be row-multiset-identical to the single-shard interpreter
— for any shard count, and including after rollbacks, where every
shard's undo scope must rewind in lockstep (all-or-nothing even when
only one shard saw the failing row).
"""

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro.backends.base import BackendError, make_backend, resolve_backend_name
from repro.backends.sharded import (
    SHARD_COUNT_GAUGE,
    SHARD_ROUTED_ROWS,
    ShardedBackend,
)
from repro.core.maintenance import SelfMaintainer, SelfMaintenanceError
from repro.engine.deltas import Delta, Transaction
from repro.testing.faults import (
    FaultInjector,
    InjectedFault,
    state_fingerprint,
    verify_index_consistency,
)
from repro.workloads.random_gen import random_scenario
from repro.workloads.retail import (
    RetailConfig,
    build_retail_database,
    product_sales_view,
)
from repro.workloads.streams import TransactionGenerator

from tests.helpers import assert_same_bag

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FAULT_PHASES = ["local-reduce", "join-reduce", "aggregate-fold", "aux-apply"]


def _assert_maintainers_match(sharded_m, memory_m, context=""):
    assert_same_bag(
        sharded_m.current_view(), memory_m.current_view(), context
    )
    for table in memory_m.aux_relations():
        assert_same_bag(
            sharded_m.aux_relation(table),
            memory_m.aux_relation(table),
            f"{context} aux={table}",
        )


def _retail_pair(backend, seed=13):
    """Identical retail warehouses, one per backend, with twin
    transaction generators."""
    def build():
        return build_retail_database(
            RetailConfig(
                days=6,
                stores=2,
                products=8,
                products_sold_per_day=4,
                transactions_per_product=2,
                start_year=1997,
            )
        )

    db_shard, db_mem = build(), build()
    view = product_sales_view(1997)
    sharded_m = SelfMaintainer(view, db_shard, backend=backend)
    memory_m = SelfMaintainer(view, db_mem, backend="memory")
    return (
        sharded_m,
        memory_m,
        TransactionGenerator(db_shard, seed=seed),
        TransactionGenerator(db_mem, seed=seed),
    )


# ----------------------------------------------------------------------
# Exact shard-merge over random views and streams.
# ----------------------------------------------------------------------


@given(
    seed=st.integers(0, 10_000),
    steps=st.integers(1, 4),
    n_shards=st.sampled_from([1, 2, 3, 8]),
)
@settings(**SETTINGS)
def test_serial_sharded_tracks_memory_and_recomputation(seed, steps, n_shards):
    scenario = random_scenario(seed)
    memory_m = SelfMaintainer(scenario.view, scenario.database,
                              backend="memory")
    sharded_m = SelfMaintainer(
        scenario.view,
        scenario.database,
        backend=ShardedBackend(n_shards=n_shards),
    )
    for step in range(steps):
        transaction = scenario.generator.step()
        memory_m.apply(transaction)
        sharded_m.apply(transaction)
        context = f"seed={seed} step={step} shards={n_shards}"
        _assert_maintainers_match(sharded_m, memory_m, context)
        assert_same_bag(
            sharded_m.current_view(),
            scenario.view.evaluate_eager(scenario.database),
            context,
        )


# ----------------------------------------------------------------------
# All-or-nothing: faults and single-shard failures roll every shard back.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("phase", FAULT_PHASES)
# One execution mode; the "serial" id keeps these cases' names stable for
# tooling that tracks tests by id.
@pytest.mark.parametrize("mode", ["serial"])
def test_fault_rolls_back_every_shard(phase, mode):
    sharded_m, __, generator, __ = _retail_pair(ShardedBackend(3), seed=41)
    sharded_m.apply(generator.step())
    fingerprint = state_fingerprint(sharded_m)
    injector = FaultInjector(sharded_m)
    injector.arm(phase)
    tx = generator.next_transaction()
    with pytest.raises(InjectedFault):
        sharded_m.apply(tx)
    injector.uninstall()
    assert state_fingerprint(sharded_m) == fingerprint, (
        f"not rolled back after fault in {phase}"
    )
    verify_index_consistency(sharded_m)
    # the disarmed transaction then applies cleanly
    generator.database.apply(tx)
    sharded_m.apply(tx)


@pytest.mark.parametrize("mode", ["serial"])  # see above
def test_one_shard_failure_rolls_back_all(mode):
    """A schema-valid deletion of an absent row passes upfront
    validation and fails inside exactly one shard's apply — after the
    summary groups have already been mutated.  Every shard (and the
    summary) must rewind."""
    sharded_m, __, generator, __ = _retail_pair(ShardedBackend(3), seed=7)
    sharded_m.apply(generator.step())
    fingerprint = state_fingerprint(sharded_m)
    # A (day, product) pair both dimensions know but no sale ever
    # hit: the deletion reduces cleanly, then fails inside the one
    # shard that owns the (empty) group.
    live = {(row[0], row[1]) for row in sharded_m.aux_relation("sale")}
    day, product = next(
        (d, p)
        for d in range(1, 7)
        for p in range(1, 9)
        if (d, p) not in live
    )
    absent = (999_999, day, product, 1, 123)
    with pytest.raises((SelfMaintenanceError, BackendError)):
        sharded_m.apply(
            Transaction.of(Delta("sale", [], [absent]))
        )
    assert state_fingerprint(sharded_m) == fingerprint
    verify_index_consistency(sharded_m)


# ----------------------------------------------------------------------
# Skew: a hot key concentrates routing on one shard, results stay exact.
# ----------------------------------------------------------------------


def test_skewed_keys_route_to_one_shard_exactly():
    backend = ShardedBackend(n_shards=4)
    sharded_m, memory_m, __, __ = _retail_pair(backend)
    # Every row carries the same (day, product) — one group of the
    # view, hence one hash bucket.
    hot = [(100_000 + i, 1, 1, 1, 100 + i) for i in range(40)]
    tx = Transaction.of(Delta("sale", hot, []))
    sharded_m.apply(tx)
    memory_m.apply(tx)
    _assert_maintainers_match(sharded_m, memory_m, "skewed")
    routed = backend.metrics_registry().counter_group(
        SHARD_ROUTED_ROWS, "shard"
    )
    assert sum(routed.values()) == len(hot)
    assert max(routed.values()) == len(hot), (
        f"one key spread across shards: {dict(routed)}"
    )


# ----------------------------------------------------------------------
# Spec parsing, env selection, describe, metrics.
# ----------------------------------------------------------------------


def test_backend_spec_parsing():
    backend = make_backend("sharded")
    assert isinstance(backend, ShardedBackend)
    assert backend.n_shards == 2
    assert make_backend("sharded:4").n_shards == 4
    assert make_backend("sharded:1").n_shards == 1
    assert resolve_backend_name("sharded:8") == "sharded"
    for bad in (
        "sharded:0",
        "sharded:-1",
        "sharded:two",
        "sharded:",
        "sharded:3:serial",
        "sharded:2:parallel",
        "sharded:2:bogus",
        "memory:oops",
        "memory:",
        "columnar:7",
        "Sharded",
        "",
    ):
        with pytest.raises(BackendError, match="sharded:<N>"):
            make_backend(bad)
        with pytest.raises(BackendError, match="sharded:<N>"):
            resolve_backend_name(bad)


def test_malformed_env_spec_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "memory:oops")
    with pytest.raises(BackendError):
        make_backend(None)
    with pytest.raises(BackendError):
        resolve_backend_name()


def test_env_variable_selects_sharded_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "sharded:3")
    backend = make_backend(None)
    assert isinstance(backend, ShardedBackend)
    assert backend.n_shards == 3


def test_describe_and_metrics():
    backend = ShardedBackend(n_shards=3)
    sharded_m, __, generator, __ = _retail_pair(backend)
    description = backend.describe(sharded_m.view.name)
    assert "3 shards" in description
    assert "partitioned by" in description
    registry = backend.metrics_registry()
    assert registry.gauge(SHARD_COUNT_GAUGE).value == 3
    sharded_m.apply(generator.step())
    registry = backend.metrics_registry()
    routed = registry.counter_group(SHARD_ROUTED_ROWS, "shard")
    assert sum(routed.values()) > 0
    assert set(routed) <= {"0", "1", "2"}
