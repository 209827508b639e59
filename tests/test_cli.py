"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

SCHEMA_SQL = """
CREATE TABLE time (id INT PRIMARY KEY, day INT, month INT, year INT)
CREATE TABLE product (id INT PRIMARY KEY, brand STRING, category STRING)
CREATE TABLE sale (
  id INT PRIMARY KEY,
  timeid INT REFERENCES time,
  productid INT REFERENCES product,
  price INT
)
"""

VIEW_SQL = """
CREATE VIEW product_sales AS
SELECT time.month, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount,
       COUNT(DISTINCT brand) AS DifferentBrands
FROM sale, time, product
WHERE time.year = 1997 AND sale.timeid = time.id
  AND sale.productid = product.id
GROUP BY time.month
"""


@pytest.fixture
def files(tmp_path):
    schema = tmp_path / "schema.sql"
    schema.write_text(SCHEMA_SQL)
    view = tmp_path / "view.sql"
    view.write_text(VIEW_SQL)
    return str(schema), str(view)


class TestClassify:
    def test_prints_tables_1_and_2(self, capsys):
        assert main(["classify"]) == 0
        out = capsys.readouterr().out
        assert "COUNT(*)" in out
        assert "non-CSMAS" in out
        assert "MIN" in out

    def test_append_only_mode(self, capsys):
        assert main(["classify", "--append-only"]) == 0
        out = capsys.readouterr().out
        # MIN/MAX become CSMAS under the relaxation.
        assert out.count("non-CSMAS") == 0


class TestGraph:
    def test_prints_figure_2(self, files, capsys):
        schema, view = files
        assert main(["graph", "--schema", schema, "--view", view]) == 0
        out = capsys.readouterr().out
        assert "time [g]" in out
        assert "root table: sale" in out
        assert "Need(sale)" in out
        assert "sale depends on" in out


class TestDerive:
    def test_prints_auxiliary_views(self, files, capsys):
        schema, view = files
        assert main(["derive", "--schema", schema, "--view", view]) == 0
        out = capsys.readouterr().out
        assert "CREATE VIEW saledtl AS" in out
        assert "SUM(sale.price) AS sum_price" in out
        assert "SUM(saledtl.cnt) AS TotalCount" in out

    def test_elimination_reported(self, tmp_path, capsys):
        schema = tmp_path / "schema.sql"
        schema.write_text(SCHEMA_SQL)
        view = tmp_path / "view.sql"
        view.write_text(
            "CREATE VIEW by_product AS "
            "SELECT product.id, SUM(price) AS total, COUNT(*) AS n "
            "FROM sale, product WHERE sale.productid = product.id "
            "GROUP BY product.id"
        )
        assert main(["derive", "--schema", str(schema), "--view", str(view)]) == 0
        out = capsys.readouterr().out
        assert "X_sale omitted" in out
        assert "not reconstructable" in out

    def test_append_only_derivation(self, tmp_path, capsys):
        schema = tmp_path / "schema.sql"
        schema.write_text(SCHEMA_SQL)
        view = tmp_path / "view.sql"
        view.write_text(
            "CREATE VIEW price_range AS "
            "SELECT time.month, MIN(price) AS lo, MAX(price) AS hi "
            "FROM sale, time WHERE sale.timeid = time.id GROUP BY time.month"
        )
        assert main(
            ["derive", "--schema", str(schema), "--view", str(view), "--append-only"]
        ) == 0
        out = capsys.readouterr().out
        assert "MIN(sale.price) AS min_price" in out


class TestStorage:
    def test_paper_defaults(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "13,140,000,000" in out
        assert "244.8 GB" in out
        assert "167.1 MB" in out

    def test_custom_cardinalities(self, capsys):
        assert main(
            ["storage", "--days", "10", "--stores", "1", "--products", "5",
             "--sold-per-day", "5", "--transactions", "2", "--selected-days", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "100 tuples" in out  # 10*1*5*2


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code = main(["derive", "--schema", "/nonexistent", "--view", "/nope"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_sql(self, tmp_path, capsys):
        schema = tmp_path / "schema.sql"
        schema.write_text("CREATE TABLE t (a INT)")  # no primary key
        view = tmp_path / "view.sql"
        view.write_text("SELECT COUNT(*) AS c FROM t")
        assert main(["derive", "--schema", str(schema), "--view", str(view)]) == 1
        assert "PRIMARY KEY" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


class TestExplain:
    def test_narrates_derivation(self, files, capsys):
        schema, view = files
        assert main(["explain", "--schema", schema, "--view", view]) == 0
        out = capsys.readouterr().out
        assert "Derivation report" in out
        assert "smart duplicate compression" in out
        assert "Need(sale)" in out


class TestExplainAnalyze:
    def test_annotates_plans_with_observed_stats(self, files, capsys):
        schema, view = files
        assert main(
            ["explain", "--schema", schema, "--view", view,
             "--analyze", "--transactions", "15"]
        ) == 0
        out = capsys.readouterr().out
        assert "maintenance plans" in out
        assert "actual: execs=" in out
        assert "observed over 15 synthetic transactions" in out


class TestPerfCommand:
    def test_retail_stream_prints_report_and_histograms(self, capsys):
        assert main(["perf", "--retail", "--transactions", "12"]) == 0
        out = capsys.readouterr().out
        assert "transactions applied" in out
        assert "phase timings (ms):" in out
        assert "per-transaction distributions:" in out
        assert "repro_txn_latency_ms" in out

    def test_bare_ddl_schema_is_seeded(self, files, capsys):
        schema, view = files
        assert main(
            ["perf", "--schema", schema, "--view", view,
             "--transactions", "8", "--rows-per-table", "12"]
        ) == 0
        out = capsys.readouterr().out
        assert "phase timings (ms):" in out

    def test_requires_schema_or_retail(self, capsys):
        assert main(["perf"]) == 1
        assert "--retail" in capsys.readouterr().err


class TestTraceCommand:
    def test_prints_flame_tree_and_exports_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "traces.jsonl"
        assert main(
            ["trace", "--retail", "--transactions", "10",
             "--jsonl", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "slowest traced transaction:" in out
        assert "txn:product_sales" in out
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
            if line
        ]
        assert records
        assert {"trace", "span", "parent", "phase"} <= records[0].keys()

    def test_sample_every_reduces_traces(self, capsys):
        assert main(
            ["trace", "--retail", "--transactions", "10",
             "--sample-every", "5"]
        ) == 0
        assert "traced (sample_every=5)" in capsys.readouterr().out


class TestMetricsCommand:
    def test_prometheus_output_and_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.jsonl"
        assert main(
            ["metrics", "--retail", "--transactions", "10",
             "--jsonl", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_maintenance_events_total counter" in out
        assert "# TYPE repro_txn_latency_ms histogram" in out
        assert "repro_txn_latency_ms_bucket{le=" in out
        assert "repro_compile_cache_" in out
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
            if line
        ]
        assert any(record["type"] == "histogram" for record in records)


class TestShare:
    def test_merges_view_class(self, tmp_path, capsys):
        schema = tmp_path / "schema.sql"
        schema.write_text(SCHEMA_SQL)
        view_a = tmp_path / "a.sql"
        view_a.write_text(
            "SELECT month, SUM(price) AS rev FROM sale, time "
            "WHERE sale.timeid = time.id GROUP BY month"
        )
        view_b = tmp_path / "b.sql"
        view_b.write_text(
            "SELECT month, COUNT(*) AS n FROM sale, time "
            "WHERE time.year = 1997 AND sale.timeid = time.id GROUP BY month"
        )
        code = main(
            ["share", "--schema", str(schema), "--views", str(view_a), str(view_b)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saleshared" in out
        assert "serves: view_0, view_1" in out


class TestEventsCommand:
    def test_prints_and_exports_the_event_log(self, tmp_path, capsys):
        out_path = tmp_path / "events.jsonl"
        assert main(
            ["events", "--retail", "--transactions", "8",
             "--jsonl", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "events in the ring" in out
        assert "txn.commit" in out
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
            if line
        ]
        assert records and all("schema" in r for r in records)

    def test_level_filter(self, capsys):
        assert main(
            ["events", "--retail", "--transactions", "8",
             "--level", "error"]
        ) == 0
        out = capsys.readouterr().out
        assert "txn.commit" not in out


class TestDoctorCommand:
    def test_healthy_exits_zero(self, capsys):
        assert main(["doctor", "--retail", "--transactions", "6"]) == 0
        out = capsys.readouterr().out
        assert "index-consistency:product_sales" in out
        assert "doctor: healthy (exit 0)" in out

    def test_planted_corruption_exits_two(self, capsys):
        # Pin the memory backend: only in-process RowIndexes can be
        # corrupted (the flag is a no-op error on backends without
        # them, such as columnar).
        code = main(
            ["doctor", "--retail", "--transactions", "6",
             "--backend", "memory",
             "--plant-index-corruption", "--json"]
        )
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "unhealthy"
        assert any(
            check["status"] == "fail"
            and check["name"].startswith("index-consistency")
            for check in report["checks"]
        )

    def test_malformed_checkpoint_exits_two(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text("[1]")
        code = main(
            ["doctor", "--retail", "--transactions", "6",
             "--checkpoint", str(path), "--json"]
        )
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "unhealthy"
        by_name = {check["name"]: check for check in report["checks"]}
        assert by_name["checkpoint-staleness"]["status"] == "fail"


class TestTopCommand:
    def test_once_renders_a_live_server(self, capsys):
        from repro.serving.server import WarehouseServer
        from repro.warehouse.warehouse import Warehouse
        from repro.workloads.retail import product_sales_view

        from tests.helpers import paper_database

        warehouse = Warehouse(paper_database(), [product_sales_view(1997)])
        with WarehouseServer(warehouse) as server:
            assert main(["top", "--once", "--url", server.url]) == 0
        warehouse.close()
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "health   status=ok" in out
        assert "queue    depth=" in out

    def test_unreachable_endpoint_exits_one(self, capsys):
        assert main(
            ["top", "--once", "--url", "http://127.0.0.1:1"]
        ) == 1
        assert "cannot reach" in capsys.readouterr().err
