"""The benchmark's own inputs: schema DDL, view SQL, base rows, streams.

Everything the program under test receives is generated here from
``--seed``; nothing is imported from ``benchmarks/`` or
``repro.workloads``.  The shapes follow the paper's Section 1.1 retail
star schema (sale / time / product / store) and the three update mixes
the repo's older scripts used (mixed with churn pairs, insert-heavy,
and -- as the inverse of insert-heavy -- delete-heavy).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

SCHEMA_SQL = """
CREATE TABLE time (id INT PRIMARY KEY, day INT, month INT, year INT)
CREATE TABLE product (id INT PRIMARY KEY, brand STRING, category STRING)
CREATE TABLE store (id INT PRIMARY KEY, street_address STRING, city STRING,
                    country STRING, manager STRING)
CREATE TABLE sale (id INT PRIMARY KEY, timeid INT REFERENCES time,
                   productid INT REFERENCES product,
                   storeid INT REFERENCES store, price INT)
"""

#: A and B are completely self-maintainable (SUM / COUNT only); C (paper
#: Section 1.1, COUNT DISTINCT) and D (paper Section 3.2, MAX) are not.
VIEW_SQL = {
    "monthly_category_sales": """
        CREATE VIEW monthly_category_sales AS
        SELECT time.month, product.category,
               SUM(sale.price) AS TotalPrice, COUNT(*) AS TotalCount
        FROM sale, time, product
        WHERE time.year = 1997 AND sale.timeid = time.id
          AND sale.productid = product.id
        GROUP BY time.month, product.category
    """,
    "monthly_city_sales": """
        CREATE VIEW monthly_city_sales AS
        SELECT time.month, store.city,
               SUM(sale.price) AS TotalPrice, COUNT(*) AS TotalCount
        FROM sale, time, store
        WHERE time.year = 1997 AND sale.timeid = time.id
          AND sale.storeid = store.id
        GROUP BY time.month, store.city
    """,
    "product_sales": """
        CREATE VIEW product_sales AS
        SELECT time.month, SUM(sale.price) AS TotalPrice,
               COUNT(*) AS TotalCount,
               COUNT(DISTINCT product.brand) AS DifferentBrands
        FROM sale, time, product
        WHERE time.year = 1997 AND sale.timeid = time.id
          AND sale.productid = product.id
        GROUP BY time.month
    """,
    "product_sales_max": """
        CREATE VIEW product_sales_max AS
        SELECT sale.productid, MAX(sale.price) AS MaxPrice,
               SUM(sale.price) AS TotalPrice, COUNT(*) AS TotalCount
        FROM sale
        GROUP BY sale.productid
    """,
}

BRANDS = tuple(f"brand_{i:03d}" for i in range(60))
CATEGORIES = ("dairy", "bakery", "produce", "frozen", "beverage", "household")
CITIES = ("Aalborg", "Aarhus", "Odense", "Copenhagen", "Esbjerg")
COUNTRIES = ("Denmark", "Sweden", "Germany")


@dataclass(frozen=True)
class BaseShape:
    """Cardinalities of the generated star schema."""

    days: int
    start_year: int
    stores: int = 4
    products: int = 3000
    sold_per_store_day: int = 25
    sales_per_product: int = 2


def base_rows(shape: BaseShape, seed: int) -> dict[str, list[tuple]]:
    """``{table: rows}`` for the four tables, deterministic in ``seed``."""
    rng = random.Random(seed)
    time_rows = []
    for index in range(shape.days):
        day_of_year = index % 365
        time_rows.append(
            (
                index + 1,
                day_of_year % 30 + 1,
                min(day_of_year // 30 + 1, 12),
                shape.start_year + index // 365,
            )
        )
    product_rows = [
        (i + 1, rng.choice(BRANDS), rng.choice(CATEGORIES))
        for i in range(shape.products)
    ]
    store_rows = [
        (
            i + 1,
            f"{rng.randint(1, 200)} Main Street",
            rng.choice(CITIES),
            rng.choice(COUNTRIES),
            f"manager_{i + 1:03d}",
        )
        for i in range(shape.stores)
    ]
    sale_rows = []
    sale_id = 0
    product_ids = range(1, shape.products + 1)
    for time_id in range(1, shape.days + 1):
        for store_id in range(1, shape.stores + 1):
            for product_id in rng.sample(product_ids, shape.sold_per_store_day):
                for __ in range(shape.sales_per_product):
                    sale_id += 1
                    sale_rows.append(
                        (sale_id, time_id, product_id, store_id,
                         rng.randint(50, 5_000))  # integer cents
                    )
    return {
        "time": time_rows,
        "product": product_rows,
        "store": store_rows,
        "sale": sale_rows,
    }


def make_stream(
    rows: dict[str, list[tuple]],
    kind: str,
    transactions: int,
    batch: int,
    seed: int,
) -> list[tuple[tuple, tuple]]:
    """``[(inserted, deleted), ...]`` changes of ``sale``, integrity-valid
    when applied in order to ``rows``.

    ``mixed``: ``batch/2`` fresh inserts, ``batch/2`` deletes of live
    rows, plus ``batch/2`` churn pairs (a live row deleted and
    re-inserted in the same transaction, which coalescing cancels).
    ``insert_heavy``: ``batch`` fresh inserts and, every fifth
    transaction, ``batch/4`` deletes -- so its inverse is delete-heavy.
    """
    if kind not in ("mixed", "insert_heavy"):
        raise ValueError(f"unknown stream kind {kind!r}")
    rng = random.Random(seed)
    live = list(rows["sale"])
    next_id = live[-1][0] + 1
    days, products, stores = (
        len(rows["time"]), len(rows["product"]), len(rows["store"])
    )

    def fresh(count: int) -> list[tuple]:
        nonlocal next_id
        out = []
        for __ in range(count):
            out.append(
                (next_id, rng.randint(1, days), rng.randint(1, products),
                 rng.randint(1, stores), rng.randint(50, 5_000))
            )
            next_id += 1
        return out

    def take_live(count: int) -> list[tuple]:
        # Swap-remove: O(1) per draw on a 146 000-row list.
        taken = []
        for __ in range(count):
            index = rng.randrange(len(live))
            live[index], live[-1] = live[-1], live[index]
            taken.append(live.pop())
        return taken

    stream = []
    for step in range(transactions):
        if kind == "insert_heavy":
            inserted = fresh(batch)
            deleted = take_live(batch // 4) if step % 5 == 4 else []
        else:
            inserted = fresh(batch // 2)
            deleted = take_live(batch // 2)
            churn = take_live(batch // 2)
            inserted += churn
            deleted += churn
        live.extend(inserted)
        stream.append((tuple(inserted), tuple(deleted)))
    return stream


def workload_digest(rows: dict[str, list[tuple]], stream) -> str:
    """sha256 over the generated base rows and stream: two runs measured
    the same inputs exactly when their digests agree."""
    digest = hashlib.sha256()
    for table in sorted(rows):
        digest.update(table.encode())
        digest.update(repr(rows[table]).encode())
    digest.update(repr(stream).encode())
    return digest.hexdigest()
