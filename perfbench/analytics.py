"""The ``analytics_compiled`` workload: star-schema reports on one node.

A single :class:`~repro.sql.Database` with a write-ahead log and
``SET compile = true`` holds a ``sales`` fact table of ``N_SALES`` rows
plus the ``items`` and ``stores`` dimensions.  One closed-loop client
runs eight report templates in strict rotation (filtered group-by,
joins with group-by, range sum/count, top-k), dimension lookups, and a
trickle of ingest batches: autocommit multi-row ``INSERT``s and
transactions that insert one store's batch and bump that store's
``ingested`` counter.  Report literals come from small domains, so
texts repeat and the plan and kernel caches hit after warm-up.

Every answer is checked after the timed phase against numpy over the
generated columns, truncated to the rows ingested before the report.
"""

import numpy as np

from repro.sql import Database, ResultSet
from repro.sql.transactions import ConflictError
from repro.governance import GovernanceError
from repro.wal import WriteAheadLog

from perfbench.ops import Op

N_SALES = 100000
N_ITEMS = 1000
N_CATS = 20
N_STORES = 100
N_REGIONS = 8
N_DAYS = 364
LOAD_BATCH = 2000
INGEST_ROWS = 20
WINDOW_STARTS = list(range(0, N_DAYS - 28, 28))
HOT_KEYS = 20          # stores / items a keyed report may name
LOOKUP_KEYS = 100      # stores / items a dimension lookup may name
TOPK = 10

FAILURES = (ConflictError, GovernanceError)

# Report templates: (name, SQL with {a}/{b} window bounds or {v} key).
REPORTS = [
    ("store_sum", "SELECT store, sum(amount) FROM sales WHERE day >= {a} "
                  "AND day < {b} GROUP BY store", 7),
    ("range_sum", "SELECT sum(amount), count(*) FROM sales WHERE "
                  "day >= {a} AND day < {b}", 28),
    ("region_join", "SELECT region, sum(amount) FROM sales JOIN stores ON "
                    "sales.store = stores.id WHERE day >= {a} AND "
                    "day < {b} GROUP BY region", 7),
    ("cat_join", "SELECT cat, sum(qty) FROM sales JOIN items ON "
                 "sales.item = items.id WHERE day >= {a} AND day < {b} "
                 "GROUP BY cat", 7),
    ("topk", "SELECT id, amount FROM sales WHERE day >= {a} AND "
             "day < {b} ORDER BY amount DESC, id LIMIT " + str(TOPK), 2),
    ("item_qty", "SELECT item, sum(qty) FROM sales WHERE day >= {a} AND "
                 "day < {b} AND qty > 5 GROUP BY item", 7),
    ("store_days", "SELECT day, count(*), sum(amount) FROM sales WHERE "
                   "store = {v} GROUP BY day", None),
    ("item_stats", "SELECT max(amount), min(amount), count(*) FROM sales "
                   "WHERE item = {v}", None),
]


class SalesData:
    """Generated columns: the initial fact table, then every ingest
    batch of the operation stream appended in stream order."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.item_cat = rng.integers(0, N_CATS, N_ITEMS)
        self.item_price = rng.integers(100, 5000, N_ITEMS)
        self.store_region = rng.integers(0, N_REGIONS, N_STORES)
        self.cols = {name: [] for name in
                     ("id", "item", "store", "day", "qty", "amount")}
        self.n_rows = 0
        self._append(N_SALES, store=None)

    def _append(self, n, store):
        rng = self.rng
        first = self.n_rows
        self.n_rows += n
        self.cols["id"].append(np.arange(first, first + n))
        self.cols["item"].append(rng.integers(0, N_ITEMS, n))
        self.cols["store"].append(
            rng.integers(0, N_STORES, n) if store is None
            else np.full(n, store))
        self.cols["day"].append(rng.integers(0, N_DAYS, n))
        self.cols["qty"].append(rng.integers(1, 10, n))
        self.cols["amount"].append(rng.integers(1, 1000, n))
        return first

    def arrays(self):
        return {name: np.concatenate(parts)
                for name, parts in self.cols.items()}

    @staticmethod
    def rows_sql(table, columns, lo, hi):
        rows = zip(*(c[lo:hi].tolist() for c in columns))
        return "INSERT INTO {0} VALUES {1}".format(
            table, ", ".join("(" + ", ".join(map(str, r)) + ")"
                             for r in rows))


class AnalyticsCompiled:
    name = "analytics_compiled"
    warmup_ops = None      # set by generate(): one op per read text
    ops_per_s = 200        # timed operations per second of --seconds
    shares = [("report", 0.50), ("point", 0.20), ("write", 0.15),
              ("txn", 0.15)]
    failures = FAILURES

    def __init__(self, seed):
        self.data = SalesData(seed)
        initial = {k: v[0] for k, v in self.data.cols.items()}
        cols = [initial[c] for c in ("id", "item", "store", "day", "qty",
                                     "amount")]
        self.load = [
            "CREATE TABLE items (id INT, cat INT, price INT)",
            "CREATE TABLE stores (id INT, region INT, ingested INT)",
            "CREATE TABLE sales (id INT, item INT, store INT, day INT, "
            "qty INT, amount INT)",
            SalesData.rows_sql("items", [np.arange(N_ITEMS),
                                         self.data.item_cat,
                                         self.data.item_price],
                               0, N_ITEMS),
            SalesData.rows_sql("stores", [np.arange(N_STORES),
                                          self.data.store_region,
                                          np.zeros(N_STORES, int)],
                               0, N_STORES),
        ] + [SalesData.rows_sql("sales", cols, lo, lo + LOAD_BATCH)
             for lo in range(0, N_SALES, LOAD_BATCH)]

    def generate(self, n_timed):
        """A warm-up that sends every distinct read text once (so the
        timed phase runs on warm plan and kernel caches, with every
        SELECT text a repeat), then ``n_timed`` operations drawn with
        the workload's shares: report templates in strict rotation,
        dimension lookups and ingest batches."""
        data, rng = self.data, self.data.rng
        warm = [self._report(name, a, v)
                for name, _, width in REPORTS
                for a in (WINDOW_STARTS if width else [None])
                for v in (range(HOT_KEYS) if not width else [None])]
        warm += [self._lookup(table, v) for table in ("store", "item")
                 for v in range(LOOKUP_KEYS)]
        warm = [warm[i] for i in rng.permutation(len(warm))]
        self.warmup_ops = len(warm)
        kinds = rng.choice(len(self.shares), size=n_timed,
                           p=[share for _, share in self.shares])
        names = [name for name, _ in self.shares]
        windows = rng.integers(0, len(WINDOW_STARTS), n_timed)
        values = rng.integers(0, LOOKUP_KEYS, n_timed)
        ops = warm
        n_reports = 0
        for i in range(n_timed):
            name = names[kinds[i]]
            v = int(values[i])
            if name == "report":
                template = REPORTS[n_reports % len(REPORTS)][0]
                n_reports += 1
                ops.append(self._report(template,
                                        WINDOW_STARTS[int(windows[i])],
                                        v % HOT_KEYS))
            elif name == "point":
                ops.append(self._lookup(("store", "item")[i % 2], v))
            else:
                store = v if name == "txn" else None
                lo = data._append(INGEST_ROWS, store)
                part = [data.cols[c][-1] for c in (
                    "id", "item", "store", "day", "qty", "amount")]
                insert = SalesData.rows_sql("sales", part, 0, INGEST_ROWS)
                if name == "write":
                    ops.append(Op("write", (insert,), 0, ("ingest", lo),
                                  rows_written=INGEST_ROWS))
                else:
                    ops.append(Op("txn", (
                        "BEGIN", insert,
                        "UPDATE stores SET ingested = ingested + {0} "
                        "WHERE id = {1}".format(INGEST_ROWS, store),
                        "COMMIT"), 0, ("ingest_txn", lo, store),
                        rows_written=INGEST_ROWS + 1))
        return ops

    def _report(self, template, a, v):
        """One report over the rows ingested so far."""
        _, sql, width = next(r for r in REPORTS if r[0] == template)
        if width is None:
            a = b = None
        else:
            b = a + width
        return Op("scan", (sql.format(a=a, b=b, v=v),), 0,
                  (template, self.data.n_rows, a, b, v))

    @staticmethod
    def _lookup(table, v):
        if table == "store":
            return Op("point", ("SELECT region, ingested FROM stores WHERE "
                                "id = {0}".format(v),), 0, ("store", v))
        return Op("point", ("SELECT cat, price FROM items WHERE "
                            "id = {0}".format(v),), 0, ("item", v))

    def release(self):
        self.db = None

    def setup(self):
        db = Database(wal=WriteAheadLog())
        db.execute("SET compile = true")
        for sql in self.load:
            db.execute(sql)
        self.db = db
        return self

    def run(self, op):
        if op.kind == "txn":
            txn = self.db.begin()
            out = tuple(txn.execute(sql) for sql in op.sqls[1:-1])
            txn.commit()
            return out
        result = self.db.execute(op.sqls[0])
        return result.rows() if isinstance(result, ResultSet) else result

    def after_failure(self, op):
        pass

    def databases(self):
        return [self.db]

    def wals(self):
        return [self.db.wal]

    def counters(self):
        compiler = self.db.plan_compiler
        return {"kernel_hits": compiler.cache.hits,
                "kernel_misses": compiler.cache.misses,
                "compiled_runs": compiler.stats["compiled_runs"]}

    # -- verification ---------------------------------------------------------

    def verify(self, ops, outputs):
        cols = self.data.arrays()
        ingested = np.zeros(N_STORES, dtype=np.int64)
        failures = []
        for index, (op, out) in enumerate(zip(ops, outputs)):
            kind = op.check[0]
            if kind == "ingest":
                expected = INGEST_ROWS
            elif kind == "ingest_txn":
                ingested[op.check[2]] += INGEST_ROWS
                expected = (INGEST_ROWS, 1)
            else:
                expected = self._expected_rows(cols, ingested, op.check)
                if isinstance(out, list):
                    out = [tuple(r) for r in out]
                    if kind != "topk":
                        out.sort()
            if out != expected:
                failures.append("op {0} {1!r}: expected {2!r}, got "
                                "{3!r}".format(index, op.sqls[-1][:80],
                                               expected, out))
        self.ingested = ingested
        self.sales_rows = N_SALES + INGEST_ROWS * sum(
            op.check[0] in ("ingest", "ingest_txn") for op in ops)
        return failures + self._check_state(self.db, "live")

    def _expected_rows(self, cols, ingested, check):
        """Expected rows of a lookup or report, ordered as the engine's
        sorted (or, for top-k, ordered) output."""
        data = self.data
        if check[0] == "store":
            v = check[1]
            return [(int(data.store_region[v]), int(ingested[v]))]
        if check[0] == "item":
            v = check[1]
            return [(int(data.item_cat[v]), int(data.item_price[v]))]
        template, n, a, b, v = check
        c = {name: col[:n] for name, col in cols.items()}
        if b is not None:
            mask = (c["day"] >= a) & (c["day"] < b)
        if template == "store_sum":
            return _grouped(c["store"][mask], c["amount"][mask])
        if template == "range_sum":
            return [(int(c["amount"][mask].sum()), int(mask.sum()))]
        if template == "region_join":
            regions = data.store_region[c["store"][mask]]
            return _grouped(regions, c["amount"][mask])
        if template == "cat_join":
            cats = data.item_cat[c["item"][mask]]
            return _grouped(cats, c["qty"][mask])
        if template == "topk":
            ids, amounts = c["id"][mask], c["amount"][mask]
            order = np.lexsort((ids, -amounts))[:TOPK]
            return [(int(ids[i]), int(amounts[i])) for i in order]
        if template == "item_qty":
            mask &= c["qty"] > 5
            return _grouped(c["item"][mask], c["qty"][mask])
        if template == "store_days":
            mask = c["store"] == v
            days, amounts = c["day"][mask], c["amount"][mask]
            counts = np.bincount(days, minlength=N_DAYS)
            sums = np.bincount(days, weights=amounts, minlength=N_DAYS)
            return [(d, int(counts[d]), int(sums[d]))
                    for d in np.flatnonzero(counts).tolist()]
        mask = c["item"] == v
        amounts = c["amount"][mask]
        return [(int(amounts.max()), int(amounts.min()), int(mask.sum()))]

    def _check_state(self, db, label):
        """Column totals of ``sales`` against the generated rows through
        the last executed ingest, and the stores' ingest counters."""
        cols = self.data.arrays()
        rows = self.sales_rows
        failures = []
        got = db.execute("SELECT count(*), sum(amount), sum(qty), "
                         "sum(day), sum(item), sum(store), sum(id) "
                         "FROM sales").rows()
        want = [(rows,) + tuple(int(cols[c][:rows].sum()) for c in (
            "amount", "qty", "day", "item", "store", "id"))]
        if got != want:
            failures.append("{0}: sales totals {1} != {2}".format(
                label, got, want))
        stores = sorted(db.execute(
            "SELECT id, region, ingested FROM stores").rows())
        want = [(s, int(self.data.store_region[s]), int(self.ingested[s]))
                for s in range(N_STORES)]
        if stores != want:
            failures.append("{0}: stores differ".format(label))
        return failures

    def recover_once(self):
        fresh = Database(wal=self.db.wal)
        fresh.recover()
        return fresh

    def check_recovered(self, fresh):
        failures = self._check_state(fresh, "recovered")
        for table in ("sales", "items", "stores"):
            query = "SELECT * FROM {0}".format(table)
            if sorted(fresh.execute(query).rows()) != \
                    sorted(self.db.execute(query).rows()):
                failures.append("recovered {0} differs from live".format(
                    table))
        return failures


def _grouped(keys, values):
    counts = np.bincount(keys)
    sums = np.bincount(keys, weights=values)
    return [(k, int(sums[k])) for k in np.flatnonzero(counts).tolist()]

