"""The two account workloads: ``oltp_replicated`` and ``sharded_governed``.

Both run over the same ``acct(k, g, bal)`` table: ``N_KEYS`` rows with
dense keys, ``N_GROUPS`` groups and integer balances, bulk-loaded by
multi-row ``INSERT``.  One closed-loop client drives ``N_SESSIONS``
tenant sessions, sending its next statement only after the previous one
returned.  Point-read and transfer keys are zipf-distributed over a
seeded key permutation, so hot keys repeat (and their SQL texts with
them) while most texts are new.

Every answer is checked after the timed phase by replaying the
generated operations through :class:`AcctModel`, a numpy/dict model of
the table that starts from the generated columns.
"""

import numpy as np

from repro.replication import QuorumTimeout, ReplicationGroup
from repro.sessions import SessionManager
from repro.sharding import ShardedDatabase, ShardUnavailableError
from repro.sql import Database, ResultSet
from repro.sql.transactions import ConflictError
from repro.governance import GovernanceError

from perfbench.ops import Op

N_KEYS = 20000
N_GROUPS = 50
N_SESSIONS = 8
LOAD_BATCH = 1000
ZIPF_S = 0.8
RANGE_WIDTH = 200      # keys per range scan
GROUP_SPAN = 5         # groups per scatter aggregate
TOPK = 5
# A deadline (in simulated ticks) that no statement comes near: the
# governance checkpoints run, but never fire.
DEADLINE_TICKS = 10 ** 9
LEG_TIMEOUT_TICKS = 8

FAILURES = (ConflictError, QuorumTimeout, GovernanceError,
            ShardUnavailableError)

CREATE = "CREATE TABLE acct (k INT, g INT, bal INT)"
CREATE_PARTITIONED = CREATE + " PARTITION BY (k)"
CREATE_VIEW = ("CREATE MATERIALIZED VIEW acct_by_g AS SELECT g, "
               "count(*) AS n, sum(bal) AS total FROM acct GROUP BY g")


class AcctData:
    """The generated initial table plus the samplers for statements."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.g = rng.integers(0, N_GROUPS, N_KEYS)
        self.bal = rng.integers(100, 10000, N_KEYS)
        self.hot = rng.permutation(N_KEYS)      # zipf rank -> key
        weights = 1.0 / np.arange(1, N_KEYS + 1) ** ZIPF_S
        self._cdf = np.cumsum(weights) / weights.sum()

    def load_statements(self):
        out = []
        for start in range(0, N_KEYS, LOAD_BATCH):
            rows = ", ".join(
                "({0}, {1}, {2})".format(k, int(self.g[k]),
                                         int(self.bal[k]))
                for k in range(start, min(start + LOAD_BATCH, N_KEYS)))
            out.append("INSERT INTO acct VALUES " + rows)
        return out

    def zipf_keys(self, n):
        ranks = np.searchsorted(self._cdf, self.rng.random(n))
        return self.hot[np.minimum(ranks, N_KEYS - 1)]


def generate(data, n_ops, shares, scans):
    """``n_ops`` operations drawn with the given statement-kind
    ``shares`` (point, view, scan, txn, insert).  ``scans`` lists the
    scan templates, used in strict rotation so every seed issues them in
    the same proportions."""
    rng = data.rng
    kinds = rng.choice(len(shares), size=n_ops,
                       p=[share for _, share in shares])
    names = [name for name, _ in shares]
    sessions = rng.integers(0, N_SESSIONS, n_ops)
    keys = data.zipf_keys(2 * n_ops)
    amounts = rng.integers(1, 100, n_ops)
    groups = rng.integers(0, N_GROUPS, n_ops)
    starts = rng.integers(0, N_KEYS - RANGE_WIDTH, n_ops)
    new_bal = rng.integers(100, 10000, n_ops)
    next_key = N_KEYS
    n_scans = 0
    ops = []
    for i in range(n_ops):
        name = names[kinds[i]]
        s = int(sessions[i])
        if name == "point":
            k = int(keys[2 * i])
            ops.append(Op("point", ("SELECT g, bal FROM acct WHERE k = "
                                    "{0}".format(k),), s, ("point", k)))
        elif name == "view":
            g = int(groups[i])
            ops.append(Op("point", ("SELECT n, total FROM acct_by_g "
                                    "WHERE g = {0}".format(g),), s,
                          ("view", g)))
        elif name == "scan":
            template = scans[n_scans % len(scans)]
            n_scans += 1
            ops.append(_scan_op(template, s, int(starts[i]),
                                int(groups[i])))
        elif name == "txn":
            x, y = int(keys[2 * i]), int(keys[2 * i + 1])
            if x == y:
                y = (y + 1) % N_KEYS
            a = int(amounts[i])
            ops.append(Op("txn", (
                "BEGIN",
                "UPDATE acct SET bal = bal - {0} WHERE k = {1}".format(a, x),
                "UPDATE acct SET bal = bal + {0} WHERE k = {1}".format(a, y),
                "COMMIT"), s, ("transfer", x, y, a), rows_written=2))
        else:
            k, g, b = next_key, int(groups[i]), int(new_bal[i])
            next_key += 1
            ops.append(Op("write", ("INSERT INTO acct VALUES ({0}, {1}, "
                                    "{2})".format(k, g, b),), s,
                          ("insert", k, g, b), rows_written=1))
    return ops


def _scan_op(template, session, start, group):
    if template == "range":
        end = start + RANGE_WIDTH
        return Op("scan", ("SELECT count(*), sum(bal) FROM acct WHERE "
                           "k >= {0} AND k < {1}".format(start, end),),
                  session, ("range", start, end))
    if template == "group_agg":
        lo = group % (N_GROUPS - GROUP_SPAN)
        return Op("scan", ("SELECT g, count(*), sum(bal) FROM acct WHERE "
                           "g >= {0} AND g < {1} GROUP BY g".format(
                               lo, lo + GROUP_SPAN),),
                  session, ("group_agg", lo, lo + GROUP_SPAN))
    return Op("scan", ("SELECT k, bal FROM acct WHERE g = {0} ORDER BY "
                       "bal DESC, k LIMIT {1}".format(group, TOPK),),
              session, ("topk", group))


class AcctModel:
    """Expected state: balances and groups per key, per-group counts
    and sums, replayed operation by operation."""

    def __init__(self, data):
        self.bal = {k: int(b) for k, b in enumerate(data.bal)}
        self.g = {k: int(g) for k, g in enumerate(data.g)}
        self.members = [[] for _ in range(N_GROUPS)]
        for k, g in self.g.items():
            self.members[g].append(k)
        self.count = np.bincount(data.g, minlength=N_GROUPS).tolist()
        self.total = np.bincount(data.g, weights=data.bal,
                                 minlength=N_GROUPS).astype(np.int64)
        self.total = [int(t) for t in self.total]
        self.initial_sum = int(data.bal.sum())
        self.inserted = 0

    def answer(self, check):
        """Expected output of one operation, applying its writes."""
        kind = check[0]
        if kind == "point":
            k = check[1]
            return [(self.g[k], self.bal[k])]
        if kind == "view":
            g = check[1]
            return [(self.count[g], self.total[g])] if self.count[g] else []
        if kind == "range":
            keys = range(check[1], check[2])
            return [(len(keys), sum(self.bal[k] for k in keys))]
        if kind == "group_agg":
            return sorted((g, self.count[g], self.total[g])
                          for g in range(check[1], check[2])
                          if self.count[g])
        if kind == "topk":
            rows = [(k, self.bal[k]) for k in self.members[check[1]]]
            rows.sort(key=lambda r: (-r[1], r[0]))
            return rows[:TOPK]
        if kind == "transfer":
            _, x, y, a = check
            self._move(x, -a)
            self._move(y, a)
            return (1, 1)
        if kind == "insert":
            _, k, g, b = check
            self.bal[k] = b
            self.g[k] = g
            self.members[g].append(k)
            self.count[g] += 1
            self.total[g] += b
            self.inserted += b
            return 1
        raise ValueError(kind)

    def _move(self, k, delta):
        self.bal[k] += delta
        self.total[self.g[k]] += delta

    def rows(self):
        return sorted((k, self.g[k], b) for k, b in self.bal.items())


def normalize(check, out):
    """Engine output in the model's shape (group-by rows sorted)."""
    if check[0] == "group_agg":
        return sorted(tuple(r) for r in out)
    if isinstance(out, list):
        return [tuple(r) for r in out]
    return out


def verify_answers(data, ops, outputs):
    """Replay ``ops`` through a fresh model; returns (model, failures)."""
    model = AcctModel(data)
    failures = []
    for index, (op, out) in enumerate(zip(ops, outputs)):
        expected = model.answer(op.check)
        got = normalize(op.check, out)
        if got != expected:
            failures.append("op {0} {1!r}: expected {2!r}, got {3!r}".format(
                index, op.sqls[-1 if op.kind != "txn" else 1], expected,
                got))
    return model, failures


def run_session_op(sessions, op):
    session = sessions[op.session]
    if op.kind == "txn":
        out = [session.execute(sql) for sql in op.sqls]
        return tuple(out[1:-1])
    result = session.execute(op.sqls[0])
    return result.rows() if isinstance(result, ResultSet) else result


def abort_open(sessions, op):
    session = sessions[op.session]
    if session.in_transaction:
        session.abort()


def dump_acct(execute):
    return sorted(execute("SELECT k, g, bal FROM acct").rows())


def check_state(model, execute, label):
    """Table contents against the model, and balance conservation (the
    total is the initial sum plus every inserted amount), through
    ``execute``."""
    failures = []
    rows = dump_acct(execute)
    if rows != model.rows():
        failures.append("{0}: acct differs from the model".format(label))
    total = execute("SELECT sum(bal) FROM acct").scalar()
    if total != model.initial_sum + model.inserted:
        failures.append("{0}: sum(bal) {1} breaks conservation".format(
            label, total))
    return failures


def check_view(execute, label):
    """The materialized view equals its GROUP BY recomputed on the
    base table."""
    view = sorted(execute("SELECT g, n, total FROM acct_by_g").rows())
    base = sorted(execute("SELECT g, count(*), sum(bal) FROM acct "
                          "GROUP BY g").rows())
    if view != base:
        return ["{0}: acct_by_g differs from its GROUP BY".format(label)]
    return []


# -- oltp_replicated ----------------------------------------------------------

class OltpReplicated:
    name = "oltp_replicated"
    warmup_ops = 200
    # Timed operations per second of ``--seconds``: about what one
    # client completes on a 2.1 GHz Xeon core, fixed so that every run
    # executes the same number of operations and ends in the same state.
    ops_per_s = 760
    shares = [("point", 0.65), ("view", 0.10), ("scan", 0.05),
              ("txn", 0.10), ("insert", 0.10)]
    scans = ["range"]
    failures = FAILURES

    def __init__(self, seed):
        self.data = AcctData(seed)
        self.load = self.data.load_statements()

    def generate(self, n_timed):
        """Warm-up operations followed by ``n_timed`` timed ones; the
        warm-up is simply the head of the same random stream."""
        return generate(self.data, self.warmup_ops + n_timed, self.shares,
                        self.scans)

    def release(self):
        """Drop the loaded system, so the next set-up does not build
        beside it."""
        self.group = self.manager = self.sessions = None

    def setup(self):
        group = ReplicationGroup(n_replicas=2, mode="sync")
        manager = SessionManager(group)
        sessions = [manager.session("tenant{0}".format(i))
                    for i in range(N_SESSIONS)]
        sessions[0].execute(CREATE)
        for sql in self.load:
            sessions[0].execute(sql)
        sessions[0].execute(CREATE_VIEW)
        self.group, self.manager, self.sessions = group, manager, sessions
        return self

    def run(self, op):
        return run_session_op(self.sessions, op)

    def after_failure(self, op):
        abort_open(self.sessions, op)

    def databases(self):
        return [node.db for node in self.group.nodes]

    def wals(self):
        return [node.log for node in self.group.nodes]

    def counters(self):
        stats = self.group.stats
        return {"ticks": self.group.clock.now,
                "reads_replica": stats.reads_replica,
                "reads_primary": stats.reads_primary}

    def verify(self, ops, outputs):
        model, failures = verify_answers(self.data, ops, outputs)
        self.model = model
        self.group.drain()
        report = self.group.divergence_report()
        if report:
            failures.append("divergence after drain: {0} LSNs".format(
                len(report)))
        primary = self.group.require_primary().db
        failures += check_state(model, primary.execute, "primary")
        failures += check_view(primary.execute, "primary")
        for node in self.group.replicas():
            if dump_acct(node.db.execute) != model.rows():
                failures.append("replica {0} differs".format(node.node_id))
        return failures

    def recover_once(self):
        """Rebuild the primary's state from its WAL into a fresh
        database; returns the rebuilt database."""
        fresh = Database(wal=self.group.require_primary().log)
        fresh.recover()
        return fresh

    def check_recovered(self, fresh):
        failures = check_state(self.model, fresh.execute, "recovered")
        failures += check_view(fresh.execute, "recovered")
        return failures


# -- sharded_governed ---------------------------------------------------------

class ShardedGoverned(OltpReplicated):
    name = "sharded_governed"
    ops_per_s = 650
    shares = [("point", 0.60), ("scan", 0.20), ("txn", 0.10),
              ("insert", 0.10)]
    scans = ["group_agg", "topk"]

    def release(self):
        self.sdb = self.manager = self.sessions = None

    def setup(self):
        sdb = ShardedDatabase(n_shards=4, leg_timeout=LEG_TIMEOUT_TICKS)
        manager = SessionManager(sdb)
        sessions = [manager.session("tenant{0}".format(i))
                    for i in range(N_SESSIONS)]
        for session in sessions:
            session.execute("SET deadline = {0}".format(DEADLINE_TICKS))
        sessions[0].execute(CREATE_PARTITIONED)
        for sql in self.load:
            sessions[0].execute(sql)
        self.sdb, self.manager, self.sessions = sdb, manager, sessions
        return self

    def databases(self):
        return [node.db for node in self.sdb.shards]

    def wals(self):
        return [node.db.wal for node in self.sdb.shards] + \
            [self.sdb.decision_log]

    def counters(self):
        stats = self.sdb.stats
        return {name: getattr(stats, name) for name in (
            "single_shard", "scatter", "gather", "pruned",
            "shipped_bytes", "twopc_fast_path", "twopc_commits",
            "retries")}

    def verify(self, ops, outputs):
        model, failures = verify_answers(self.data, ops, outputs)
        self.model = model
        failures += check_state(model, self.sdb.execute, "coordinator")
        if self.manager.governed:
            failures.append("{0} statements governed".format(
                self.manager.governed))
        failures += self._check_no_in_doubt()
        return failures

    def _check_no_in_doubt(self):
        """Replay each shard's WAL into a fresh database and require no
        prepared-but-undecided 2PC xid.  This must run before the
        cluster's own recovery, which settles every such xid."""
        failures = []
        for node in self.sdb.shards:
            replayed = Database(wal=node.db.wal)
            replayed.recover()
            if replayed.in_doubt:
                failures.append("shard {0} has in-doubt xids {1}".format(
                    node.shard_id, replayed.in_doubt))
        return failures

    def recover_once(self):
        """Crash-restart the whole cluster in place from the shard WALs
        and the coordinator's decision log."""
        self.sdb.recover()
        return self.sdb

    def check_recovered(self, sdb):
        return check_state(self.model, sdb.execute, "recovered")
