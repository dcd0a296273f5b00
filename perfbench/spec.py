"""The benchmark's metric catalogue.

Names, units, directions, bounds and ``run_seconds`` come from
``BENCHMARK.json`` at the repository root.  This module adds what that
file cannot hold: the statement kinds and, for each per-layer metric,
the end-to-end metrics it should move.
"""

import json
import os

with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")) as _handle:
    _DOC = json.load(_handle)

WORKLOADS = [w["name"] for w in _DOC["workloads"]]
RUN_SECONDS = _DOC["run_seconds"]
# (name, unit, better, bound)
END_TO_END = [(m["name"], m["unit"], m["better"], m["bound"])
              for m in _DOC["end_to_end"]]
# (name, unit, better)
PER_LAYER = [(m["name"], m["unit"], m["better"]) for m in _DOC["per_layer"]]

KINDS = ["point_read", "scan_read", "write", "txn"]

LATENCIES = ["{0}_p95_us".format(kind) for kind in KINDS]

# (name, unit): printed after the end-to-end metrics, but not in
# BENCHMARK.json, because their run-to-run spread on a shared machine
# exceeded 0.25, the largest bound a metric may have.  The machine's
# speed swings by up to a third for minutes at a time.  A median sits
# between the fast and the slow cluster of one kind's latencies and
# moves with their mix; the p95 lies in the slow cluster and holds.
# Throughput, a mean over every operation, moves with that mix the same
# way.  A WAL rebuild lasts a few seconds, so a whole run's rebuilds can
# fall into one fast or slow spell.
UNBOUNDED = [("throughput_stmt_s", "stmt/s")] + \
    [("{0}_p50_us".format(kind), "us") for kind in KINDS] + \
    [("recover_s", "s")]

_ALL = list(WORKLOADS)
_SESSIONED = ["oltp_replicated", "sharded_governed"]
_WAL_TARGETS = ["write_p95_us", "txn_p95_us", "recover_s"]


def _on(workloads, metrics):
    return [(w, list(metrics)) for w in workloads]


# Which end-to-end metrics, on which workloads, each layer should move.
LAYER_TARGETS = {
    "sql": _on(_SESSIONED, ["point_read_p95_us", "txn_p95_us"])
    + [("analytics_compiled", ["setup_s"])],
    "mal": [("oltp_replicated", ["point_read_p95_us"]),
            ("analytics_compiled", ["scan_read_p95_us"])],
    "compile": [("analytics_compiled", ["scan_read_p95_us"])],
    "wal": _on(_ALL, _WAL_TARGETS),
    "views": [("oltp_replicated", ["write_p95_us", "txn_p95_us"])],
    "sessions": _on(_SESSIONED, LATENCIES),
    "replication": [("oltp_replicated", ["write_p95_us", "txn_p95_us"])],
    "sharding": [("sharded_governed", ["point_read_p95_us",
                                       "scan_read_p95_us", "txn_p95_us"])],
    "governance": [("sharded_governed", LATENCIES)],
    "bench": [],
}


def layer_of(metric):
    """The layer a per-layer metric belongs to (``sql.recover.*`` is the
    WAL replay path, so it counts with ``wal``)."""
    if metric.startswith("sql.recover."):
        return "wal"
    return metric.split(".")[0]


def targets(metric):
    return LAYER_TARGETS[layer_of(metric)]
