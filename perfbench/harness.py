"""Runs one workload: set-up, warm-up, the timed closed loop, answer
checks and WAL recovery; or, with tracing, the per-layer attribution.

Every operation of a run is generated from the seed before anything is
timed.  The client is closed-loop: one thread sends an operation,
waits for its answer, then sends the next.  A run executes a fixed
number of timed operations, ``seconds`` times the workload's
``ops_per_s``, whatever the seed and however fast the machine is, so
every run ends in the same state; a time limit of ``GUARD`` times
``seconds`` only stops a run that has gone badly slow.  Latency is
measured per operation (a transfer from ``BEGIN`` through ``COMMIT``)
and reported per statement kind.
"""

import gc
import os
import resource
import time
from statistics import median

from perfbench import spec
from perfbench.stats import percentile
from perfbench.tracing import Patcher, SpanRecorder
from perfbench.workloads import REGISTRY

# Set-ups and WAL rebuilds are each repeated at least REPEATS times,
# and more until REPEAT_BUDGET_S seconds are spent; setup_s and
# recover_s are their medians.  The budget spreads a short step over
# several seconds, so one brief swing in machine speed moves few of
# its samples.  Set-ups run in two halves, one before the timed phase
# and one after the checks, so that their median samples the machine
# across the whole run rather than in its first seconds.
REPEATS = 3
REPEAT_BUDGET_S = 6.0
SETUP_REPEATS = 4
GUARD = 3
FAILED = object()


class RunError(RuntimeError):
    """The run cannot report a metric it owes (e.g. a thin tail)."""


def _now():
    return time.perf_counter_ns()


def _settle():
    """Collect garbage now and move every surviving object out of the
    collector's view, so a full collection triggered mid-run does not
    rescan the loaded tables."""
    gc.collect()
    gc.freeze()


def _setup(workload):
    workload.release()
    gc.unfreeze()
    gc.collect()
    start = _now()
    workload.setup()
    return (_now() - start) / 1e9


def run_ops(workload, ops, lo, hi, seconds=None, record=None):
    """Run ``ops[lo:hi]`` in order, stopping early once ``seconds`` have
    passed (a guard, not the run's length).  Returns ``(outputs, latencies, failed, elapsed ns)`` with
    latencies as ``(kind, ns)`` pairs.  ``record`` (a SpanRecorder) wraps
    each operation in a root span."""
    outputs = []
    latencies = []
    failed = 0
    run = workload.run
    start = _now()
    deadline = None if seconds is None else start + int(seconds * 1e9)
    for index in range(lo, hi):
        op = ops[index]
        begin = _now()
        try:
            if record is None:
                out = run(op)
            else:
                with record.statement(op.kind):
                    out = run(op)
        except workload.failures:
            failed += 1
            out = FAILED
            workload.after_failure(op)
        end = _now()
        outputs.append(out)
        latencies.append((op.kind, end - begin))
        if deadline is not None and end >= deadline:
            break
    return outputs, latencies, failed, _now() - start


def mix_report(ops, warm, executed):
    """Statement-kind shares over the timed operations and the share of
    timed SELECT texts already sent earlier in the run."""
    timed = ops[warm:executed]
    shares = {}
    for op in timed:
        shares[op.kind] = shares.get(op.kind, 0) + 1
    seen = set()
    for op in ops[:warm]:
        seen.update(sql for sql in op.sqls if sql.startswith("SELECT"))
    selects = repeats = 0
    for op in timed:
        for sql in op.sqls:
            if sql.startswith("SELECT"):
                selects += 1
                repeats += sql in seen
                seen.add(sql)
    return {
        "op_shares": {k: round(v / max(len(timed), 1), 4)
                      for k, v in sorted(shares.items())},
        "select_text_repeat_share": round(repeats / max(selects, 1), 4),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _kind_metrics(latencies):
    by_kind = {kind: [] for kind in spec.KINDS}
    names = {"point": "point_read", "scan": "scan_read", "write": "write",
             "txn": "txn"}
    for kind, ns in latencies:
        by_kind[names[kind]].append(ns / 1000.0)
    metrics, samples = {}, {}
    for kind, values in by_kind.items():
        samples[kind] = len(values)
        for label, q in (("p50", 0.5), ("p95", 0.95)):
            value, _ = percentile(values, q)
            if value is None:
                raise RunError("{0}: {1} samples cannot support {2}".format(
                    kind, len(values), label))
            metrics["{0}_{1}_us".format(kind, label)] = value
    return metrics, samples


def _enough(seconds, count=REPEATS, budget_s=REPEAT_BUDGET_S):
    return len(seconds) >= count and sum(seconds) >= budget_s


def _setups(workload, times, count, budget_s):
    """Set up afresh until ``times`` holds ``count`` set-up times
    summing to ``budget_s``; the last set-up stays loaded."""
    while not _enough(times, count, budget_s):
        times.append(_setup(workload))


def _recover(workload):
    """Rebuild from the WAL repeatedly; returns (median seconds, number
    of rebuilds, failures of the last rebuild against the live state)."""
    seconds = []
    while not _enough(seconds):
        gc.collect()
        start = _now()
        rebuilt = workload.recover_once()
        seconds.append((_now() - start) / 1e9)
    return median(seconds), len(seconds), workload.check_recovered(rebuilt)


def _generate(workload, seconds):
    """The whole operation stream: the warm-up, then
    ``seconds * ops_per_s`` timed operations."""
    return workload.generate(max(int(seconds * workload.ops_per_s), 1))


def measure(name, seed, seconds):
    """The untraced run: every end-to-end metric."""
    workload = REGISTRY[name](seed)
    ops = _generate(workload, seconds)
    setup_times = []
    _setups(workload, setup_times, SETUP_REPEATS // 2, REPEAT_BUDGET_S / 2)
    warm = workload.warmup_ops
    outputs, _, failed_warm, _ = run_ops(workload, ops, 0, warm)
    _settle()
    timed, latencies, failed, elapsed = run_ops(
        workload, ops, warm, len(ops), seconds=GUARD * seconds)
    executed = warm + len(timed)
    gc.unfreeze()
    outputs += timed
    statements = sum(ops[i].n_statements for i in range(warm, executed))
    metrics, samples = _kind_metrics(latencies)
    failures = workload.verify(ops[:executed], outputs)
    # The mark is taken before recovery, which rebuilds a second copy
    # of the data beside the live one.
    peak_rss_mb = _peak_rss_mb()
    recover_s, recoveries, recovery_failures = _recover(workload)
    failures += recovery_failures
    _setups(workload, setup_times, SETUP_REPEATS, REPEAT_BUDGET_S)
    metrics.update({
        "setup_s": median(setup_times),
        "throughput_stmt_s": statements / (elapsed / 1e9),
        "recover_s": recover_s,
        "peak_rss_mb": peak_rss_mb,
    })
    info = {
        "workload": name, "seed": seed, "samples": samples,
        "statements": statements, "timed_seconds": elapsed / 1e9,
        "guard_stopped": executed < len(ops),
        "error_rate": failed / max(statements, 1),
        "setup_runs_s": setup_times, "recoveries": recoveries,
    }
    info.update(mix_report(ops, warm, executed))
    return {"metrics": metrics, "failures": failures, "info": info,
            "attempted": executed, "failed": failed + failed_warm}


# -- the traced run -----------------------------------------------------------

def _counter_totals(workload):
    totals = {"plans_reused": sum(db.plans_reused
                                  for db in workload.databases()),
              "wal_bytes": sum(w.size_bytes for w in workload.wals()),
              "wal_records": sum(w.records_appended
                                 for w in workload.wals())}
    totals.update(workload.counters())
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals, delta, n):
    """Per-layer metrics from span totals and counter deltas.

    ``totals``: ``{span name: (calls, inclusive ns, self ns)}``;
    ``delta``: counter changes over the traced operations; ``n``: counts
    of statements, SELECTs, write commits and rows written.
    """
    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def incl_us(name):
        return totals.get(name, (0, 0, 0))[1] / 1000.0

    def self_us(name):
        return totals.get(name, (0, 0, 0))[2] / 1000.0

    stmts, writes = n["statements"], n["writes"]
    kernel = delta.get("kernel_hits", 0) + delta.get("kernel_misses", 0)
    routed = sum(delta.get(k, 0) for k in ("single_shard", "scatter",
                                           "gather"))
    twopc = delta.get("twopc_fast_path", 0) + delta.get("twopc_commits", 0)
    compile_runs = calls("compile.run")
    replica_reads = delta.get("reads_replica", 0)
    return {
        "sql.parse.us_per_stmt": _ratio(incl_us("sql.parse"), stmts),
        "sql.compile.us_per_stmt": _ratio(incl_us("sql.compile"), stmts),
        "sql.plan_cache.hit_ratio": _ratio(delta["plans_reused"],
                                           n["selects"]),
        "sql.txn_commit.us": _ratio(incl_us("sql.txn_commit"),
                                    calls("sql.txn_commit")),
        "mal.optimize.us_per_stmt": _ratio(incl_us("mal.optimize"), stmts),
        "mal.interpret.us_per_stmt": _ratio(incl_us("mal.interpret"),
                                            stmts),
        "mal.interpret.calls_per_stmt": _ratio(calls("mal.interpret"),
                                               stmts),
        "compile.run.us_per_stmt": _ratio(incl_us("compile.run"), stmts),
        "compile.kernel_cache.hit_ratio": _ratio(
            delta.get("kernel_hits", 0), kernel),
        "compile.fallback_ratio": _ratio(
            compile_runs - delta.get("compiled_runs", 0), compile_runs),
        "wal.append.us_per_write": _ratio(incl_us("wal.append"), writes),
        "wal.bytes_per_row_written": _ratio(delta["wal_bytes"],
                                            n["rows_written"]),
        "wal.records_per_commit": _ratio(delta["wal_records"], writes),
        "views.apply_delta.us_per_write": _ratio(
            incl_us("views.apply_delta"), writes),
        "views.apply_delta.calls_per_write": _ratio(
            calls("views.apply_delta"), writes),
        "sessions.execute.self_us_per_stmt": _ratio(
            self_us("sessions.execute"), stmts),
        "replication.ticks_per_write": _ratio(delta.get("ticks", 0),
                                              writes),
        "replication.tick.us_per_write": _ratio(incl_us("replication.tick"),
                                                writes),
        "replication.replica_read_ratio": _ratio(
            replica_reads, replica_reads + delta.get("reads_primary", 0)),
        "sharding.plan.us_per_stmt": _ratio(incl_us("sharding.plan"),
                                            stmts),
        "sharding.legs_per_stmt": _ratio(calls("sharding.leg"), stmts),
        "sharding.leg.us_per_leg": _ratio(incl_us("sharding.leg"),
                                          calls("sharding.leg")),
        "sharding.coordinator.self_us_per_stmt": _ratio(
            self_us("sharding.execute") + self_us("sharding.txn_execute"),
            stmts),
        "sharding.merge.us_per_stmt": _ratio(incl_us("sharding.merge"),
                                             stmts),
        "sharding.shipped_bytes_per_stmt": _ratio(
            delta.get("shipped_bytes", 0), stmts),
        "sharding.pruned_ratio": _ratio(delta.get("pruned", 0), routed),
        "sharding.twopc.commit_us": _ratio(
            incl_us("sharding.twopc.commit"),
            calls("sharding.twopc.commit")),
        "sharding.twopc.fast_path_ratio": _ratio(
            delta.get("twopc_fast_path", 0), twopc),
        "sharding.retries": float(delta.get("retries", 0)),
        "governance.checkpoints_per_stmt": _ratio(
            calls("governance.checkpoint"), stmts),
        "governance.checkpoint.us_per_stmt": _ratio(
            incl_us("governance.checkpoint"), stmts),
    }


def recovery_split(recorder):
    """(WAL read seconds, replay seconds) of a traced recovery: replay is
    ``Database.recover`` minus the log read nested inside it."""
    durations = recorder.durations()
    read = replay = 0
    for index, name in enumerate(recorder.names):
        if name == "wal.recover":
            read += durations[index]
        elif name == "sql.recover":
            replay += durations[index]
            for child, parent in enumerate(recorder.parents):
                if parent == index and recorder.names[child] == "wal.recover":
                    replay -= durations[child]
    return read / 1e9, replay / 1e9


def _counts(ops):
    n = {"statements": 0, "selects": 0, "writes": 0, "rows_written": 0}
    for op in ops:
        n["statements"] += op.n_statements
        n["selects"] += op.selects
        if op.kind in ("write", "txn"):
            n["writes"] += 1
            n["rows_written"] += op.rows_written
    return n


def trace(name, seed, seconds, out_dir):
    """The traced run: half the operations of an untraced run, first
    untraced for the reference wall time, then on a fresh set-up with
    every layer wrapped in spans."""
    workload = REGISTRY[name](seed)
    ops = _generate(workload, seconds / 2)
    warm = workload.warmup_ops
    _setup(workload)
    run_ops(workload, ops, 0, warm)
    _settle()
    plain, _, _, plain_ns = run_ops(workload, ops, warm, len(ops),
                                    seconds=GUARD * seconds)
    hi = warm + len(plain)
    del plain

    _setup(workload)
    outputs, _, failed, _ = run_ops(workload, ops, 0, warm)
    _settle()
    before = _counter_totals(workload)
    recorder = SpanRecorder()
    with Patcher(recorder):
        traced, _, failed_traced, traced_ns = run_ops(
            workload, ops, warm, hi, record=recorder)
    gc.unfreeze()
    after = _counter_totals(workload)
    delta = {k: after[k] - before.get(k, 0) for k in after}
    metrics = layer_metrics(recorder.totals(), delta, _counts(ops[warm:hi]))
    metrics["bench.trace_overhead_frac"] = traced_ns / plain_ns - 1.0
    failures = ["span bookkeeping: " + p
                for p in recorder.check_bookkeeping()]
    failures += workload.verify(ops[:hi], outputs + traced)

    recovery = SpanRecorder()
    with Patcher(recovery):
        with recovery.statement("recover"):
            rebuilt = workload.recover_once()
    failures += workload.check_recovered(rebuilt)
    failures += ["recovery span bookkeeping: " + p
                 for p in recovery.check_bookkeeping()]
    read_s, replay_s = recovery_split(recovery)
    metrics["wal.recover.read_s"] = read_s
    metrics["sql.recover.replay_s"] = replay_s

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-{0}-seed{1}.jsonl.gz".format(
        name, seed))
    recorder.dump(path)
    info = {"workload": name, "seed": seed, "spans": len(recorder),
            "traced_ops": recorder.n_statements,
            "span_file": os.path.relpath(path),
            "plain_seconds": plain_ns / 1e9,
            "traced_seconds": traced_ns / 1e9}
    info.update(mix_report(ops, warm, hi))
    return {"metrics": metrics, "failures": failures, "info": info,
            "attempted": hi, "failed": failed + failed_traced}
