"""The benchmark's own tests: percentile boundary, span bookkeeping,
the traced run and the per-layer targets of the metric catalogue.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import harness, spec  # noqa: E402
from perfbench.stats import percentile  # noqa: E402
from perfbench.tracing import Patcher, SpanRecorder  # noqa: E402


# -- percentile helper --------------------------------------------------------

def test_p95_needs_ten_samples_beyond():
    values = list(range(200))
    assert percentile(values, 0.95) == (189, 200)
    assert sum(v > 189 for v in values) == 10
    assert percentile(values[:199], 0.95) == (None, 199)


def test_p50_boundary():
    assert percentile(list(range(20)), 0.5) == (9, 20)
    assert percentile(list(range(19)), 0.5) == (None, 19)


def test_percentile_ignores_input_order():
    values = [5, 1, 4, 2, 3] * 10
    assert percentile(values, 0.5) == (3, 50)
    assert percentile([], 0.5) == (None, 0)


# -- span bookkeeping ---------------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 7
        return self.now


def _tree(recorder):
    inner = recorder.wrap("leaf", lambda: None)

    def middle():
        inner()
        inner()

    outer = recorder.wrap("middle", middle)
    for kind in ("point", "txn"):
        with recorder.statement(kind):
            outer()
            inner()


def test_self_times_sum_to_root_duration():
    recorder = SpanRecorder(clock=_Clock())
    _tree(recorder)
    assert recorder.check_bookkeeping() == []
    own = recorder.self_times()
    durations = recorder.durations()
    for stmt in range(recorder.n_statements):
        spans = [i for i, s in enumerate(recorder.stmts) if s == stmt]
        root = [i for i in spans if recorder.parents[i] < 0]
        assert len(root) == 1
        assert sum(own[i] for i in spans) == durations[root[0]]
    calls, inclusive, self_ns = recorder.totals()["leaf"]
    assert calls == 6 and inclusive == self_ns


def test_bookkeeping_reports_a_child_outliving_its_parent():
    recorder = SpanRecorder(clock=_Clock())
    _tree(recorder)
    recorder.ends[1] += 1000
    assert any("outlives" in p for p in recorder.check_bookkeeping())


def test_bookkeeping_reports_a_span_in_the_wrong_statement():
    recorder = SpanRecorder(clock=_Clock())
    _tree(recorder)
    recorder.stmts[2] = 1          # a leaf of statement 0 filed under 1
    problems = recorder.check_bookkeeping()
    assert any("escapes" in p for p in problems)
    assert sum("self times sum" in p for p in problems) == 2


def test_reentrant_layer_counts_inclusive_time_once():
    recorder = SpanRecorder(clock=_Clock())
    inner = recorder.wrap("layer", lambda: None)
    outer = recorder.wrap("layer", inner)
    with recorder.statement("point"):
        outer()
    calls, inclusive, self_ns = recorder.totals()["layer"]
    assert calls == 2
    assert inclusive == recorder.durations()[1]
    assert self_ns == inclusive


def test_patcher_rebinds_every_importer_and_restores():
    import repro.sessions.session as session_module
    import repro.sql.database as database_module
    import repro.sql.parser as parser_module
    from repro.sql import Database
    original = parser_module.parse_sql
    recorder = SpanRecorder()
    with Patcher(recorder):
        assert database_module.parse_sql is not original
        assert session_module.parse_sql is database_module.parse_sql
        db = Database()
        with recorder.statement("write"):
            db.execute("CREATE TABLE t (a INT)")
        with recorder.statement("point"):
            db.execute("SELECT a FROM t WHERE a = 1")
    assert database_module.parse_sql is original
    assert session_module.parse_sql is original
    assert recorder.check_bookkeeping() == []
    names = set(recorder.names)
    assert {"sql.execute", "sql.parse", "sql.compile", "mal.optimize",
            "mal.interpret"} <= names


def test_traced_run_checks_spans_and_answers(tmp_path):
    result = harness.trace("sharded_governed", 3, 0.3, str(tmp_path))
    assert result["failures"] == []
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _, _ in spec.PER_LAYER}
    assert metrics["sharding.legs_per_stmt"] > 0
    assert metrics["governance.checkpoints_per_stmt"] > 0
    assert metrics["replication.ticks_per_write"] == 0


# -- catalogue ----------------------------------------------------------------

def test_every_layer_has_targets_on_named_workloads():
    for name, _, _ in spec.PER_LAYER:
        for workload, metrics in spec.targets(name):
            assert workload in spec.WORKLOADS
            assert set(metrics) <= {n for n, _, _, _ in spec.END_TO_END} | \
                {n for n, _ in spec.UNBOUNDED}
