"""Wall-clock spans recorded around the engine's layer boundaries.

The engine's own tracer counts simulated cycles; this module measures
real time from the outside.  :class:`Patcher` replaces each layer
function's binding — the class attribute for methods, and for plain
functions every ``repro.*`` module global bound to the same object —
with a wrapper that opens a span on a :class:`SpanRecorder`.  Nothing
in the engine changes; uninstalling restores the original bindings.

Spans live in parallel in-memory lists (name, start, end, parent,
statement id) and are written out once, at the end.  A span's *self*
time is its duration minus its direct children's durations, so within
one statement the self times of all spans sum exactly (integer
nanoseconds) to the root span's duration.
"""

import functools
import gzip
import importlib
import json
import sys
import time

# (span name, "module:attribute path") for every wrapped layer entry
# point.  Span names are the layer prefixes of the per-layer metrics.
LAYER_ENTRY_POINTS = [
    ("sessions.execute", "repro.sessions.session:Session.execute"),
    ("replication.execute",
     "repro.replication.group:ReplicationGroup.execute"),
    ("replication.tick", "repro.replication.group:ReplicationGroup.tick"),
    ("sharding.execute",
     "repro.sharding.coordinator:ShardedDatabase.execute"),
    ("sharding.txn_execute",
     "repro.sharding.twopc:ShardedTransaction.execute"),
    ("sharding.twopc.commit",
     "repro.sharding.twopc:ShardedTransaction.commit"),
    ("sharding.plan", "repro.sharding.planner:plan_select"),
    ("sharding.leg", "repro.sharding.coordinator:ShardedDatabase._rpc"),
    ("sharding.merge", "repro.sharding.merge:merge_rows"),
    ("sharding.merge", "repro.sharding.merge:merge_aggregates"),
    ("governance.checkpoint",
     "repro.governance.context:QueryContext.checkpoint"),
    ("sql.execute", "repro.sql.database:Database.execute"),
    ("sql.parse", "repro.sql.parser:parse_sql"),
    ("sql.compile", "repro.sql.compiler:compile_select"),
    ("sql.compile", "repro.sql.compiler:compile_where_candidates"),
    ("sql.txn_execute", "repro.sql.transactions:Transaction.execute"),
    ("sql.txn_commit", "repro.sql.transactions:Transaction.commit"),
    ("sql.recover", "repro.sql.database:Database.recover"),
    ("mal.optimize", "repro.mal.optimizer.base:Pipeline.optimize"),
    ("mal.interpret", "repro.mal.interpreter:Interpreter.run"),
    ("compile.run", "repro.compile.executor:PlanCompiler.try_run"),
    ("wal.append", "repro.wal.log:WriteAheadLog.append"),
    ("wal.append", "repro.replication.log:ReplicatedLog.append"),
    ("wal.recover", "repro.wal.log:WriteAheadLog.recover"),
    ("views.apply_delta",
     "repro.views.maintainer:ViewMaintainer.apply_delta"),
]


class SpanRecorder:
    """In-memory span store with an explicit open-span stack."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stmts = []
        self._stack = []
        self._stmt = -1
        self.n_statements = 0

    def __len__(self):
        return len(self.names)

    def open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.stmts.append(self._stmt)
        self.ends.append(None)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index):
        self.ends[index] = self.clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError("span {0} closed while {1} was open".format(
                index, top))

    def statement(self, kind):
        """Context manager: one root span per executed statement; every
        span opened inside it carries the statement's id."""
        return _Root(self, "stmt." + kind)

    def wrap(self, name, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)
        return traced

    # -- analysis -------------------------------------------------------------

    def durations(self):
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self):
        """Per-span duration minus its direct children's durations."""
        durations = self.durations()
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def totals(self):
        """``{name: (calls, inclusive ns, self ns)}``; inclusive time
        counts only spans with no same-named ancestor, so a layer that
        re-enters itself is not double counted."""
        durations = self.durations()
        own = self.self_times()
        out = {}
        for index, name in enumerate(self.names):
            calls, inclusive, self_ns = out.get(name, (0, 0, 0))
            parent = self.parents[index]
            nested = False
            while parent >= 0:
                if self.names[parent] == name:
                    nested = True
                    break
                parent = self.parents[parent]
            out[name] = (calls + 1,
                         inclusive + (0 if nested else durations[index]),
                         self_ns + own[index])
        return out

    def check_bookkeeping(self):
        """Problems with the span tree (empty when consistent): every
        span closed, nested inside its parent, in its parent's
        statement, and in each statement the self times sum exactly to
        the root span's duration."""
        problems = []
        if self._stack:
            problems.append("{0} spans still open".format(len(self._stack)))
        if any(end is None for end in self.ends):
            return problems + ["unclosed span"]
        own = self.self_times()
        root_of = {}
        sums = {}
        for index, parent in enumerate(self.parents):
            stmt = self.stmts[index]
            if parent < 0:
                if stmt in root_of:
                    problems.append("statement {0} has two roots".format(
                        stmt))
                root_of[stmt] = index
            else:
                if self.stmts[parent] != stmt:
                    problems.append("span {0} escapes statement {1}".format(
                        index, self.stmts[parent]))
                if self.starts[index] < self.starts[parent] or \
                        self.ends[index] > self.ends[parent]:
                    problems.append("span {0} outlives parent {1}".format(
                        index, parent))
            sums[stmt] = sums.get(stmt, 0) + own[index]
        for stmt, root in root_of.items():
            duration = self.ends[root] - self.starts[root]
            if sums[stmt] != duration:
                problems.append(
                    "statement {0}: self times sum to {1} ns, root lasts "
                    "{2} ns".format(stmt, sums[stmt], duration))
        return problems

    def dump(self, path):
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(json.dumps(
                    [name, self.starts[index], self.ends[index],
                     self.parents[index], self.stmts[index]]) + "\n")


class _Root:
    def __init__(self, recorder, name):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        recorder = self.recorder
        if recorder._stack:
            raise RuntimeError("statement span opened inside another span")
        recorder._stmt = recorder.n_statements
        recorder.n_statements += 1
        self.index = recorder.open(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.recorder.close(self.index)
        self.recorder._stmt = -1
        return False


def _resolve(spec):
    """``"module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, path = spec.split(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patcher:
    """Installs and removes span wrappers around
    :data:`LAYER_ENTRY_POINTS`."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []   # (owner, attribute, original)

    def install(self):
        for name, spec in LAYER_ENTRY_POINTS:
            owner, attr = _resolve(spec)
            original = getattr(owner, attr)
            wrapped = self.recorder.wrap(name, original)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            # A plain function: rebind it in every module that imported
            # it by name, not only where it was defined.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        return self

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False
