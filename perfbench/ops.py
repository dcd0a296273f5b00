"""One generated client operation."""


class Op:
    """A closed-loop client operation: its statement kind (``point``,
    ``scan``, ``write`` or ``txn``), the SQL texts it sends in order, the
    session that sends them, the check used to verify its answer and the
    number of table rows it writes."""

    __slots__ = ("kind", "sqls", "session", "check", "rows_written")

    def __init__(self, kind, sqls, session, check, rows_written=0):
        self.kind = kind
        self.sqls = sqls
        self.session = session
        self.check = check
        self.rows_written = rows_written

    @property
    def n_statements(self):
        return len(self.sqls)

    @property
    def selects(self):
        return sum(1 for sql in self.sqls if sql.startswith("SELECT"))
