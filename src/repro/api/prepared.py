"""Prepared statements: parse once, execute many.

``session.prepare(sql)`` runs the front half of the pipeline (lexing,
parsing, and — for SELECT, UPDATE and DELETE — literal lifting) exactly
once and returns a :class:`PreparedStatement` bound to that session.
Each :meth:`~PreparedStatement.run` binds fresh parameter values and
goes through the engine's shared plan cache, so the compile stages (QGM
build, rewrite, plan optimization) are also skipped on every execution
after the first.

Every ``run`` re-validates the handle against the catalog's
``schema_version``: DDL between executions transparently recompiles,
and a handle whose referenced tables or views were *dropped* raises a
descriptive :class:`~repro.errors.CatalogError` naming the missing
object and the statement — never executing a stale plan.

    stmt = session.prepare("SELECT ENAME FROM EMP WHERE ENO = ?")
    for eno in hot_ids:
        rows = stmt.run([eno]).rows
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.api.frontend import lift
from repro.errors import CatalogError, SemanticError
from repro.executor.plan_cache import ParameterizedStatement
from repro.executor.runtime import QueryResult
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.session import Session


#: Statement kinds prepare() accepts.
_PREPARABLE = (ast.SelectStatement, ast.XNFQuery, ast.InsertStatement,
               ast.UpdateStatement, ast.DeleteStatement)
#: Kinds lifted once at prepare time.
_LIFTED = (ast.SelectStatement, ast.UpdateStatement, ast.DeleteStatement)


def _referenced_relations(statement: ast.Statement) -> set[str]:
    """Names of catalog relations a statement reads or writes.

    ``view.component`` references report the view part; subqueries in
    FROM and set operations are walked.  (WHERE-level subqueries are
    deliberately left to the compiler — a dropped table there still
    fails at compile time; this walk exists to catch the *common* DDL
    hazards with a precise error.)
    """
    names: set[str] = set()

    def from_item(item: ast.FromItem) -> None:
        if isinstance(item, ast.TableRef):
            name = item.name
            if "." in name:
                name = name.split(".", 1)[0]
            names.add(name.upper())
        elif isinstance(item, ast.Join):
            from_item(item.left)
            from_item(item.right)
        elif isinstance(item, ast.SubqueryRef):
            select(item.query)

    def select(node: ast.SelectStatement) -> None:
        for item in node.from_items:
            from_item(item)
        if node.set_operation is not None:
            select(node.set_operation.right)

    if isinstance(statement, ast.SelectStatement):
        select(statement)
    elif isinstance(statement, (ast.InsertStatement, ast.UpdateStatement,
                                ast.DeleteStatement)):
        names.add(statement.table.upper())
        query = getattr(statement, "query", None)
        if query is not None:
            select(query)
    elif isinstance(statement, ast.XNFQuery):
        for component in statement.components:
            select(component.query)
    return names


class PreparedStatement:
    """One parsed (and, for SELECT, UPDATE and DELETE,
    pre-parameterized) statement."""

    def __init__(self, session: "Session", sql: str,
                 statement: ast.Statement):
        if not isinstance(statement, _PREPARABLE):
            raise SemanticError(
                f"cannot prepare a {type(statement).__name__}; prepare "
                "supports SELECT, XNF, INSERT, UPDATE and DELETE"
            )
        self.session = session
        self.sql = sql
        self.statement = statement
        self._schema_version = session.engine.catalog.schema_version
        self._references = _referenced_relations(statement)
        self._parameterized: Optional[ParameterizedStatement] = None
        if isinstance(statement, _LIFTED):
            # Lift literals once at prepare time; run() only needs to
            # hash the normalized AST (a write: its pre-hashed key) for
            # the cache probe.
            self._parameterized = lift(statement)

    @property
    def kind(self) -> str:
        return type(self.statement).__name__

    # ------------------------------------------------------------------
    def run(self, params=None):
        """Execute with the given parameter values.

        ``params`` is a sequence for positional ``?`` markers or a
        mapping for ``:name`` markers.  Returns whatever the statement
        kind returns from ``execute``: a
        :class:`~repro.executor.runtime.QueryResult` for SELECT, a
        :class:`~repro.xnf.result.COResult` for XNF, a row count for
        DML.
        """
        session = self.session
        session._check_open()
        catalog = session.engine.catalog
        if catalog.schema_version != self._schema_version:
            self._revalidate()
        statement = self.statement
        if isinstance(statement, ast.SelectStatement):
            return self._run_select(params)
        if isinstance(statement, ast.XNFQuery):
            if params:
                raise SemanticError(
                    "XNF queries do not take parameters")
            return session.run_xnf_query(statement)
        if self._parameterized is not None \
                and session.engine.pipeline.plan_cache.enabled:
            return session.execute_statement(self._parameterized,
                                             params=params)
        return session.execute_statement(statement, params=params)

    __call__ = run

    def _revalidate(self) -> None:
        """Re-check referenced relations after DDL.

        Cached plans key on the schema version, so a changed schema
        always recompiles; this check exists to turn "no table named
        'X'" deep inside a recompile into an error that names the
        prepared statement and tells the caller what to do.
        """
        catalog = self.session.engine.catalog
        for name in sorted(self._references):
            if not (catalog.has_table(name) or catalog.has_view(name)):
                raise CatalogError(
                    f"prepared statement {self.sql!r} is no longer "
                    f"valid: relation {name!r} was dropped by later "
                    f"DDL; re-prepare the statement"
                )
        self._schema_version = catalog.schema_version

    def _run_select(self, params) -> QueryResult:
        session = self.session
        engine = session.engine
        pipeline = engine.pipeline
        parameterized = self._parameterized

        def run():
            if not pipeline.plan_cache.enabled:
                return pipeline.run_select(self.statement, params=params)
            compiled = pipeline.compile_parameterized(parameterized)
            ctx = compiled.plan.new_context(params)
            if parameterized.values:
                ctx.parameters.update(parameterized.bindings)
            return pipeline.run_compiled(compiled, ctx)
        return engine.read(session, run)

    # ------------------------------------------------------------------
    def explain(self) -> str:
        """EXPLAIN output for the prepared form (SELECT/XNF only)."""
        return self.session.explain(self.sql)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PreparedStatement({self.kind}, {self.sql!r})"
