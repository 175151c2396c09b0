"""An interactive SQL/XNF shell over the engine.

Type plain SQL, XNF queries (``OUT OF ... TAKE ...``), or the meta
commands below against an in-memory database pre-loaded with the
paper's organizational schema:

    \\d               list tables and views
    \\explain <stmt>  show QGM + plan for a SELECT or XNF query
    \\co <view|query> extract a CO view and print its streams
    \\q               quit

Run:  python examples/xnf_shell.py            (interactive)
      echo "SELECT * FROM DEPT" | python examples/xnf_shell.py
"""

import sys

from repro import Engine, Session
from repro.errors import ReproError
from repro.executor.runtime import QueryResult
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)
from repro.xnf.result import COResult


def print_result(result) -> None:
    if isinstance(result, QueryResult):
        print(" | ".join(result.columns))
        for row in result.rows[:50]:
            print(" | ".join(str(v) for v in row))
        if len(result.rows) > 50:
            print(f"... ({len(result.rows)} rows total)")
        else:
            print(f"({len(result.rows)} rows)")
    elif isinstance(result, COResult):
        print_co(result)
    elif result is not None:
        print(f"ok ({result} rows affected)")
    else:
        print("ok")


def print_co(co: COResult) -> None:
    for name, stream in co.components.items():
        print(f"component {name} ({len(stream)} tuples): "
              f"{stream.columns}")
        for row in stream.rows[:5]:
            print(f"   {row}")
        if len(stream) > 5:
            print("   ...")
    for name, stream in co.relationships.items():
        origin = " [reconstructed]" if stream.reconstructed else ""
        print(f"relationship {name} ({len(stream)} connections, "
              f"{stream.parent} -{stream.role}-> "
              f"{','.join(stream.children)}){origin}")


def make_database() -> Session:
    engine = Engine()
    session = engine.connect()
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, OrgScale(departments=6,
                                      employees_per_dept=4,
                                      projects_per_dept=2, skills=10,
                                      arc_fraction=0.34, seed=1))
    session.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
    return session


def handle_meta(session: Session, line: str) -> bool:
    """Returns False when the shell should exit."""
    if line in ("\\q", "\\quit", "exit"):
        return False
    if line == "\\d":
        for table in session.engine.catalog.tables():
            print(f"table {table.name} ({len(table)} rows): "
                  f"{', '.join(table.column_names)}")
        for view in session.engine.catalog.views():
            kind = "XNF view" if view.is_xnf else "view"
            print(f"{kind} {view.name}")
        return True
    if line.startswith("\\explain "):
        print(session.explain(line[len("\\explain "):]))
        return True
    if line.startswith("\\co "):
        print_co(session.xnf(line[len("\\co "):].strip()))
        return True
    print(f"unknown meta command: {line.split()[0]}")
    return True


def main() -> None:
    session = make_database()
    interactive = sys.stdin.isatty()
    if interactive:
        print(__doc__)
        print("pre-loaded: DEPT/EMP/PROJ/SKILLS (+ mapping tables) and "
              "the deps_arc XNF view\n")
    buffer: list[str] = []
    while True:
        try:
            prompt = "xnf> " if not buffer else "...> "
            line = input(prompt) if interactive else next(sys.stdin, None)
            if line is None:
                break
        except (EOFError, KeyboardInterrupt):
            break
        line = line.strip()
        if not line:
            continue
        if line.startswith("\\") or line == "exit":
            if not handle_meta(session, line):
                break
            continue
        buffer.append(line)
        # Interactively, statements span lines until a semicolon; piped
        # input is one statement per line.
        if interactive and not line.endswith(";"):
            continue
        statement = " ".join(buffer).rstrip(";")
        buffer = []
        try:
            print_result(session.execute(statement))
        except ReproError as exc:
            print(f"error: {exc}")


if __name__ == "__main__":
    main()
