"""Shared benchmark fixtures and reporting helpers.

Every benchmark prints a paper-vs-measured table (captured into
bench_output.txt by the EXPERIMENTS harness) and asserts the *shape* of
the paper's result — who wins and by roughly what factor — rather than
absolute numbers, per DESIGN.md §4.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)

BENCH_ORG = OrgScale(departments=30, employees_per_dept=10,
                     projects_per_dept=5, skills=50,
                     skills_per_employee=3, skills_per_project=3,
                     arc_fraction=0.2, seed=1994)


def make_org_db(scale: OrgScale = BENCH_ORG,
                with_indexes: bool = True) -> Session:
    """A session of a fresh engine holding the org database."""
    session = Engine().connect()
    create_org_schema(session.engine.catalog, with_indexes=with_indexes)
    populate_org(session.engine.catalog, scale)
    session.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
    return session


@pytest.fixture(scope="module")
def bench_org_db() -> Iterator[Session]:
    session = make_org_db()
    yield session
    session.engine.close()


def write_results(path: Path, results: dict) -> None:
    """Write a benchmark's ``BENCH_*.json`` — only when
    ``REPRO_BENCH_WRITE=1``.

    A plain test run therefore leaves the checkout untouched; the CI
    benchmark jobs that upload the files as artifacts set the variable.
    The files are gitignored: measured timings are machine-specific.
    """
    if os.environ.get("REPRO_BENCH_WRITE") != "1" or not results:
        return
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nresults written to {path}")


def print_table(title: str, headers: list[str],
                rows: list[list]) -> None:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)] if rows else \
        [len(str(h)) for h in headers]
    line = " | ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-+-".join("-" * w for w in widths))
    for row in rows:
        print(" | ".join(str(v).ljust(w) for v, w in zip(row, widths)))
