"""Shared fixtures: small seeded databases used across the suite.

Each database fixture yields a session of a fresh engine and closes
the engine at teardown."""

from __future__ import annotations

from typing import Iterator

import pytest

from repro.api.engine import Engine
from repro.api.session import Session
from repro.storage.catalog import Catalog
from repro.storage.types import Column, INTEGER, VARCHAR
from repro.workloads.bom import BOMScale, create_bom_schema, populate_bom
from repro.workloads.oo1 import OO1Scale, create_oo1_schema, populate_oo1
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)


SMALL_ORG = OrgScale(departments=6, employees_per_dept=3,
                     projects_per_dept=2, skills=8, skills_per_employee=2,
                     skills_per_project=2, arc_fraction=0.34, seed=7)


@pytest.fixture
def org_db() -> Iterator[Session]:
    """The paper's Fig. 1 schema with a small seeded population."""
    with Engine() as engine:
        session = engine.connect()
        create_org_schema(engine.catalog)
        populate_org(engine.catalog, SMALL_ORG)
        session.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
        yield session


@pytest.fixture
def empty_org_db() -> Iterator[Session]:
    with Engine() as engine:
        create_org_schema(engine.catalog)
        yield engine.connect()


@pytest.fixture
def oo1_db() -> Iterator[Session]:
    with Engine() as engine:
        create_oo1_schema(engine.catalog)
        populate_oo1(engine.catalog, OO1Scale(parts=120, seed=3))
        yield engine.connect()


@pytest.fixture
def bom_db() -> Iterator[tuple[Session, dict]]:
    with Engine() as engine:
        create_bom_schema(engine.catalog)
        info = populate_bom(engine.catalog, BOMScale(roots=2, depth=3,
                                                     fanout=2, seed=5))
        yield engine.connect(), info


@pytest.fixture
def simple_db() -> Iterator[Session]:
    """Two tiny hand-filled tables for exact-result assertions."""
    with Engine() as engine:
        session = engine.connect()
        session.execute("CREATE TABLE DEPT (DNO INT PRIMARY KEY, "
                        "DNAME VARCHAR, LOC VARCHAR)")
        session.execute("CREATE TABLE EMP (ENO INT PRIMARY KEY, "
                        "ENAME VARCHAR, EDNO INT, SAL INT)")
        session.execute("INSERT INTO DEPT VALUES (1,'Tools','ARC'),"
                        "(2,'Apps','SF'),(3,'DB','ARC')")
        session.execute("INSERT INTO EMP VALUES (10,'ann',1,100),"
                        "(11,'bob',2,120),(12,'carl',1,90),"
                        "(13,'dee',3,200),(14,'eve',NULL,150)")
        yield session


@pytest.fixture
def bare_catalog() -> Catalog:
    return Catalog()


@pytest.fixture
def people_table(bare_catalog: Catalog):
    table = bare_catalog.create_table("PEOPLE", [
        Column("ID", INTEGER, primary_key=True),
        Column("NAME", VARCHAR),
        Column("AGE", INTEGER),
    ])
    return table
