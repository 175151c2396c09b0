"""repro — Composite-Object Views in a Relational DBMS.

A from-scratch Python reproduction of Pirahesh, Mitschang, Suedkamp and
Lindsay, "Composite-Object Views in Relational DBMS: An Implementation
Perspective" (Information Systems 19(1), 1994): the XNF language
extension (OUT OF ... RELATE ... TAKE), a Starburst-style relational
engine underneath (QGM, rule-based rewrite, cost-based planning,
pipelined execution), and the client-side composite-object cache with
cursors, a seamless object interface and write-back.

Quickstart::

    from repro import Engine
    session = Engine().connect()
    session.execute("CREATE TABLE DEPT (DNO INT PRIMARY KEY, LOC VARCHAR)")
    session.execute("CREATE TABLE EMP (ENO INT PRIMARY KEY, EDNO INT)")
    session.execute("INSERT INTO DEPT VALUES (1, 'ARC')")
    session.execute("INSERT INTO EMP VALUES (10, 1)")
    cache = session.open_cache('''
        OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
               xemp AS EMP,
               employment AS (RELATE xdept VIA EMPLOYS, xemp
                              WHERE xdept.dno = xemp.edno)
        TAKE *
    ''')
    for dept in cache.extent("xdept"):
        print(dept.dno, [e.eno for e in dept.children("employment")])
"""

from repro.api.cursor import Cursor
from repro.api.engine import Engine
from repro.api.gateway import ObjectGateway, ObjectView
from repro.api.session import Session
from repro.api.transport import TransportSimulator
from repro.cache.manager import XNFCache
from repro.errors import ReproError
from repro.executor.runtime import QueryResult
from repro.xnf.result import COResult

__version__ = "1.1.0"

__all__ = [
    "Engine", "Session", "Cursor",
    "ObjectGateway", "ObjectView", "TransportSimulator",
    "XNFCache", "ReproError", "QueryResult", "COResult",
    "__version__",
]
