"""Skeleton-hit == full-parse differential for the statement front end.

``Engine.parse`` keys its cache on the token stream with every literal
masked to a typed slot.  A hit hands back the already-lifted statement
plus bindings read straight from the text's literal tokens.  For every
generated SELECT and XNF shape this suite runs two literal variants
and checks that:

* the second is a hit (when only literals the lifter lifts changed);
* its ``(statement, bindings)`` equal what the full path gives:
  ``parameterize_*(parse_statement(text))``;
* its rows / composite object equal a run with the plan cache off,
  whose compilation sees the literal AST.

Named cases pin the slot rules: literals the lifter keeps inline, slot
types, keyword case and layout, explicit markers, unary minus, error
texts, the materialized-view read-through and DML.  The clock-free
counts at the end check that literal variants parse once.
``REPRO_DIFF_SEEDS=<n>`` widens the generated sweeps.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.api.database import Database
from repro.api.engine import Engine
from repro.api.frontend import lift
from repro.errors import LexerError, ParseError
from repro.executor.plan_cache import ParameterizedStatement
from repro.sql import ast, parser
from repro.sql.lexer import TokenType, tokenize
from repro.workloads.orgdb import (DEPS_ARC_QUERY, create_org_schema,
                                   populate_org)
from tests.test_differential_sqlite import (BASE_SEED, BOM_CHAINS,
                                            BOM_JOINS, BOM_TABLES,
                                            ORG_CHAINS, ORG_JOINS,
                                            ORG_TABLES, SelectGenerator,
                                            build_bom_database,
                                            build_org_database, multiset)
from tests.test_xnf_plan_cache import ORG, co_signature, deps_query

QUERIES_PER_SEED = 30


def _seeds() -> list[int]:
    extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [BASE_SEED] + [BASE_SEED + i + 1 for i in range(extra)]


def uncached(db: Database) -> Database:
    """``db`` with the plan cache off: the literal-AST oracle."""
    db.pipeline.plan_cache.capacity = 0
    return db


def front(db: Database, text: str):
    """``(front-end result, 'hit' | 'miss')`` for ``text``."""
    stats = db.engine.statements.stats
    hits = stats.hits
    result = db.engine.parse(text)
    return result, "hit" if stats.hits > hits else "miss"


def full_path(text: str):
    return lift(parser.parse_statement(text))


def literal_sources(text: str) -> dict[int, tuple[int, str]]:
    """Token index -> ``(position, source text)`` of each NUMBER /
    STRING token."""
    out = {}
    for index, token in enumerate(tokenize(text)):
        if token.type is TokenType.NUMBER:
            out[index] = (token.position, token.value)
        elif token.type is TokenType.STRING:
            out[index] = (token.position,
                          "'" + token.value.replace("'", "''") + "'")
    return out


def with_literals(text: str, slots, rng: random.Random) -> str:
    """``text`` with the literals of the tokens at ``slots`` given other
    values of the same slot type (an int stays an int, a float a float,
    a string a string)."""
    pieces, end = [], 0
    for slot, (position, source) in literal_sources(text).items():
        if slot not in slots:
            continue
        if source.startswith("'"):
            other = "'" + source[1:-1] + rng.choice("xyz") + "'"
        elif "." in source:
            other = f"{int(float(source)) + rng.randint(1, 9)}.5"
        else:
            other = str(int(source) + rng.randint(1, 9))
        pieces += [text[end:position], other]
        end = position + len(source)
    return "".join(pieces) + text[end:]


def lifted_slots(text: str) -> set[int]:
    result = full_path(text)
    return {slot for slot, _index in getattr(result, "slots", ())}


def assert_variant_hits(db: Database, text: str, rng: random.Random):
    """Prime ``text``, then return a variant with its lifted literals
    changed, after checking that it hits and equals the full path."""
    first, _status = front(db, text)
    assert first == full_path(text)
    variant = with_literals(text, lifted_slots(text), rng)
    result, status = front(db, variant)
    assert status == "hit", f"variant missed:\n{text}\n{variant}"
    assert result == full_path(variant), variant
    if isinstance(result, ParameterizedStatement):
        assert result.statement is first.statement
    return variant


# ----------------------------------------------------------------------
# Generated shapes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def org_pair():
    return build_org_database(), uncached(build_org_database())


@pytest.fixture(scope="module")
def bom_pair():
    return build_bom_database(), uncached(build_bom_database())


def run_select_sweep(pair, tables, joins, chains, seed: int) -> None:
    cached, oracle = pair
    generator = SelectGenerator(cached, tables, joins, chains, seed)
    rng = random.Random(seed)
    for _ in range(QUERIES_PER_SEED):
        text, _ordered = generator.generate()
        variant = assert_variant_hits(cached, text, rng)
        assert multiset(cached.query(variant).rows) \
            == multiset(oracle.query(variant).rows), variant


@pytest.mark.parametrize("seed", _seeds())
def test_org_select_variants(org_pair, seed):
    run_select_sweep(org_pair, ORG_TABLES, ORG_JOINS, ORG_CHAINS, seed)


@pytest.mark.parametrize("seed", _seeds())
def test_bom_select_variants(bom_pair, seed):
    run_select_sweep(bom_pair, BOM_TABLES, BOM_JOINS, BOM_CHAINS, seed)


def org_database() -> Database:
    db = Database()
    create_org_schema(db.catalog)
    populate_org(db.catalog, ORG)
    return db


@pytest.mark.parametrize("seed", _seeds())
def test_xnf_variants(seed):
    cached, oracle = org_database(), uncached(org_database())
    generator = SelectGenerator(cached, ORG_TABLES, ORG_JOINS, ORG_CHAINS,
                                seed)
    rng = random.Random(seed)
    for _ in range(QUERIES_PER_SEED // 3):
        extra = generator.predicate("xemp", "EMP") \
            if rng.random() < 0.5 else ""
        text = deps_query(f"WHERE {generator.where([('DEPT', 'DEPT')])}",
                          extra)
        variant = assert_variant_hits(cached, text, rng)
        assert co_signature(cached.xnf(variant)) \
            == co_signature(oracle.xnf(variant)), variant


# ----------------------------------------------------------------------
# Named cases
# ----------------------------------------------------------------------
@pytest.fixture
def db() -> Database:
    db = Database()
    db.execute("CREATE TABLE T (A INT PRIMARY KEY, B VARCHAR, C INT)")
    db.execute("INSERT INTO T VALUES (1, 'x1', 10), (2, 'y2', 20), "
               "(3, 'x3', 30), (4, NULL, 40)")
    return db


@pytest.mark.parametrize("first, second", [
    ("SELECT * FROM T WHERE b LIKE 'x%' AND a > 0",
     "SELECT * FROM T WHERE b LIKE 'y%' AND a > 0"),
    ("SELECT * FROM T ORDER BY a LIMIT 2", "SELECT * FROM T ORDER BY a "
                                           "LIMIT 3"),
    ("SELECT * FROM T ORDER BY a LIMIT 2 OFFSET 1",
     "SELECT * FROM T ORDER BY a LIMIT 2 OFFSET 2"),
    ("SELECT a, c FROM T ORDER BY 1", "SELECT a, c FROM T ORDER BY 2"),
    ("SELECT b, COUNT(*) + 1 FROM T GROUP BY b",
     "SELECT b, COUNT(*) + 2 FROM T GROUP BY b"),
    ("SELECT b, COUNT(*) FROM T GROUP BY b HAVING COUNT(*) > 0",
     "SELECT b, COUNT(*) FROM T GROUP BY b HAVING COUNT(*) > 1"),
])
def test_inline_literal_change_is_a_miss(db, first, second):
    assert front(db, first)[0] == full_path(first)
    result, status = front(db, second)
    assert status == "miss"
    assert result == full_path(second)
    assert multiset(db.query(second).rows) \
        == multiset(uncached_twin(db).query(second).rows)


def uncached_twin(db: Database) -> Database:
    twin = uncached(Database())
    twin.execute("CREATE TABLE T (A INT PRIMARY KEY, B VARCHAR, C INT)")
    for row in db.catalog.table("T").rows():
        twin.catalog.table("T").insert(row)
    return twin


def test_inline_literal_unchanged_still_hits(db):
    front(db, "SELECT * FROM T WHERE b LIKE 'x%' AND a > 0 LIMIT 5")
    result, status = front(
        db, "SELECT * FROM T WHERE b LIKE 'x%' AND a > 2 LIMIT 5")
    assert status == "hit"
    assert result.bindings == {0: 2}
    assert db.query("SELECT * FROM T WHERE b LIKE 'x%' AND a > 2 "
                    "LIMIT 5").rows == [(3, "x3", 30)]


def test_int_float_and_string_slots_differ(db):
    texts = ["SELECT * FROM T WHERE a = 10", "SELECT * FROM T WHERE a = 10.0",
             "SELECT * FROM T WHERE a = '10'"]
    for text in texts:
        assert front(db, text)[1] == "miss"
    for text, value in (("SELECT * FROM T WHERE a = 3", 3),
                        ("SELECT * FROM T WHERE a = 3.5", 3.5),
                        ("SELECT * FROM T WHERE a = 'x'", "x")):
        result, status = front(db, text)
        assert status == "hit"
        assert result.bindings == {0: value}
        assert type(result.bindings[0]) is type(value)
        assert result == full_path(text)


def test_keyword_case_layout_and_comments_change_nothing(db):
    front(db, "SELECT a, b FROM T WHERE c >= 20 AND b <> 'q'")
    text = ("select a,b\n  from T /* block */ where\tc >= 30 -- line\n"
            "   AnD b <> 'z'")
    result, status = front(db, text)
    assert status == "hit"
    assert result == full_path(text)
    assert db.query(text).rows == [(3, "x3")]


def test_identifier_case_is_part_of_the_key(db):
    front(db, "SELECT a FROM T WHERE a = 1")
    assert front(db, "SELECT A FROM T WHERE a = 2")[1] == "miss"


def test_explicit_markers_mixed_with_literals(db):
    text = "SELECT a FROM T WHERE a > ? AND c < 35 AND b <> :skip"
    params = {0: 1, "skip": "y2"}
    front(db, text)
    variant = text.replace("35", "45")
    result, status = front(db, variant)
    assert status == "hit"
    assert result == full_path(variant)
    assert result.bindings == {1: 45}  # after the explicit ? at 0
    assert db.query(variant, params=params).rows == \
        uncached_twin(db).query(variant, params=params).rows == [(3,)]


def test_unary_minus(db):
    front(db, "SELECT a FROM T WHERE c > -5 AND a - -1 > 2")
    text = "SELECT a FROM T WHERE c > -25 AND a - -1 > 3"
    result, status = front(db, text)
    assert status == "hit"
    assert result == full_path(text)
    assert result.bindings == {0: 25, 1: 1, 2: 3}
    assert db.query(text).rows == [(3,), (4,)]


@pytest.mark.parametrize("text", [
    "SELECT 'oops FROM T",            # lexer: unterminated string
    "SELECT a FROM T WHERE a = #",    # lexer: stray character
    "SELECT a FROM T WHERE",          # parser: missing predicate
    "SELECT a FROM T LIMIT 1.5",      # parser: LIMIT takes an integer
    "CREATE TABLE P (A INT) PARTITION BY HASH(A) PARTITIONS 0",
])
def test_error_texts_raise_identically_and_are_not_cached(db, text):
    # A valid text of the same skeleton is cached first where one
    # exists, so the failing variant really meets a cached entry.
    for valid in ("SELECT a FROM T LIMIT 1",
                  "CREATE TABLE P (A INT) PARTITION BY HASH(A) "
                  "PARTITIONS 2"):
        db.engine.parse(valid)
    with pytest.raises((LexerError, ParseError)) as expected:
        parser.parse_statement(text)
    stores = db.engine.statements.stats.stores
    for _ in range(2):
        with pytest.raises(type(expected.value)) as raised:
            db.engine.parse(text)
        assert str(raised.value) == str(expected.value)
    assert db.engine.statements.stats.stores == stores


def test_matview_read_through_only_on_the_definitions_literals():
    cached = org_database()
    cached.execute("CREATE MATERIALIZED VIEW deps_m REFRESH EAGER AS "
                   f"{DEPS_ARC_QUERY}")
    view = cached.engine.matviews.get("deps_m")
    oracle = uncached(org_database())
    variant = DEPS_ARC_QUERY.replace("'ARC'", "'SJ'")
    reads = view.stats["reads"]
    # The variant primes the shape: the definition's text is then a hit.
    for text, served in ((variant, False), (DEPS_ARC_QUERY, True),
                         (DEPS_ARC_QUERY.replace("'ARC'", "'NY'"), False)):
        result = cached.xnf(text)
        assert (view.stats["reads"] > reads) == served, text
        reads = view.stats["reads"]
        assert co_signature(result) == co_signature(oracle.xnf(text))
    assert cached.engine.statements.stats.hits == 2


def test_dml_hits_only_on_identical_literals(db):
    text = "UPDATE T SET c = c + 1 WHERE a = 1"
    first, _status = front(db, text)
    assert isinstance(first, ast.UpdateStatement)
    same, status = front(db, "update T  SET c = c + 1 /* x */ where a = 1")
    assert status == "hit" and same is first
    other, status = front(db, "UPDATE T SET c = c + 1 WHERE a = 2")
    assert status == "miss"
    assert other == parser.parse_statement(
        "UPDATE T SET c = c + 1 WHERE a = 2")
    assert db.execute("UPDATE T SET c = c + 1 WHERE a = 2") == 1
    assert db.query("SELECT c FROM T WHERE a = 2").rows == [(21,)]


def test_plan_cache_off_parses_literal_asts(db):
    uncached(db)
    entries = len(db.engine.statements)
    text = "SELECT a FROM T WHERE a = 1"
    assert db.engine.parse(text) == parser.parse_statement(text)
    assert len(db.engine.statements) == entries


# ----------------------------------------------------------------------
# Clock-free counts
# ----------------------------------------------------------------------
@pytest.fixture
def parse_calls(monkeypatch) -> list:
    calls = []
    original = parser.parse_statement

    def counting(text):
        calls.append(text)
        return original(text)
    monkeypatch.setattr(parser, "parse_statement", counting)
    return calls


def test_co_read_extractions_parse_once(parse_calls):
    engine = Engine()
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, ORG)
    session = engine.connect()
    stats = engine.statements.stats
    before = (stats.hits, stats.misses, len(parse_calls))
    rng = random.Random(25)
    for _ in range(200):
        low = rng.randint(1, ORG.departments - 2)
        session.xnf(deps_query(
            f"WHERE dno BETWEEN {low} AND {low + rng.randint(1, 2)}"))
    assert (stats.hits, stats.misses, len(parse_calls)) \
        == (before[0] + 199, before[1] + 1, before[2] + 1)


def test_cursor_point_selects_parse_once(parse_calls):
    db = org_database()
    cursor = db.engine.connect().cursor()
    stats = db.engine.statements.stats
    before = (stats.hits, stats.misses, len(parse_calls))
    enos = sorted(row[0] for row in db.catalog.table("EMP").rows())
    for number in range(200):
        eno = enos[number % len(enos)]
        rows = cursor.execute(f"SELECT * FROM EMP WHERE eno = {eno}") \
            .fetchall()
        assert [row[0] for row in rows] == [eno]
    assert (stats.hits, stats.misses, len(parse_calls)) \
        == (before[0] + 199, before[1] + 1, before[2] + 1)
