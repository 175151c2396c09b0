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
texts, the materialized-view read-through and DML, whose UPDATE and
DELETE variants hit and bind like a SELECT's (checked against a twin
with the plan cache off).  The clock-free counts at the end check that
literal variants lex, parse, lift and compile once, and that texts
with a comment, a quoted identifier or non-ASCII lex every time.
``REPRO_DIFF_SEEDS=<n>`` widens the generated sweeps.
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

from repro.api import frontend
from repro.api.engine import Engine
from repro.api.session import Session
from repro.api.frontend import lift
from repro.errors import LexerError, ParseError
from repro.executor.dml import DMLExecutor
from repro.executor.plan_cache import ParameterizedStatement
from repro.executor.runtime import PipelineOptions, QueryPipeline
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


def uncached(db: Session) -> Session:
    """``db`` with the plan cache off: the literal-AST oracle."""
    db.engine.pipeline.plan_cache.capacity = 0
    return db


def front(db: Session, text: str):
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


def assert_variant_hits(db: Session, text: str, rng: random.Random):
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


def org_database() -> Session:
    db = Engine().connect()
    create_org_schema(db.engine.catalog)
    populate_org(db.engine.catalog, ORG)
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
def db() -> Session:
    db = Engine().connect()
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


def uncached_twin(db: Session) -> Session:
    twin = uncached(Engine().connect())
    twin.execute("CREATE TABLE T (A INT PRIMARY KEY, B VARCHAR, C INT)")
    for row in db.engine.catalog.table("T").rows():
        twin.engine.catalog.table("T").insert(row)
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


def table_rows(db: Session, name: str = "T") -> list:
    return sorted(db.engine.catalog.table(name).rows(), key=repr)


def assert_writes_agree(db: Session, twin: Session, texts,
                        params=None) -> list:
    """Run each write on ``db`` and on ``twin`` (plan cache off); the
    rowcounts and the table after every write must agree."""
    counts = []
    for text in texts:
        count = db.execute(text, params=params)
        assert count == twin.execute(text, params=params), text
        assert table_rows(db) == table_rows(twin), text
        counts.append(count)
    return counts


def test_dml_variants_hit_and_bind(db):
    twin = uncached_twin(db)
    text = "UPDATE T SET c = c + 1 WHERE a = 1"
    first, status = front(db, text)
    assert status == "miss" and first == full_path(text)
    assert isinstance(first.statement, ast.UpdateStatement)
    assert first.bindings == {0: 1, 1: 1}
    for variant, bindings in (
            ("update T  SET c = c + 1 /* x */ where a = 1", {0: 1, 1: 1}),
            ("UPDATE T SET c = c + 5 WHERE a = 2", {0: 5, 1: 2})):
        result, status = front(db, variant)
        assert status == "hit", variant
        assert result == full_path(variant)
        assert result.bindings == bindings
        assert result.statement is first.statement
        assert result.key is first.key
    delete = "DELETE FROM T WHERE c > 35 AND b LIKE 'x%'"
    assert front(db, delete)[0] == full_path(delete)
    result, status = front(db, delete.replace("35", "25"))
    assert status == "hit" and result.bindings == {0: 25}
    assert front(db, delete.replace("'x%'", "'y%'"))[1] == "miss"
    assert assert_writes_agree(db, twin, [
        "UPDATE T SET c = c + 1 WHERE a = 2",
        "UPDATE T SET c = c + 7 WHERE a = 3",
        "UPDATE T SET c = c + 7 WHERE a = 9",
        "UPDATE T SET b = 'z' WHERE c > 25",
        "UPDATE T SET b = 'w' WHERE c > 35",
        "DELETE FROM T WHERE c > 45 AND b LIKE 'w%'",
        "DELETE FROM T WHERE c > 35 AND b LIKE 'w%'",
        "DELETE FROM T WHERE a = 1",
    ]) == [1, 1, 0, 2, 2, 0, 2, 1]
    assert db.query("SELECT c FROM T WHERE a = 2").rows == [(21,)]


def test_dml_explicit_markers_mixed_with_literals(db):
    twin = uncached_twin(db)
    text = "UPDATE T SET c = c + 5 WHERE a > ? AND c < 35 AND b <> :skip"
    params = {0: 1, "skip": "y2"}
    front(db, text)
    variant = text.replace("5 W", "7 W").replace("35", "45")
    result, status = front(db, variant)
    assert status == "hit"
    assert result == full_path(variant)
    assert result.bindings == {1: 7, 2: 45}  # after the explicit ? at 0
    assert assert_writes_agree(db, twin, [text, variant],
                               params=params) == [1, 1]
    assert db.query("SELECT a, c FROM T WHERE a > 1 ORDER BY a").rows \
        == [(2, 20), (3, 42), (4, 40)]
    delete = "DELETE FROM T WHERE c < ? AND a > 2"
    front(db, delete)
    result, status = front(db, delete.replace("2", "3"))
    assert status == "hit" and result.bindings == {1: 3}
    assert assert_writes_agree(db, twin, [delete.replace("2", "3")],
                               params=[100]) == [1]


def test_dml_int_float_and_string_slots_differ(db):
    values = {"int": ("10", "3", 3), "float": ("10.0", "3.5", 3.5),
              "str": ("'10'", "'x'", "x")}
    shape = "UPDATE T SET b = {} WHERE a = {}"
    for set_kind, where_kind in itertools.product(values, repeat=2):
        text = shape.format(values[set_kind][0], values[where_kind][0])
        assert front(db, text)[1] == "miss", text
    for set_kind, where_kind in itertools.product(values, repeat=2):
        text = shape.format(values[set_kind][1], values[where_kind][1])
        result, status = front(db, text)
        assert status == "hit", text
        assert result == full_path(text)
        bound = (values[set_kind][2], values[where_kind][2])
        assert tuple(result.bindings.values()) == bound
        assert tuple(map(type, result.bindings.values())) \
            == tuple(map(type, bound))
    twin = uncached_twin(db)
    assert assert_writes_agree(db, twin, [
        "UPDATE T SET b = 'q' WHERE a = 2", "UPDATE T SET c = 7 WHERE a = 3",
        "UPDATE T SET c = 8 WHERE a = 4.0"]) == [1, 1, 1]


def test_plan_cache_off_parses_literal_asts(db):
    uncached(db)
    entries = len(db.engine.statements)
    for text in ("SELECT a FROM T WHERE a = 1",
                 "UPDATE T SET c = c + 1 WHERE a = 1"):
        assert db.engine.parse(text) == parser.parse_statement(text)
    assert len(db.engine.statements) == entries
    assert db.execute("UPDATE T SET c = c + 1 WHERE a = 1") == 1
    assert db.engine.pipeline.plan_cache.last_info.status == "bypass"


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
    enos = sorted(row[0] for row in db.engine.catalog.table("EMP").rows())
    for number in range(200):
        eno = enos[number % len(enos)]
        rows = cursor.execute(f"SELECT * FROM EMP WHERE eno = {eno}") \
            .fetchall()
        assert [row[0] for row in rows] == [eno]
    assert (stats.hits, stats.misses, len(parse_calls)) \
        == (before[0] + 199, before[1] + 1, before[2] + 1)


@pytest.fixture
def lex_calls(monkeypatch) -> list:
    """Texts the front end ran the skeleton lexer over."""
    calls = []
    original = frontend.skeleton

    def counting(text):
        calls.append(text)
        return original(text)
    monkeypatch.setattr(frontend, "skeleton", counting)
    return calls


def co_read_text(low: int, width: int) -> str:
    """A ``co_read`` extraction: DEPS_ARC over a range of departments."""
    return deps_query(f"WHERE dno BETWEEN {low} AND {low + width}")


def test_literal_variants_lex_once(lex_calls, parse_calls):
    """A literal variant of a text seen before finds its entry from
    the literal cut: 200 point SELECTs, 200 keyed UPDATEs and 50
    extractions each run the lexer once, on the first text."""
    engine = Engine()
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, ORG)
    session = engine.connect()
    cursor = session.cursor()
    enos = sorted(row[0] for row in engine.catalog.table("EMP").rows())
    rng = random.Random(33)
    stats = engine.statements.stats
    runs = (
        [lambda eno=eno: cursor.execute(
            f"SELECT * FROM EMP WHERE eno = {eno}").fetchall()
         for eno in rng.choices(enos, k=200)],
        [lambda eno=eno: session.execute(
            f"UPDATE EMP SET sal = sal + 1 WHERE eno = {eno}")
         for eno in rng.choices(enos, k=200)],
        [lambda low=low, width=width: session.xnf(co_read_text(low, width))
         for low, width in ((rng.randint(1, ORG.departments - 3),
                             rng.randint(1, 2)) for _ in range(50))],
    )
    for thunks in runs:
        lex_calls.clear()
        parse_calls.clear()
        hits = stats.hits
        outputs = [thunk() for thunk in thunks]
        assert (len(lex_calls), len(parse_calls)) == (1, 1)
        assert stats.hits == hits + len(thunks) - 1
        assert all(outputs)


@pytest.mark.parametrize("shape", [
    "SELECT a, b FROM T WHERE c >= {} -- a comment",
    "SELECT a, b FROM T /* a comment */ WHERE c >= {}",
    'SELECT a, "B" FROM T WHERE c >= {}',
    "SELECT a, b FROM T WHERE c >= {} AND b <> 'é'",
])
def test_texts_not_cut_lex_every_time_and_still_hit(db, lex_calls, shape):
    numbers = (5, 25, 35, 15)
    texts = [shape.format(number) for number in numbers]
    results = [front(db, text) for text in texts]
    assert len(lex_calls) == len(texts)
    assert [status for _result, status in results] \
        == ["miss", "hit", "hit", "hit"]
    for text, number, (result, _status) in zip(texts, numbers, results):
        assert result == full_path(text)
        assert result.bindings[0] == number
    twin = uncached_twin(db)
    for text in texts:
        assert multiset(db.query(text).rows) \
            == multiset(twin.query(text).rows)


def test_insert_repeat_hits_only_on_identical_literals(db, lex_calls,
                                                       parse_calls):
    text = "INSERT INTO T VALUES (5, 'q', 50)"
    statuses = [front(db, sql)[1] for sql in (
        text, text, "insert into T values (5, 'q', 50)",
        text.replace("50", "51"), text.replace("'q'", "'r'"))]
    assert statuses == ["miss", "hit", "hit", "miss", "miss"]
    # the keyword-case variant cuts differently: it is lexed once
    assert len(lex_calls) == 2
    assert len(parse_calls) == 3
    for sql in (text, text.replace("50", "51")):
        result = db.engine.parse(sql)
        assert result == parser.parse_statement(sql)
        assert isinstance(result, ast.InsertStatement)


@pytest.fixture
def write_counts(parse_calls, monkeypatch) -> dict:
    """Calls to the parser, the DML lifter, the qualification compile
    and the view translation."""
    counts = {"lift": 0, "compile": 0, "translate": 0}

    def counting(name, owner, attribute):
        original = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attribute, wrapper)
    counting("lift", frontend, "parameterize_dml")
    counting("compile", DMLExecutor, "_compile_qualification")
    from repro.viewupdate import executor as viewupdate_executor
    counting("translate", viewupdate_executor, "translate_assignments")
    counts["parse"] = parse_calls
    return counts


def wide_table(cached: bool = True) -> Session:
    """T with 4,000 rows: 200 single-row deletes stay under the
    statistics drift threshold."""
    db = Engine().connect() if cached else uncached(Engine().connect())
    db.execute("CREATE TABLE T (A INT PRIMARY KEY, B VARCHAR, C INT)")
    table = db.engine.catalog.table("T")
    for number in range(4000):
        table.insert((number, f"b{number}", number % 50))
    return db


@pytest.mark.parametrize("shape", [
    "UPDATE T SET c = c + 1 WHERE a = {}",
    "DELETE FROM T WHERE a = {}",
])
def test_dml_variants_parse_lift_and_compile_once(write_counts, shape):
    db, twin = wide_table(), wide_table(cached=False)
    texts = [shape.format(a) for a in
             random.Random(27).sample(range(4000), 200)]
    write_counts["parse"].clear()
    counts = [db.execute(text) for text in texts]
    assert (len(write_counts["parse"]), write_counts["lift"],
            write_counts["compile"]) == (1, 1, 1)
    assert counts == [1] * 200
    assert counts == [twin.execute(text) for text in texts]
    assert table_rows(db) == table_rows(twin)
    assert db.engine.statements.stats.hits == 199
    assert db.engine.pipeline.plan_cache.stats.invalidations == 0


def test_lens_variants_parse_lift_translate_and_compile_once(
        write_counts):
    def lens_database(cached: bool) -> Session:
        db = org_database() if cached else uncached(org_database())
        db.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
        return db
    db, twin = lens_database(True), lens_database(False)
    enos = sorted(eno for eno, in db.query(
        "SELECT eno FROM EMP, DEPT WHERE edno = dno AND loc = 'ARC'").rows)
    rng = random.Random(27)
    texts = [f"UPDATE deps_arc.XEMP SET sal = sal + {rng.randint(1, 9)} "
             f"WHERE eno = {rng.choice(enos)}" for _ in range(200)]
    for name in ("lift", "compile", "translate"):
        write_counts[name] = 0
    write_counts["parse"].clear()
    counts = [db.execute(text) for text in texts]
    assert (len(write_counts["parse"]), write_counts["lift"],
            write_counts["translate"], write_counts["compile"]) \
        == (1, 1, 1, 1)
    assert counts == [1] * 200
    assert counts == [twin.execute(text) for text in texts]
    assert table_rows(db, "EMP") == table_rows(twin, "EMP")


def test_join_view_variants_compile_qualification_once(monkeypatch):
    """UPDATEs through a key-preserved join view qualify through the
    view; literal variants read that plan through the plan cache, so
    it compiles once — with the rows of a twin whose plan cache is off
    (every statement compiled over its literal AST)."""
    def join_view_database(options=None) -> Session:
        db = Engine(options).connect()
        db.execute("CREATE TABLE DEPT (DNO INT PRIMARY KEY, BUDGET INT)")
        db.execute("CREATE TABLE EMP (ENO INT PRIMARY KEY, SAL INT, "
                   "DNO INT)")
        dept, emp = db.engine.catalog.table("DEPT"), db.engine.catalog.table("EMP")
        for dno in range(1, 21):
            dept.insert((dno, 100 * dno))
        for eno in range(1, 401):
            emp.insert((eno, 1000 + eno, 1 + eno % 20))
        db.execute("CREATE VIEW ED AS SELECT E.ENO, E.SAL, D.BUDGET "
                   "FROM EMP E, DEPT D WHERE E.DNO = D.DNO")
        return db
    db = join_view_database()
    twin = join_view_database(PipelineOptions(plan_cache_size=0))
    rng = random.Random(28)
    texts = [f"UPDATE ED SET sal = sal + {rng.randint(1, 9)} "
             f"WHERE eno = {rng.randint(1, 400)}" for _ in range(20)]
    compiles = []
    original = QueryPipeline.compile_graph

    def counting(self, graph):
        compiles.append(graph)
        return original(self, graph)
    monkeypatch.setattr(QueryPipeline, "compile_graph", counting)
    counts = [db.execute(text) for text in texts]
    assert len(compiles) == 1
    assert counts == [1] * 20
    assert counts == [twin.execute(text) for text in texts]
    assert table_rows(db, "EMP") == table_rows(twin, "EMP")
    assert db.engine.pipeline.plan_cache.stats.invalidations == 0
