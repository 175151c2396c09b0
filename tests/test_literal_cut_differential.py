"""Literal-cut differential: the statement front end's lexer-free hits
against a full parse.

The front end answers a literal variant of a text it has seen from
the text's literal cut (:func:`repro.sql.lexer.literal_cut`) without
running the lexer.  For every input text this suite warms a cache with
another text of the same cut (other literal values of the same kinds),
then checks that:

* the warmed cache's ``parse`` equals a fresh
  ``lift(parser.parse_statement(text))``: the same statement, the same
  bindings with their types, and the same plan-cache key, or the same
  error;
* a remembered cut maps to exactly what :func:`skeleton` gives the
  text: a text the lexer rejects, or whose cut does not match the
  lexer's literals, is never memoized.

Inputs: the lexer differential's corpus (generated statements, every
string constant of the tests and workloads, hypothesis strings over
the SQL alphabet) and named edge cases.  ``REPRO_DIFF_SEEDS=<n>`` adds
``n`` generator seeds.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.frontend import SkeletonCache, lift
from repro.errors import ReproError
from repro.executor.plan_cache import ParameterizedStatement
from repro.sql import parser
from repro.sql.lexer import literal_cut, skeleton
from tests.test_differential_sqlite import BASE_SEED, extra_seeds
from tests.test_lexer_differential import (generated_statements, pieces,
                                           source_strings)


def outcome(parse, text: str):
    """What ``parse`` makes of ``text``: the statement, its bindings
    with their types and its key, or the error."""
    try:
        result = parse(text)
    except Exception as error:  # the same error, whatever it is
        return "error", type(error), str(error)
    if isinstance(result, ParameterizedStatement):
        return ("lifted", result.statement,
                [(index, type(value), value)
                 for index, value in result.values],
                result.key)
    return "plain", result


def full_path(text: str):
    return lift(parser.parse_statement(text))


def variant(text: str, rng: random.Random) -> str:
    """``text`` with every literal of its cut given another value of
    the same kind: the same cut, other literals."""
    key, sources = literal_cut(text)
    parts = list(key)
    for position, source in zip(range(1, len(parts), 2), sources):
        if source[0] == "'":
            other = "'" + rng.choice(["", "x", "it''s", "7", "a b"]) + "'"
        elif "." in source:
            other = f"{rng.randint(0, 99)}.{rng.randint(0, 9)}"
        else:
            other = str(rng.randint(0, 999))
        parts[position] = other
    return "".join(parts)


def assert_memo_sound(cache: SkeletonCache, text: str) -> None:
    cut = literal_cut(text)
    if cut is None or cut[0] not in cache._cuts:
        return
    shape = skeleton(text)
    assert shape is not None, f"a text that does not lex was memoized: " \
                              f"{text!r}"
    key, literals = shape
    assert tuple(literals.values()) == cut[1], text
    assert cache._cuts[cut[0]] == (key, tuple(literals)), text


def assert_cut_hits_agree(text: str, rng: random.Random) -> bool:
    """Parse a variant of ``text``, then ``text``, then both again
    through one cache; each must agree with the full path.  True when
    the later parses were lexer-free hits that bound literals."""
    cache = SkeletonCache(8)
    if literal_cut(text) is None:
        for _ in range(2):
            assert outcome(cache.parse, text) == outcome(full_path, text)
        assert not cache._cuts, text
        return False
    other = variant(text, rng)
    if skeleton(text) is not None:
        # a text the lexer reads keeps its cut under other literals
        assert literal_cut(other)[0] == literal_cut(text)[0], text
    for probe in (other, text, other, text):
        assert outcome(cache.parse, probe) == outcome(full_path, probe), \
            (text, probe)
        assert_memo_sound(cache, probe)
    cut = literal_cut(text)
    return bool(cut[1]) and cut[0] in cache._cuts


def check_all(texts) -> int:
    """How many of ``texts`` bound literals on a lexer-free hit."""
    rng = random.Random(BASE_SEED)
    return sum(assert_cut_hits_agree(text, rng) for text in texts)


def test_generated_statements():
    texts = generated_statements([BASE_SEED] + extra_seeds())
    assert check_all(texts) >= len(texts) // 2


def test_source_strings():
    texts = source_strings()
    assert sum("OUT OF" in text for text in texts) >= 20
    assert check_all(texts) >= 500


@pytest.mark.parametrize("text", [
    # identifiers with digits; a '$' the lexer rejects
    "SELECT e1, a2b FROM T WHERE e1 = 1 AND x_9 > 2.5",
    "SELECT $0$SNO FROM T WHERE a = 1",
    "SELECT a FROM T WHERE $0$SNO = 'x'",
    # number forms
    "SELECT a FROM T WHERE a = 1.2.3",
    "SELECT a FROM T WHERE a = 1..2",
    "SELECT 1a FROM T",
    "SELECT a.5 FROM T",
    "SELECT a FROM T WHERE a IN (1,2.5,3)",
    # quotes next to literals
    "SELECT a FROM T WHERE b = 'a'''",
    "SELECT a FROM T WHERE b = 'x'1",
    "SELECT a FROM T WHERE b = ''''",
    # markers next to literals
    "SELECT a FROM T WHERE a = ?1",
    "SELECT a FROM T WHERE a = :1",
    "SELECT a FROM T WHERE a = :p1 AND c = ? AND b = 3",
    # unterminated strings
    "SELECT a FROM T WHERE b = 'oops",
    "SELECT a FROM T WHERE b = 'x' AND c = 'oops",
    # strings holding comment marks, quotes or digits
    "SELECT a FROM T WHERE b = '-- not a comment' AND c = 1",
    "SELECT a FROM T WHERE b = '/* x */' AND c = 1",
    "SELECT a FROM T WHERE b = 'say \"hi\"' AND c = 1",
    "SELECT a FROM T WHERE b = '12.5' AND c = 12.5",
    # keyword case
    "select a from T where a = 1 AND b = 'x'",
    "SeLeCt a FrOm T wHeRe a = 1",
    # non-ASCII digits and letters
    "SELECT a FROM T WHERE a = ٣",
    "SELECT a FROM T WHERE a = 1²",
    "SELECT é1 FROM T WHERE a = 2",
    # comments and quoted identifiers around literals
    "SELECT a FROM T WHERE a = 1 -- 2",
    "SELECT a FROM T /* 3 */ WHERE a = 1",
    'SELECT "1a" FROM T WHERE a = 1',
    # other statement kinds
    "INSERT INTO T VALUES (1, 'x', 2.5)",
    "UPDATE T SET c = c + 1 WHERE a = 7",
    "DELETE FROM T WHERE b LIKE 'x%' AND c > 3",
    "SELECT * FROM T ORDER BY 1 LIMIT 2 OFFSET 3",
    "CREATE TABLE P (A INT) PARTITION BY HASH(A) PARTITIONS 2",
    "SELECT a FROM T WHERE",
])
def test_edge_cases(text):
    assert_cut_hits_agree(text, random.Random(text))


@pytest.mark.parametrize("text", [
    "SELECT $0$SNO FROM T WHERE a = 1",
    "SELECT a FROM T WHERE b = 'oops",
    "SELECT a FROM T WHERE a = :1",
    "SELECT a FROM T WHERE a = #",
])
def test_texts_that_do_not_lex_are_never_memoized(text):
    cache = SkeletonCache(8)
    for _ in range(2):
        with pytest.raises(ReproError):
            cache.parse(text)
    assert not cache._cuts and not len(cache)


def test_cut_shares_the_lexers_literals():
    key, sources = literal_cut(
        "SELECT e1 FROM T WHERE a = 1.5 AND b = 'it''s' AND c = ?2")
    assert sources == ("1.5", "'it''s'", "2")
    assert key[1::2] == ("#float", "#str", "#int")
    assert literal_cut("SELECT a FROM T -- 1") is None
    assert literal_cut('SELECT "a" FROM T') is None
    assert literal_cut("SELECT a FROM T /* 1 */") is None
    assert literal_cut("SELECT é FROM T") is None


@given(st.lists(pieces, max_size=12).map("".join), st.randoms())
@settings(max_examples=400, deadline=None)
def test_hypothesis_strings(text, rng):
    assert_cut_hits_agree(text, rng)


#: Statement fragments for hypothesis texts that usually parse.
statement_pieces = st.sampled_from([
    "SELECT a FROM T WHERE a = ", "SELECT * FROM T WHERE b = ",
    "UPDATE T SET c = ", " WHERE a > ", " AND c < ", " OR b LIKE ",
    "DELETE FROM T WHERE a = ", " LIMIT ", "1", "22", "3.5", "'s'",
    "'it''s'", "''", "?", ":p", " ", "-", "(", ")", ",", "e1", "1a",
])


@given(st.lists(statement_pieces, min_size=1, max_size=10).map("".join),
       st.randoms())
@settings(max_examples=400, deadline=None)
def test_hypothesis_statements(text, rng):
    assert_cut_hits_agree(text, rng)


def test_threads_share_one_cache():
    """Threads parsing literal variants of two shapes through one
    cache, switching every microsecond: every result is the full
    path's, and no lookup is lost from the counters."""
    cache = SkeletonCache(8)
    shapes = ("SELECT * FROM EMP WHERE eno = {}",
              "UPDATE EMP SET sal = sal + {} WHERE ename = 'e{}'")
    failures = []

    def work(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(150):
            text = rng.choice(shapes).format(rng.randint(0, 99),
                                             rng.randint(0, 99))
            if outcome(cache.parse, text) != outcome(full_path, text):
                failures.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert cache.stats.hits + cache.stats.misses == 4 * 150
    assert len(cache._cuts) == 2
