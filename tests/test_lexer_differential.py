"""Token-stream differential: the master-pattern lexer against the
character-loop lexer it replaced (``tests/_reference_lexer.py``).

Every input must give either equal token lists (type, value, position,
line and column) or a ``LexerError`` with the same message, position,
line and column on both sides.  Inputs:

* every statement the SQLite differential generator produces for its
  fixed seed (``REPRO_DIFF_SEEDS=<n>`` adds ``n`` seeds);
* every string constant of the test suite and the workload modules,
  which covers the XNF test texts;
* hypothesis strings over the SQL alphabet plus non-ASCII letters and
  digits (``str.isalpha`` / ``str.isdigit`` characters outside ASCII,
  where a regular expression's classes differ from the string methods).
"""

from __future__ import annotations

import ast as pyast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexerError
from repro.sql.lexer import tokenize
from tests._reference_lexer import reference_tokenize
from tests.test_differential_sqlite import (BASE_SEED, BOM_CHAINS,
                                            BOM_JOINS, BOM_TABLES,
                                            ORG_CHAINS, ORG_JOINS,
                                            ORG_TABLES, QUERIES_PER_SEED,
                                            SelectGenerator,
                                            build_bom_database,
                                            build_org_database,
                                            extra_seeds)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def outcome(lex, text: str):
    try:
        return "tokens", lex(text)
    except LexerError as error:
        return "error", str(error), error.position, error.line, error.column


def assert_same_tokens(text: str) -> None:
    assert outcome(tokenize, text) == outcome(reference_tokenize, text), \
        f"lexers disagree on {text!r}"


def generated_statements(seeds: list[int]) -> list[str]:
    texts = []
    for build, tables, joins, chains in (
            (build_org_database, ORG_TABLES, ORG_JOINS, ORG_CHAINS),
            (build_bom_database, BOM_TABLES, BOM_JOINS, BOM_CHAINS)):
        db = build()
        for seed in seeds:
            generator = SelectGenerator(db, tables, joins, chains, seed)
            texts.extend(generator.generate()[0]
                         for _ in range(QUERIES_PER_SEED))
    return texts


def source_strings() -> list[str]:
    """Every string constant of the tests and the workload modules."""
    files = sorted((ROOT / "tests").glob("*.py")) \
        + sorted((ROOT / "src" / "repro" / "workloads").glob("*.py"))
    texts = set()
    for path in files:
        for node in pyast.walk(pyast.parse(path.read_text())):
            if isinstance(node, pyast.Constant) \
                    and isinstance(node.value, str):
                texts.add(node.value)
    return sorted(texts)


def test_generated_statements():
    texts = generated_statements([BASE_SEED] + extra_seeds())
    assert len(texts) >= 2 * QUERIES_PER_SEED
    for text in texts:
        assert_same_tokens(text)


def test_source_strings():
    texts = source_strings()
    assert sum("OUT OF" in text for text in texts) >= 20
    for text in texts:
        assert_same_tokens(text)


@pytest.mark.parametrize("text", [
    "", " \n ", "a\n  b", "x -- c", "a /* oops", "/*/ */ x", "'it''s'",
    "'oops", "'a''", "'a'''", '"Mixed Case"', '"oops', ":1", ": x",
    ":name?", "1.2.3", "1.x", "a<=b<>c!=d||e", "!", "|", "#", "ok @",
    "é1 ß_ Ω", "٣.٤", "²", "1²", ":²", "½", "x½", "ſelect",
    "SELECT 'a\nb' ,\n\n  \"c\nd\" FROM t",
])
def test_edge_cases(text):
    assert_same_tokens(text)


#: The characters the hypothesis strings are drawn from.
ALPHABET = (
    "abcxyzABCXYZ_0123456789 \t\r\n'\"?:;.,()<>=!|+-*/#@$%{}[]~\\"
    "éßΩжあ٣४²³½Ⅻ  "
)

pieces = st.one_of(
    st.text(alphabet=ALPHABET, max_size=4),
    st.sampled_from(["SELECT", "from", "Out Of", "--", "/*", "*/", "''",
                     "<>", "||", ":p", "?", "1.5", "'s'", '"q"']),
)


@given(st.lists(pieces, max_size=12).map("".join))
@settings(max_examples=400, deadline=None)
def test_hypothesis_strings(text):
    assert_same_tokens(text)
