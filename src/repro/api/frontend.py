"""The statement front end: SQL text in, a statement ready to compile out.

CORONA breaks an incoming query into tokens and parses it (Sect. 3.1);
the auto-parameterizing plan cache then lifts its literals so every
literal variant of one shape shares a compiled plan.  Ad-hoc texts of
one shape differ only in their literals, so the front end caches the
*lifted* result, keyed on the token stream with every literal masked
(:func:`repro.sql.lexer.skeleton`).  A hit reads the bindings straight
from the text's literal tokens and skips the parser and the lifter.

A cached entry records, for each literal slot of the text (a literal
token, named by its index in the token stream), what the lifter did
with it:

* a lifted literal names the synthetic parameter it became; a hit
  binds that parameter to the text's literal at the slot;
* a literal the lifter keeps inline (LIKE patterns, LIMIT / OFFSET,
  ORDER BY / GROUP BY ordinals, the head and HAVING of a grouped
  block) keeps its exact source text; a hit needs the same text there.

UPDATE and DELETE are lifted too, in SET and WHERE, with the rules of
a SELECT's WHERE: a literal variant of a cached write is a hit that
rebinds its literals, and the lifted statement carries its
qualification-plan key, hashed once per shape
(:func:`~repro.executor.plan_cache.parameterize_dml`).  The write path
takes UPDATE / DELETE in that one form (:func:`write_form`).

Statement kinds the plan cache does not lift (INSERT, DDL) keep every
literal inline, so they hit only on a text equal to the cached one up
to whitespace, comments and keyword case, and they come back as the
plain parsed AST.  A text that does not lex or parse is never cached:
it goes to the parser, which raises.

Finding the skeleton runs the lexer over the whole text.  A hit skips
it: a memo maps the text's *literal cut*
(:func:`repro.sql.lexer.literal_cut`, one ``re.split`` at the string
and number literals) to the skeleton and the token index of each
literal, so a literal variant of a text seen before finds its entry
from the cut alone and binds the same way.  A cut is stored only after
the lexer, on that same text, found exactly the cut's literals, in
order; a text that does not lex is never stored.  Texts with a quoted
identifier or a comment (``"``, ``--``, ``/*``) or a non-ASCII
character are not cut and take the lexer every time.  The memo shares
the cache's bound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Union

from repro.executor.plan_cache import (CacheStats, HashedKey,
                                       ParameterizedStatement,
                                       parameterize_dml, parameterize_select,
                                       parameterize_xnf)
from repro.sql import ast, parser
from repro.sql.lexer import literal_cut, literal_value, skeleton

#: What the front end hands on: a lifted SELECT / XNF query / UPDATE /
#: DELETE with its bindings, or the parsed AST of any other statement.
FrontEndStatement = Union[ParameterizedStatement, ast.Statement]


def statement_of(front: FrontEndStatement) -> ast.Statement:
    """The AST of a front-end result (the lifted one when lifted)."""
    if isinstance(front, ParameterizedStatement):
        return front.statement
    return front


def _bind(cached: FrontEndStatement,
          literals: dict[int, str]) -> FrontEndStatement:
    """``cached`` with the bindings of another text of its skeleton:
    each lifted parameter takes the literal at its token."""
    if not isinstance(cached, ParameterizedStatement):
        return cached
    values = tuple((index, literal_value(literals[slot]))
                   for slot, index in cached.slots)
    return ParameterizedStatement(cached.statement, values, cached.slots,
                                  cached.key)


def lift(statement: ast.Statement) -> FrontEndStatement:
    """``statement`` as the plan cache keys it: SELECT and XNF queries,
    UPDATE and DELETE with their literals lifted, any other kind
    unchanged."""
    if isinstance(statement, ast.SelectStatement):
        return parameterize_select(statement)
    if isinstance(statement, ast.XNFQuery):
        return parameterize_xnf(statement)
    if isinstance(statement, (ast.UpdateStatement, ast.DeleteStatement)):
        return parameterize_dml(statement)
    return statement


def write_form(statement: FrontEndStatement,
               lifting: bool) -> ParameterizedStatement:
    """An UPDATE / DELETE in the one form the write path takes.

    A statement the front end lifted is taken as it is.  A parsed AST
    (a script, a caller's own AST) is lifted when ``lifting`` (the plan
    cache is on); otherwise it is wrapped with no bindings, so its
    qualification compiles over the literal AST.
    """
    if isinstance(statement, ParameterizedStatement):
        return statement
    if lifting:
        return parameterize_dml(statement)
    return ParameterizedStatement(statement, key=HashedKey(statement))


class SkeletonCache:
    """A bounded LRU of statement skeletons -> front-end results.

    One instance per engine, shared (under a lock) by every session.
    ``capacity`` bounds the entries, and apart from them the remembered
    literal cuts; ``capacity <= 0`` disables the cache, and then
    :meth:`parse` neither caches nor lifts, so compilation sees the
    literal AST.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.stats = CacheStats()
        #: Skeleton -> the slots the lifter keeps inline.
        self._inline: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: (skeleton, inline literal texts) -> the front-end result of
        #: the text that stored it.
        self._entries: "OrderedDict[tuple, FrontEndStatement]" = \
            OrderedDict()
        #: Literal cuts (:func:`~repro.sql.lexer.literal_cut`) ->
        #: (skeleton, literal slots): a text whose cut is known skips
        #: the lexer.  A cut is stored only from a text whose skeleton
        #: found exactly the cut's literals.
        self._cuts: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def parse(self, sql: str) -> FrontEndStatement:
        if self.capacity <= 0:
            return parser.parse_statement(sql)
        cut = literal_cut(sql)
        known = None
        if cut is not None:
            with self._lock:
                known = self._cuts.get(cut[0])
                if known is not None:
                    self._cuts.move_to_end(cut[0])
                    shape = known[0], dict(zip(known[1], cut[1]))
                    entry = self._lookup(shape)
        if known is None:
            shape = skeleton(sql)
            with self._lock:
                entry = self._lookup(shape)
            if entry is not None:
                self._remember(cut, shape)
        if entry is not None:
            try:
                return _bind(entry, shape[1])
            except ValueError:
                pass  # a number only the lexer reads: the parser says where
        front = lift(parser.parse_statement(sql))
        if shape is not None and self._store(*shape, front) \
                and known is None:
            self._remember(cut, shape)
        return front

    def _lookup(self, shape: Optional[tuple]
                ) -> Optional[FrontEndStatement]:
        """The cached result for a ``(skeleton, literals)`` shape, or
        None (a miss); keeps LRU order and ``stats``.  Call with the
        lock held."""
        entry = None
        if shape is not None:
            key, literals = shape
            inline = self._inline.get(key)
            if inline is not None:
                full = (key, tuple(literals[slot] for slot in inline))
                entry = self._entries.get(full)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(full)
        self._inline.move_to_end(key)
        self.stats.hits += 1
        return entry

    def _remember(self, cut: Optional[tuple], shape: tuple) -> None:
        """Map ``cut`` to the skeleton and literal slots of ``shape``,
        when the lexer found exactly the cut's literals."""
        key, literals = shape
        if cut is None or tuple(literals.values()) != cut[1]:
            return
        with self._lock:
            self._cuts[cut[0]] = (key, tuple(literals))
            self._cuts.move_to_end(cut[0])
            while len(self._cuts) > self.capacity:
                self._cuts.popitem(last=False)

    def _store(self, key: tuple, literals: dict[int, str],
               front: FrontEndStatement) -> bool:
        """Cache ``front``; False when the text's literals do not
        account for its parameters (nothing is cached)."""
        params = front.slots \
            if isinstance(front, ParameterizedStatement) else ()
        if any(slot is None for slot, _index in params):
            return False  # a lifted literal no token accounts for
        taken = {slot for slot, _index in params}
        inline = tuple(slot for slot in literals if slot not in taken)
        full = (key, tuple(literals[slot] for slot in inline))
        with self._lock:
            self._inline[key] = inline
            self._inline.move_to_end(key)
            self._entries[full] = front
            self._entries.move_to_end(full)
            self.stats.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            while len(self._inline) > self.capacity:
                self._inline.popitem(last=False)
        return True
