"""SQL data types and value handling.

The engine supports the types the paper's examples exercise: integers,
floating point numbers, fixed/variable character strings, and booleans.
SQL NULL is represented by Python ``None`` and compared with three-valued
logic in :mod:`repro.executor.expressions`; this module only deals with
static typing and value admission.

A table admits its rows through one generated *admission kernel*
(:func:`compile_admission`): a row whose every value is already in the
form :meth:`Column.validate` would return unchanged passes with one type
test per value; any other row goes whole to :func:`validate_row`, the
one definition of every coercion and error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro.errors import TypeCheckError


class DataType:
    """Base class for SQL data types.

    Types are value objects: two instances are equal when they denote the
    same SQL type (including parameters such as VARCHAR length).
    """

    name = "UNKNOWN"

    def validate(self, value: Any) -> Any:
        """Return ``value`` coerced to this type, or raise TypeCheckError.

        ``None`` (SQL NULL) is admitted by every type; nullability is a
        column property enforced by the table, not the type.
        """
        if value is None:
            return None
        return self._coerce(value)

    def _coerce(self, value: Any) -> Any:
        raise NotImplementedError

    def admit_test(self, name: str) -> str:
        """Source of a test on the local ``name`` that holds only when
        :meth:`validate` would return that (non-NULL) value unchanged:
        the admission kernel's fast path.  A type that does not say
        never passes it: its values always go through :meth:`validate`."""
        return "False"

    def is_comparable_with(self, other: "DataType") -> bool:
        """True when values of the two types may be compared with =, <, etc."""
        return self.family() == other.family()

    def family(self) -> str:
        """The comparison family: 'numeric', 'string', or 'boolean'."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))

    def __repr__(self) -> str:
        return self.name


class IntegerType(DataType):
    """SQL INTEGER. Accepts ints and integral floats."""

    name = "INTEGER"

    def _coerce(self, value: Any) -> int:
        if isinstance(value, bool):
            raise TypeCheckError(f"cannot store boolean {value!r} in INTEGER")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeCheckError(f"cannot store {value!r} in INTEGER")

    def admit_test(self, name: str) -> str:
        return f"type({name}) is int"

    def family(self) -> str:
        return "numeric"


class FloatType(DataType):
    """SQL DOUBLE PRECISION. Accepts any real number."""

    name = "DOUBLE"

    def _coerce(self, value: Any) -> float:
        if isinstance(value, bool):
            raise TypeCheckError(f"cannot store boolean {value!r} in DOUBLE")
        if isinstance(value, (int, float)):
            return float(value)
        raise TypeCheckError(f"cannot store {value!r} in DOUBLE")

    def admit_test(self, name: str) -> str:
        return f"type({name}) is float"

    def family(self) -> str:
        return "numeric"


class VarcharType(DataType):
    """SQL VARCHAR(n); ``length`` of None means unbounded."""

    name = "VARCHAR"

    def __init__(self, length: int | None = None):
        if length is not None and length <= 0:
            raise TypeCheckError(f"VARCHAR length must be positive, got {length}")
        self.length = length

    def _coerce(self, value: Any) -> str:
        if not isinstance(value, str):
            raise TypeCheckError(f"cannot store {value!r} in {self}")
        if self.length is not None and len(value) > self.length:
            raise TypeCheckError(
                f"string of length {len(value)} exceeds {self}"
            )
        return value

    def admit_test(self, name: str) -> str:
        if self.length is None:
            return f"type({name}) is str"
        return f"type({name}) is str and len({name}) <= {self.length:d}"

    def family(self) -> str:
        return "string"

    def __repr__(self) -> str:
        if self.length is None:
            return "VARCHAR"
        return f"VARCHAR({self.length})"


class CharType(VarcharType):
    """SQL CHAR(n): fixed width, blank padded on store."""

    name = "CHAR"

    def __init__(self, length: int):
        super().__init__(length)

    def _coerce(self, value: Any) -> str:
        if not isinstance(value, str):
            raise TypeCheckError(f"cannot store {value!r} in {self}")
        if len(value) > self.length:
            raise TypeCheckError(f"string of length {len(value)} exceeds {self}")
        return value.ljust(self.length)

    def admit_test(self, name: str) -> str:
        # Only a value already of full width is stored unpadded.
        return f"type({name}) is str and len({name}) == {self.length:d}"

    def __repr__(self) -> str:
        return f"CHAR({self.length})"


class BooleanType(DataType):
    """SQL BOOLEAN."""

    name = "BOOLEAN"

    def _coerce(self, value: Any) -> bool:
        if isinstance(value, bool):
            return value
        raise TypeCheckError(f"cannot store {value!r} in BOOLEAN")

    def admit_test(self, name: str) -> str:
        return f"type({name}) is bool"

    def family(self) -> str:
        return "boolean"


#: Singleton-ish instances for the common, parameterless types.
INTEGER = IntegerType()
DOUBLE = FloatType()
VARCHAR = VarcharType()
BOOLEAN = BooleanType()


def type_from_name(name: str, length: int | None = None) -> DataType:
    """Build a :class:`DataType` from its SQL spelling.

    Used by the DDL layer: ``type_from_name('VARCHAR', 20)``.
    """
    upper = name.upper()
    if upper in ("INT", "INTEGER", "SMALLINT", "BIGINT"):
        return INTEGER
    if upper in ("FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC"):
        return DOUBLE
    if upper == "VARCHAR":
        return VarcharType(length)
    if upper == "CHAR":
        return CharType(length if length is not None else 1)
    if upper in ("BOOL", "BOOLEAN"):
        return BOOLEAN
    raise TypeCheckError(f"unknown SQL type {name!r}")


def infer_type(value: Any) -> DataType:
    """Infer the SQL type of a Python literal (used for constants)."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, str):
        return VARCHAR
    if value is None:
        return VARCHAR  # NULL literals adopt a default, coercible type
    raise TypeCheckError(f"cannot infer SQL type for {value!r}")


@dataclass(frozen=True)
class Column:
    """A column definition: name, type, and constraints."""

    name: str
    data_type: DataType
    nullable: bool = True
    primary_key: bool = False

    def validate(self, value: Any) -> Any:
        if value is None and (not self.nullable or self.primary_key):
            raise TypeCheckError(f"column {self.name!r} does not admit NULL")
        try:
            return self.data_type.validate(value)
        except TypeCheckError as exc:
            raise TypeCheckError(f"column {self.name!r}: {exc}") from exc

    def admit_test(self, name: str) -> str:
        """Source of a test on the local ``name`` that holds only when
        :meth:`validate` would return that value unchanged."""
        test = self.data_type.admit_test(name)
        if self.nullable and not self.primary_key:
            return f"{test} or {name} is None"
        return test


def validate_row(columns: Iterable[Column], values: Iterable[Any]) -> tuple:
    """Validate and coerce a full row against its column definitions."""
    cols = list(columns)
    vals = list(values)
    if len(cols) != len(vals):
        raise TypeCheckError(
            f"row has {len(vals)} values but table has {len(cols)} columns"
        )
    return tuple(col.validate(val) for col, val in zip(cols, vals))


def compile_admission(columns: Sequence[Column]
                      ) -> Callable[[Iterable[Any]], tuple]:
    """A kernel admitting rows of ``columns``: the same result as
    :func:`validate_row`, or the same error.

    The kernel unpacks the row (any iterable but a list or tuple is
    materialized first, so a generator is read once) and returns it as a
    tuple when every value passes its column's :meth:`Column.admit_test`.
    A row of another width, or with any value to coerce or reject, goes
    whole to :func:`validate_row`.  The source (``.source``) holds only
    positions, type names and lengths, never a value.
    """
    names = [f"v{position}" for position in range(len(columns))]
    unpacked = ", ".join(names) + ("," if len(names) == 1 else "")
    tests = " and ".join(f"({column.admit_test(name)})"
                         for column, name in zip(columns, names))
    source = (
        "def _admit(values):\n"
        "    if type(values) is not tuple and type(values) is not list:\n"
        "        values = tuple(values)\n"
        "    try:\n"
        f"        {unpacked} = values\n"
        "    except ValueError:\n"
        "        return _validate(values)\n"
        f"    if {tests}:\n"
        f"        return ({unpacked})\n"
        "    return _validate(values)\n"
    )
    env = {"_validate": partial(validate_row, tuple(columns))}
    exec(compile(source, "<admission>", "exec"), env)
    kernel = env["_admit"]
    kernel.source = source
    return kernel
