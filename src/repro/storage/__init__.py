"""Storage layer: the CORE-equivalent substrate (tables, indexes, catalog,
statistics, transactions)."""

from repro.storage.catalog import Catalog, ForeignKey, ViewDefinition
from repro.storage.index import HashIndex
from repro.storage.stats import (ColumnStats, StatisticsManager, TableStats,
                                 analyze_table)
from repro.storage.table import Rid, Row, Table
from repro.storage.transactions import (Transaction, TransactionManager,
                                        UndoRecord)
from repro.storage.types import (BOOLEAN, DOUBLE, INTEGER, VARCHAR,
                                 BooleanType, CharType, Column, DataType,
                                 FloatType, IntegerType, VarcharType,
                                 infer_type, type_from_name, validate_row)

__all__ = [
    "BOOLEAN", "DOUBLE", "INTEGER", "VARCHAR",
    "BooleanType", "CharType", "Column", "DataType", "FloatType",
    "IntegerType", "VarcharType", "infer_type", "type_from_name",
    "validate_row",
    "Rid", "Row", "Table",
    "HashIndex",
    "Catalog", "ForeignKey", "ViewDefinition",
    "ColumnStats", "StatisticsManager", "TableStats", "analyze_table",
    "Transaction", "TransactionManager", "UndoRecord",
]
