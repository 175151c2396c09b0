"""Query evaluation system: expression compiler, pipeline, DML."""

from repro.executor.dml import DMLExecutor
from repro.executor.expressions import (RID_COLUMN, ExpressionCompiler,
                                        like_to_regex, sql_and, sql_not,
                                        sql_or)
from repro.executor.runtime import (CompiledQuery, PipelineOptions,
                                    QueryPipeline, QueryResult)

__all__ = [
    "DMLExecutor",
    "RID_COLUMN", "ExpressionCompiler", "like_to_regex", "sql_and",
    "sql_not", "sql_or",
    "CompiledQuery", "PipelineOptions", "QueryPipeline", "QueryResult",
]
