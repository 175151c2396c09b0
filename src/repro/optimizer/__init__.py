"""Plan optimization and physical operators."""

from repro.optimizer.cost import CostModel
from repro.optimizer.optimizer import (ExecutablePlan, Planner,
                                       PlannerOptions)
from repro.optimizer.plan import (Aggregate, Dedup, ExecutionContext, Filter,
                                  HashJoin, IndexNestedLoopJoin, IndexScan,
                                  LeftOuterJoin, Limit, Materialized,
                                  NestedLoopJoin, PlanNode, Project, SemiJoin,
                                  SetOperation, SingleRow, Sort, Spool,
                                  TableScan)

__all__ = [
    "CostModel", "ExecutablePlan", "Planner", "PlannerOptions",
    "Aggregate", "Dedup", "ExecutionContext", "Filter", "HashJoin",
    "IndexNestedLoopJoin", "IndexScan", "LeftOuterJoin", "Limit",
    "Materialized", "NestedLoopJoin", "PlanNode", "Project", "SemiJoin",
    "SetOperation", "SingleRow", "Sort", "Spool", "TableScan",
]
