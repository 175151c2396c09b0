"""Updatable composite-object views: lens-style put-back (ISSUE 10).

The read direction of this repo — XNF translation, materialized views,
the object gateway — moves data *out* of base tables.  This package is
the backward direction: DML statements (and gateway object mutations)
targeting a *view* are compiled into base-table DML by tracing each
written column through the view's QGM to a unique base column, in the
spirit of relational lenses ("Re-looking at the View Update Problem",
"Incremental Relational Lenses"): a *put* translation whose
well-definedness is checked both statically (shape classification) and
dynamically (get∘put identity on the touched rows, inside the same
transaction).

Modules:

* :mod:`repro.viewupdate.provenance` — the one updatability analysis:
  classify a view's (or a CO component's) derivation box as
  translatable or not; trace view columns to base columns.
* :mod:`repro.viewupdate.translator` — rewrite view DML ASTs into
  base-table form (single-source views) or a view-qualification plan
  (key-preserved joins).
* :mod:`repro.viewupdate.executor` — the compiled get∘put check
  (:class:`~repro.viewupdate.executor.CompiledWritePlan`) and the
  engine-side manager applying view DML through the one base-row
  writer (:class:`~repro.executor.dml.RowWriter`).
* :mod:`repro.viewupdate.objects` — the gateway's put-back: relationship
  connect analysis, deferred write-back and write-through object CRUD,
  through the same writer and check.
"""

from repro.viewupdate.executor import ViewUpdateManager
from repro.viewupdate.provenance import ViewWritePlan, analyze_view_box

__all__ = ["ViewUpdateManager", "ViewWritePlan", "analyze_view_box"]
