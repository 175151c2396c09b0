"""CO clustering and buffer simulation tests."""

import pytest

from repro.errors import StorageError
from repro.storage.clustering import (LRUBuffer, co_clustered_layout,
                                      hierarchical_access_trace,
                                      measure_faults, sequential_layout)


class TestLayouts:
    def test_sequential_layout_covers_all_rows(self, org_db):
        layout = sequential_layout(org_db.engine.catalog, ["DEPT", "EMP"])
        dept = org_db.engine.catalog.table("DEPT")
        emp = org_db.engine.catalog.table("EMP")
        assert len(layout.placement) == len(dept) + len(emp)

    def test_sequential_layout_is_contiguous(self, org_db):
        layout = sequential_layout(org_db.engine.catalog, ["DEPT"],
                                   rows_per_page=4)
        pages = [layout.page_of("DEPT", rid)
                 for rid, _row in org_db.engine.catalog.table("DEPT").scan()]
        assert pages == sorted(pages)
        assert layout.page_count == 2  # 6 departments / 4 per page

    def test_clustered_layout_co_locates_families(self, org_db):
        layout = co_clustered_layout(org_db.engine.catalog, "DEPT",
                                     rows_per_page=64)
        dept = org_db.engine.catalog.table("DEPT")
        emp = org_db.engine.catalog.table("EMP")
        first_dept_rid = next(rid for rid, _r in dept.scan())
        dept_page = layout.page_of("DEPT", first_dept_rid)
        dept_row = dept.fetch(first_dept_rid)
        child_pages = {
            layout.page_of("EMP", rid)
            for rid, row in emp.scan()
            if row[2] == dept_row[0]
        }
        assert child_pages == {dept_page}  # family fits one big page

    def test_clustered_layout_places_every_touched_row(self, org_db):
        layout = co_clustered_layout(org_db.engine.catalog, "DEPT")
        for name in ("DEPT", "EMP", "PROJ", "EMPSKILLS"):
            table = org_db.engine.catalog.table(name)
            for rid, _row in table.scan():
                layout.page_of(name, rid)  # raises if unplaced

    def test_unplaced_row_raises(self, org_db):
        layout = sequential_layout(org_db.engine.catalog, ["DEPT"])
        with pytest.raises(StorageError, match="no placement"):
            layout.page_of("EMP", 0)


class TestLRUBuffer:
    def test_fault_then_hit(self):
        buffer = LRUBuffer(2)
        assert buffer.access(1) is True
        assert buffer.access(1) is False
        assert buffer.faults == 1 and buffer.hits == 1

    def test_eviction_order(self):
        buffer = LRUBuffer(2)
        buffer.access(1)
        buffer.access(2)
        buffer.access(1)  # 1 becomes most recent
        buffer.access(3)  # evicts 2
        assert buffer.access(2) is True
        assert buffer.access(1) is True  # 1 was evicted by 2's reload

    def test_zero_capacity_rejected(self):
        with pytest.raises(StorageError):
            LRUBuffer(0)

    def test_reset(self):
        buffer = LRUBuffer(1)
        buffer.access(1)
        buffer.reset()
        assert buffer.faults == 0
        assert buffer.access(1) is True


class TestTraceAndFaults:
    def test_trace_visits_children_after_parent(self, org_db):
        trace = list(hierarchical_access_trace(org_db.engine.catalog, "DEPT"))
        tables = [t for t, _r in trace]
        assert tables[0] == "DEPT"
        assert "EMP" in tables and "EMPSKILLS" in tables

    def test_trace_visits_each_family_once(self, org_db):
        trace = list(hierarchical_access_trace(org_db.engine.catalog, "DEPT"))
        dept_visits = [r for t, r in trace if t == "DEPT"]
        assert len(dept_visits) == len(org_db.engine.catalog.table("DEPT"))

    def test_clustering_reduces_faults(self, org_db):
        catalog = org_db.engine.catalog
        trace = list(hierarchical_access_trace(catalog, "DEPT"))
        tables = sorted({t for t, _r in trace})
        seq = sequential_layout(catalog, tables, rows_per_page=4)
        clu = co_clustered_layout(catalog, "DEPT", rows_per_page=4)
        seq_faults = measure_faults(seq, trace, buffer_pages=2).faults
        clu_faults = measure_faults(clu, trace, buffer_pages=2).faults
        assert clu_faults < seq_faults

    def test_huge_buffer_equalizes_layouts(self, org_db):
        catalog = org_db.engine.catalog
        trace = list(hierarchical_access_trace(catalog, "DEPT"))
        tables = sorted({t for t, _r in trace})
        seq = sequential_layout(catalog, tables, rows_per_page=4)
        clu = co_clustered_layout(catalog, "DEPT", rows_per_page=4)
        big = max(seq.page_count, clu.page_count)
        seq_faults = measure_faults(seq, trace, buffer_pages=big).faults
        clu_faults = measure_faults(clu, trace, buffer_pages=big).faults
        # With everything resident, faults = cold misses = page count.
        assert seq_faults == seq.page_count
        assert clu_faults <= clu.page_count
