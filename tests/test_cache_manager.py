"""XNFCache tests: evaluate, persistence, reload, write-back wiring."""

import pytest

from repro.api.engine import Engine
from repro.errors import CacheError, TransactionError
from repro.cache.manager import XNFCache
from repro.viewupdate.executor import CompiledWritePlan


class TestEvaluate:
    def test_open_cache_counts_objects(self, org_db):
        cache = org_db.open_cache("deps_arc")
        co = org_db.xnf("deps_arc")
        expected = sum(len(s) for s in co.components.values())
        assert cache.object_count() == expected

    def test_cursor_factories(self, org_db):
        cache = org_db.open_cache("deps_arc")
        assert len(cache.independent_cursor("xdept")) > 0
        dept = cache.extent("xdept")[0]
        assert len(cache.dependent_cursor("employment", dept)) == \
            len(dept.children("employment"))
        assert len(cache.path_cursor("xdept.xemp")) > 0

    def test_updatability_metadata_loaded(self, org_db):
        cache = org_db.open_cache("deps_arc")
        components, relationships = cache.updatability()
        assert isinstance(components["XEMP"], CompiledWritePlan)
        assert relationships["EMPLOYMENT"].kind == "foreign_key"


class TestWriteSurface:
    VIEW = "OUT OF xemp AS EMP TAKE *"

    def test_cache_outside_a_session_cannot_write_back(self, tmp_path,
                                                      monkeypatch):
        # A cache evaluated from a bare executable has no session to
        # write through.  Writing back must fail, not commit through a
        # private transaction manager that skips the WAL and the
        # writer latch: no refused write reaches any subscriber.
        path = str(tmp_path / "db")
        engine = Engine(path=path, fsync="none")
        session = engine.connect()
        session.execute("CREATE TABLE EMP (ENO INT PRIMARY KEY, SAL INT)")
        session.execute("INSERT INTO EMP VALUES (1, 100)")
        reported = []
        monkeypatch.setattr(engine, "row_delta", reported.append)
        monkeypatch.setattr(engine, "publish", reported.append)
        cache = XNFCache.evaluate(session.xnf_executable(self.VIEW))
        emp = cache.extent("xemp")[0]
        for salary in (500, 501, 502):
            emp.set("SAL", salary)
            with pytest.raises(CacheError, match="to write back through"):
                cache.write_back()
        with pytest.raises(CacheError, match="write-through"):
            XNFCache.evaluate(session.xnf_executable(self.VIEW),
                              write_through=True)
        assert reported == []
        assert session.query("SELECT sal FROM EMP").rows == [(100,)]
        monkeypatch.undo()
        # The session's own cache writes back durably.
        cache = session.open_cache(self.VIEW)
        cache.extent("xemp")[0].set("SAL", 502)
        cache.write_back()
        engine.close()
        with Engine(path=path, fsync="none") as reopened:
            assert reopened.connect().query(
                "SELECT sal FROM EMP").rows == [(502,)]


class TestPersistence:
    def test_round_trip_preserves_objects(self, org_db, tmp_path):
        cache = org_db.open_cache("deps_arc")
        path = str(tmp_path / "cache.bin")
        cache.save(path)
        loaded = XNFCache.load(path)
        assert loaded.object_count() == cache.object_count()
        for name in ("xdept", "xemp", "xskills"):
            original = sorted(tuple(o.values)
                              for o in cache.extent(name))
            restored = sorted(tuple(o.values)
                              for o in loaded.extent(name))
            assert original == restored

    def test_round_trip_preserves_connections(self, org_db, tmp_path):
        cache = org_db.open_cache("deps_arc")
        path = str(tmp_path / "cache.bin")
        cache.save(path)
        loaded = XNFCache.load(path)
        for dept_orig, dept_new in zip(cache.extent("xdept"),
                                       loaded.extent("xdept")):
            assert len(dept_orig.children("employment")) == \
                len(dept_new.children("employment"))

    def test_pending_log_survives_reload(self, org_db, tmp_path):
        cache = org_db.open_cache("deps_arc")
        emp = cache.extent("xemp")[0]
        emp.set("SAL", 42)
        path = str(tmp_path / "cache.bin")
        cache.save(path)
        loaded = XNFCache.load(path)
        assert loaded.dirty
        assert loaded.pending_changes()[0].operation == "update"

    def test_reloaded_cache_writes_back_with_metadata(self, org_db,
                                                      tmp_path):
        cache = org_db.open_cache("deps_arc")
        emp = cache.extent("xemp")[0]
        emp.set("SAL", 777)
        path = str(tmp_path / "cache.bin")
        cache.save(path)
        loaded = org_db.load_cache(path, "deps_arc")
        loaded.write_back()
        assert org_db.query(
            f"SELECT sal FROM EMP WHERE eno = {emp.eno}").rows == [(777,)]

    def test_plain_reload_cannot_write_back(self, org_db, tmp_path):
        cache = org_db.open_cache("deps_arc")
        cache.extent("xemp")[0].set("SAL", 777)
        path = str(tmp_path / "cache.bin")
        cache.save(path)
        with pytest.raises(CacheError, match="Session.open_cache"):
            XNFCache.load(path).write_back()

    def test_reloaded_write_back_takes_the_writer_latch(self, org_db,
                                                        tmp_path):
        # A reloaded cache writes back as its session's DML does: while
        # another session holds uncommitted writes, both are refused.
        engine = org_db.engine
        writer, other = engine.connect(), engine.connect()
        cache = other.open_cache("deps_arc")
        emp = cache.extent("xemp")[0]
        salary = f"SELECT sal FROM EMP WHERE eno = {emp.eno}"
        before = org_db.query(salary).rows
        emp.set("SAL", 777)
        path = str(tmp_path / "cache.bin")
        cache.save(path)
        loaded = other.load_cache(path, "deps_arc")
        writer.begin()
        writer.execute(f"UPDATE EMP SET sal = 5 WHERE eno = {emp.eno}")
        with pytest.raises(TransactionError, match="uncommitted writes"):
            other.execute(f"UPDATE EMP SET sal = 777 WHERE eno = {emp.eno}")
        with pytest.raises(TransactionError, match="uncommitted writes"):
            loaded.write_back()
        writer.rollback()
        assert org_db.query(salary).rows == before
        loaded.write_back()
        assert org_db.query(salary).rows == [(777,)]

    def test_bad_format_rejected(self, org_db, tmp_path):
        import pickle
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as handle:
            pickle.dump({"format": 999}, handle)
        with pytest.raises(CacheError, match="format"):
            XNFCache.load(path)

    def test_connect_log_survives_reload(self, org_db, tmp_path):
        cache = org_db.open_cache("deps_arc")
        depts = cache.extent("xdept")
        emp = depts[0].children("employment")[0]
        cache.disconnect("employment", depts[0], emp)
        cache.connect("employment", depts[1], emp)
        path = str(tmp_path / "cache.bin")
        cache.save(path)
        loaded = XNFCache.load(path)
        operations = [e.operation for e in loaded.pending_changes()]
        assert operations == ["disconnect", "connect"]


class TestWriteBackWiring:
    def test_write_back_without_catalog_rejected(self, org_db, tmp_path):
        cache = org_db.open_cache("deps_arc")
        path = str(tmp_path / "cache.bin")
        cache.save(path)
        loaded = XNFCache.load(path)
        loaded.workspace.extent("xemp")[0].set("SAL", 1)
        with pytest.raises(CacheError, match="no catalog"):
            loaded.write_back()

    def test_clean_write_back_is_zero(self, org_db):
        cache = org_db.open_cache("deps_arc")
        assert cache.write_back() == 0


class TestSnapshotValidation:
    """Stale or corrupt snapshot files fail with a descriptive
    CacheError, never with a bare unpickling crash."""

    def test_garbage_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "garbage.bin")
        with open(path, "wb") as handle:
            handle.write(b"this is not a pickle at all")
        with pytest.raises(CacheError, match="not a readable snapshot"):
            XNFCache.load(path)

    def test_truncated_snapshot_rejected(self, org_db, tmp_path):
        cache = org_db.open_cache("deps_arc")
        path = str(tmp_path / "cache.bin")
        cache.save(path)
        with open(path, "rb") as handle:
            blob = handle.read()
        truncated = str(tmp_path / "truncated.bin")
        with open(truncated, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        with pytest.raises(CacheError, match="not a readable snapshot"):
            XNFCache.load(truncated)

    def test_non_mapping_pickle_rejected(self, tmp_path):
        import pickle
        path = str(tmp_path / "list.bin")
        with open(path, "wb") as handle:
            pickle.dump([1, 2, 3], handle)
        with pytest.raises(CacheError, match="not a snapshot mapping"):
            XNFCache.load(path)

    def test_missing_sections_rejected(self, tmp_path):
        import pickle
        from repro.cache.manager import SNAPSHOT_FORMAT
        path = str(tmp_path / "partial.bin")
        with open(path, "wb") as handle:
            pickle.dump({"format": SNAPSHOT_FORMAT,
                         "components": {}}, handle)
        with pytest.raises(CacheError,
                           match="missing schema, relationships, log"):
            XNFCache.load(path)

    def test_malformed_schema_rejected(self, tmp_path):
        import pickle
        from repro.cache.manager import SNAPSHOT_FORMAT
        path = str(tmp_path / "badschema.bin")
        with open(path, "wb") as handle:
            pickle.dump({"format": SNAPSHOT_FORMAT, "schema": {"x": 1},
                         "components": {}, "relationships": {},
                         "log": []}, handle)
        with pytest.raises(CacheError, match="malformed schema"):
            XNFCache.load(path)

    def test_error_names_the_path(self, tmp_path):
        import pickle
        path = str(tmp_path / "old-format.bin")
        with open(path, "wb") as handle:
            pickle.dump({"format": 0}, handle)
        with pytest.raises(CacheError, match="old-format.bin"):
            XNFCache.load(path)
