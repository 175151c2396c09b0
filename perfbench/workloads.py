"""The three workloads and their correctness oracles.

Every workload is one closed-loop client on one session of a durable
engine (``fsync="none"``, ``parallel_degree=1``), with a data size that
stays constant through the run.  Each has exactly one read kind and one
write kind, dealt in shuffled rounds of ten in which every write
directly follows a read.

``oltp``      org DB; 80% PK point SELECTs through a cursor, 20%
              autocommit ``UPDATE EMP SET sal = sal + 1``.
``co_read``   org DB + the paper's ``deps_arc`` view + an EAGER
              materialized view ``deps_m``; 90% ad-hoc ``deps_arc``-shaped
              extractions over a department range, priced by block
              shipping; 10% ``UPDATE deps_arc.XEMP`` through the lens.
``co_cache``  OO1 DB opened once through the object gateway with
              write-through; 70% depth-7 traversals, 30% explicit
              transactions assigning an attribute on 3 reached parts.

Oracles are independent of the engine's query path: the org and OO1
data come from the seeded generators run on a bare catalog, the OO1
connection graph is read once through SQL, and every acknowledged write
is applied to the oracle.  After the timed phase the probe checkpoints,
runs a fixed seeded set of writes, closes and reopens the engine, and
compares the reopened state against the oracle.  Each missing
acknowledged write is charged to the operation that made it, as a
failed operation.
"""

from __future__ import annotations

import random
from collections import defaultdict

from repro import Engine, ObjectGateway, TransportSimulator
from repro.workloads.oo1 import (OO1Scale, build_oo1_catalog,
                                 create_oo1_schema, oo1_view_query,
                                 populate_oo1)
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   build_org_catalog, create_org_schema,
                                   populate_org)

#: WAL flush policy of every engine: appends reach the OS before a
#: commit is acknowledged, so they survive a process crash; no device
#: flush and no group-commit sleep sits on the timed path.
FLUSH_POLICY = "none"
CHECKPOINT_INTERVAL = 500
TRAVERSAL_DEPTH = 7
PROBE_WRITES = 30
#: Seed of the data generators.  The data set is the same on every run;
#: the benchmark's --seed drives the request streams.
DATA_SEED = 1994


def _rows(catalog, table: str) -> list[tuple]:
    return [row for _rid, row in catalog.table(table).scan()]


class Workload:
    """One client, one read kind, one write kind."""

    name = ""
    reads = 0                   # per round of ten
    writes = 0
    rounds_per_second = 0.0     # at nominal machine speed
    rounds_per_window = 1       # rounds between two calibration points
    warmup_rounds = 0
    check_every = 1             # every n-th read's output is checked
    facts: dict = {}

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.recorder = None
        self.engine = None
        self.session = None
        self.path = None
        self.attempted = 0        # untimed operations (warm-up, probe)
        self.failed = 0           # wrong outputs, errors, lost writes
        self.lost_writes = 0
        self.problems: list[str] = []   # outputs the oracle disproves
        self.errors: list[str] = []     # operations that raised
        self.reads_checked = 0
        self.acks: dict = defaultdict(int)
        self._kinds = None
        self._stream = None
        self._reads_seen = 0

    # -- request streams ----------------------------------------------
    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{purpose}")

    def start_stream(self, purpose: str) -> None:
        self._stream = self.rng(purpose)
        self._kinds = _deal(self._stream, self.reads, self.writes)
        self._reads_seen = 0

    def next_round(self) -> list[tuple]:
        out = []
        for kind in next(self._kinds):
            if kind == "read":
                self._reads_seen += 1
                check = self._reads_seen % self.check_every == 0
                out.append((kind, self.make_read(self._stream, check)))
            else:
                out.append((kind, self.make_write(self._stream)))
        return out

    # -- lifecycle ----------------------------------------------------
    def open_engine(self, path: str) -> Engine:
        return Engine(path=path, fsync=FLUSH_POLICY,
                      checkpoint_interval=CHECKPOINT_INTERVAL)

    def setup(self, path: str) -> None:
        """Everything ``setup_s`` times: load, views, caches, warm-up."""
        self.path = path
        self.reset_oracle()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.errors = []
        self.acks = defaultdict(int)
        self.engine = self.open_engine(path)
        self.session = self.engine.connect(label="client")
        self.build()
        self.start_stream("warmup")
        for _ in range(self.warmup_rounds):
            for kind, request in self.next_round():
                self.untimed(kind, request)
        self.start_stream("timed")

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = None
        self.session = None

    def untimed(self, kind: str, request) -> None:
        self.attempted += 1
        self.before(kind, request)
        try:
            output = self.operate(kind, request)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            self.error(f"{kind} raised {exc!r}")
            return
        self.after(kind, request, output)

    def probe(self) -> None:
        """Checkpoint, then a fixed seeded set of writes of the
        workload's own write kind (plus any workload-specific extras)."""
        self.engine.checkpoint()
        rng = self.rng("probe")
        for _ in range(PROBE_WRITES):
            self.probe_target(rng)
            self.untimed("write", self.make_write(rng))

    def probe_target(self, rng) -> None:
        """Hook: choose the state a probe write depends on."""

    def error(self, message: str) -> None:
        """An operation raised: a failed operation."""
        self.failed += 1
        self.errors.append(message)

    def wrong(self, message: str) -> None:
        """A checked output disagreed with the oracle."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def charge(self, key, expected, actual) -> None:
        """Account one reopened value against the oracle: a shortfall of
        acknowledged increments is that many lost writes; anything else
        is a value no acknowledged write explains."""
        if expected == actual:
            return
        deficit = (expected - actual) if isinstance(actual, int) else None
        if deficit is not None and 0 < deficit <= self.acks[key]:
            self.failed += deficit
            self.lost_writes += deficit
        elif len(self.problems) < 20:
            self.problems.append(
                f"{key}: reopened value {actual!r}, oracle {expected!r}")

    # -- per-workload -------------------------------------------------
    def prepare(self) -> None:
        """Build the oracle's static data (untimed, once per run)."""

    def reset_oracle(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def make_read(self, rng, check: bool):
        raise NotImplementedError

    def make_write(self, rng):
        raise NotImplementedError

    def before(self, kind: str, request) -> None:
        """Untimed preparation of one request."""

    def operate(self, kind: str, request):
        raise NotImplementedError

    def after(self, kind: str, request, output) -> int:
        """Untimed: check the output, feed the oracle; returns tuples
        delivered to the application."""
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed end-of-run checks on the live engine, after the
        probe and before the reopen."""

    def verify(self, engine: Engine) -> None:
        raise NotImplementedError


def _deal(rng, reads: int, writes: int):
    """Endless rounds of ``reads`` reads and ``writes`` writes in a
    seeded random order in which every write directly follows a read.

    A write's cost depends on what ran just before it (after a
    traversal it starts with the caches the traversal left behind; after
    another write it does not), so letting writes follow writes would
    split the write kind into two populations and put its median
    between them.
    """
    while True:
        followed = set(rng.sample(range(reads), writes))
        round_ = []
        for index in range(reads):
            round_.append("read")
            if index in followed:
                round_.append("write")
        yield round_


# ----------------------------------------------------------------------
# The org DB (oltp, co_read)
# ----------------------------------------------------------------------
class _OrgWorkload(Workload):

    def scale(self) -> OrgScale:
        if self.smoke:
            return OrgScale(departments=20, employees_per_dept=5,
                            projects_per_dept=3, skills=20, seed=DATA_SEED)
        return OrgScale(departments=200, employees_per_dept=20,
                        projects_per_dept=3, skills=20, seed=DATA_SEED)

    def prepare(self) -> None:
        catalog, _ = build_org_catalog(self.scale())
        self.dept = {row[0]: row for row in _rows(catalog, "DEPT")}
        self.emp = {row[0]: row for row in _rows(catalog, "EMP")}
        self.proj = {row[0]: row for row in _rows(catalog, "PROJ")}
        self.skill = {row[0]: row for row in _rows(catalog, "SKILLS")}
        self.emps_of = defaultdict(list)
        for row in self.emp.values():
            self.emps_of[row[2]].append(row[0])
        self.projs_of = defaultdict(list)
        for row in self.proj.values():
            self.projs_of[row[2]].append(row[0])
        self.skills_of_emp = defaultdict(set)
        for eno, sno in _rows(catalog, "EMPSKILLS"):
            self.skills_of_emp[eno].add(sno)
        self.skills_of_proj = defaultdict(set)
        for pno, sno in _rows(catalog, "PROJSKILLS"):
            self.skills_of_proj[pno].add(sno)
        self.enos = sorted(self.emp)

    def reset_oracle(self) -> None:
        self.sal = {eno: row[3] for eno, row in self.emp.items()}

    def build(self) -> None:
        create_org_schema(self.engine.catalog)
        populate_org(self.engine.catalog, self.scale())
        # The loader writes storage directly; a checkpoint makes the
        # seed rows durable.
        self.engine.checkpoint()

    def emp_row(self, eno: int) -> tuple:
        row = self.emp[eno]
        return (row[0], row[1], row[2], self.sal[eno])

    def ack_increment(self, eno: int, rowcount) -> None:
        if rowcount != 1:
            self.wrong(f"update of eno {eno} reported {rowcount!r} rows")
            return
        self.sal[eno] += 1
        self.acks[eno] += 1

    def verify(self, engine: Engine) -> None:
        rows = engine.connect().query("SELECT eno, sal FROM EMP").rows
        found = dict(rows)
        if len(found) != len(self.sal):
            self.problems.append(
                f"EMP has {len(found)} rows after reopen, oracle "
                f"{len(self.sal)}")
        for eno, sal in self.sal.items():
            self.charge(eno, sal, found.get(eno))


class OLTP(_OrgWorkload):
    name = "oltp"
    reads, writes = 8, 2
    rounds_per_second = 95.0
    rounds_per_window = 10
    warmup_rounds = 30
    check_every = 1
    facts = {"clients": 1, "loop": "closed", "sizes": "200 DEPT, 4000 EMP",
             "mix": "80% PK SELECT via cursor, 20% autocommit UPDATE"}

    def build(self) -> None:
        super().build()
        self.cursor = self.session.cursor()

    def make_read(self, rng, check: bool):
        eno = rng.choice(self.enos)
        return eno, f"SELECT * FROM EMP WHERE eno = {eno}", check

    def make_write(self, rng):
        eno = rng.choice(self.enos)
        return eno, f"UPDATE EMP SET sal = sal + 1 WHERE eno = {eno}"

    def operate(self, kind: str, request):
        if kind == "read":
            recorder = self.recorder
            if recorder is not None and recorder.on:
                with recorder.span("executor.cursor"):
                    self.cursor.execute(request[1])
                    return self.cursor.fetchall()
            self.cursor.execute(request[1])
            return self.cursor.fetchall()
        return self.session.execute(request[1])

    def after(self, kind: str, request, output) -> int:
        if kind == "write":
            self.ack_increment(request[0], output)
            return 0
        eno, _sql, check = request
        if check:
            self.reads_checked += 1
            if output != [self.emp_row(eno)]:
                self.wrong(f"read of eno {eno} returned {output!r}")
        if self.recorder is not None and self.recorder.on:
            counters = self.cursor.counters or {}
            self.recorder.count("executor.rows_scanned",
                                counters.get("rows_scanned", 0))
            self.recorder.count("executor.index_lookups",
                                counters.get("index_lookups", 0))
            self.recorder.count("executor.rows_returned", len(output))
            self.recorder.count("executor.queries")
        return len(output)


def _co_by_key(result) -> dict:
    """A COResult keyed by primary key (the first column of every org
    component): rows as sets, connections as (parent key, child key)."""
    out: dict = {}
    keys: dict = {}
    for name, stream in result.components.items():
        keys[name] = {oid: row[0]
                      for oid, row in zip(stream.oids, stream.rows)}
        out[name] = set(stream.rows)
    for name, stream in result.relationships.items():
        parent = keys[stream.parent]
        child = keys[stream.children[0]]
        out[name] = {(parent[c[0]], child[c[1]])
                     for c in stream.connections}
    return out


class CORead(_OrgWorkload):
    name = "co_read"
    reads, writes = 9, 1
    rounds_per_second = 7.0
    rounds_per_window = 1
    warmup_rounds = 2
    check_every = 20
    facts = {"clients": 1, "loop": "closed",
             "sizes": "200 DEPT, 4000 EMP; extractions of 3-8 DEPT",
             "mix": "90% ad-hoc deps_arc-shaped extraction + block "
                    "shipping, 10% UPDATE deps_arc.XEMP"}

    def prepare(self) -> None:
        super().prepare()
        self.arc_enos = sorted(eno for eno, row in self.emp.items()
                               if self.dept[row[2]][2] == "ARC")
        self.transport = TransportSimulator()
        self.max_width = 3 if self.smoke else 7

    def build(self) -> None:
        super().build()
        self.session.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
        self.session.execute("CREATE MATERIALIZED VIEW deps_m REFRESH "
                             f"EAGER AS {DEPS_ARC_QUERY}")

    def make_read(self, rng, check: bool):
        width = rng.randint(2, self.max_width)
        low = rng.randint(1, len(self.dept) - width)
        text = DEPS_ARC_QUERY.replace(
            "WHERE loc = 'ARC'", f"WHERE dno BETWEEN {low} AND "
                                 f"{low + width}")
        return low, low + width, text, check

    def make_write(self, rng):
        eno = rng.choice(self.arc_enos)
        return eno, ("UPDATE deps_arc.XEMP SET sal = sal + 1 "
                     f"WHERE eno = {eno}")

    def operate(self, kind: str, request):
        if kind == "read":
            result = self.session.xnf(request[2])
            return result, self.transport.block_shipping(result)
        return self.session.execute(request[1])

    def after(self, kind: str, request, output) -> int:
        if kind == "write":
            self.ack_increment(request[0], output)
            return 0
        result, shipped = output
        tuples = result.total_tuples()
        # Reconstructed connection streams never cross the wire.
        wire = tuples - sum(len(stream)
                            for stream in result.relationships.values()
                            if stream.reconstructed)
        if shipped.tuples != wire:
            self.wrong(f"shipped {shipped.tuples} of {wire} tuples")
        if request[3]:
            self.reads_checked += 1
            if _co_by_key(result) != self.expected_co(request[0],
                                                      request[1]):
                self.wrong(f"extraction of DEPT {request[0]}..{request[1]}"
                           " disagrees with the oracle")
        if self.recorder is not None and self.recorder.on:
            self.recorder.count("xnf.tuples", tuples)
            self.recorder.count("xnf.cos")
            self.recorder.count("api.shipped_bytes", shipped.payload_bytes)
        return tuples

    def expected_co(self, low: int, high: int,
                    arc_only: bool = False) -> dict:
        dnos = [dno for dno, row in self.dept.items()
                if low <= dno <= high and (not arc_only or row[2] == "ARC")]
        enos = [eno for dno in dnos for eno in self.emps_of[dno]]
        pnos = [pno for dno in dnos for pno in self.projs_of[dno]]
        empprop = {(eno, sno) for eno in enos
                   for sno in self.skills_of_emp[eno]}
        projprop = {(pno, sno) for pno in pnos
                    for sno in self.skills_of_proj[pno]}
        snos = {sno for _, sno in empprop} | {sno for _, sno in projprop}
        return {
            "XDEPT": {self.dept[dno] for dno in dnos},
            "XEMP": {self.emp_row(eno) for eno in enos},
            "XPROJ": {self.proj[pno] for pno in pnos},
            "XSKILLS": {self.skill[sno] for sno in snos},
            "EMPLOYMENT": {(self.emp[eno][2], eno) for eno in enos},
            "OWNERSHIP": {(self.proj[pno][2], pno) for pno in pnos},
            "EMPPROPERTY": empprop,
            "PROJPROPERTY": projprop,
        }

    def finish(self) -> None:
        expected = self.expected_co(1, len(self.dept), arc_only=True)
        stored = _co_by_key(self.session.matview("deps_m"))
        fresh = _co_by_key(self.session.xnf_executable(DEPS_ARC_QUERY).run())
        if stored != fresh:
            self.problems.append("deps_m differs from a fresh extraction")
        if fresh != expected:
            self.problems.append("a fresh deps_arc extraction differs "
                                 "from the oracle")

    def verify(self, engine: Engine) -> None:
        super().verify(engine)
        stored = _co_by_key(engine.connect().matview("deps_m"))
        if stored != self.expected_co(1, len(self.dept), arc_only=True):
            self.problems.append("deps_m differs from the oracle after "
                                 "reopen")


# ----------------------------------------------------------------------
# The OO1 DB (co_cache)
# ----------------------------------------------------------------------
def _traverse(part, depth: int) -> int:
    """OO1 traversal: every part reached along CONNECTS paths of length
    <= ``depth``, counted once per path."""
    touched = 1
    if depth:
        for child in part.connects():
            touched += _traverse(child, depth - 1)
    return touched


def _reached_ids(part, depth: int, into: set) -> set:
    into.add(part.id)
    if depth:
        for child in part.connects():
            _reached_ids(child, depth - 1, into)
    return into


class COCache(Workload):
    name = "co_cache"
    reads, writes = 7, 3
    rounds_per_second = 20.0
    rounds_per_window = 2
    warmup_rounds = 5
    check_every = 10
    #: Probe-only parts: the autocommit write-through assignments and
    #: the deferred write-back batch each own theirs, so a lost write is
    #: charged to exactly the operation that made it.
    AUTOCOMMIT_WRITES = 10
    DEFERRED_BATCH = 3
    facts = {"clients": 1, "loop": "closed",
             "sizes": "5000 PART, fanout 3, cache of the OO1 view",
             "mix": "70% depth-7 traversal, 30% explicit transaction "
                    "assigning 3 parts"}

    def scale(self) -> OO1Scale:
        return OO1Scale(parts=300 if self.smoke else 5000, seed=DATA_SEED)

    def view_text(self) -> str:
        return oo1_view_query(1, 5 if self.smoke else 50)

    def prepare(self) -> None:
        catalog, _ = build_oo1_catalog(self.scale())
        self.part = {row[0]: row for row in _rows(catalog, "PART")}
        self.load_graph()

    def reset_oracle(self) -> None:
        self.build_value = {pid: row[4] for pid, row in self.part.items()}
        self.last_start = None

    def build(self) -> None:
        create_oo1_schema(self.engine.catalog)
        populate_oo1(self.engine.catalog, self.scale())
        self.engine.checkpoint()
        self.gateway = ObjectGateway(self.session)
        self.view = self.gateway.open(self.view_text(), name="oo1",
                                      write_through=True)
        self.by_id = {obj.id: obj for obj in self.view.extent("xpart")}
        self.starts = sorted(self.by_id)
        self.last_start = self.starts[0]
        reserved = self.rng("reserved").sample(
            self.starts, self.AUTOCOMMIT_WRITES + self.DEFERRED_BATCH)
        self.autocommit_parts = reserved[:self.AUTOCOMMIT_WRITES]
        self.batch_parts = reserved[self.AUTOCOMMIT_WRITES:]
        self.reserved = set(reserved)

    def load_graph(self) -> None:
        """The oracle's connection graph: the generated CONNECTION rows
        read through SQL on a private in-memory engine, and the number
        of depth-limited paths from every part."""
        with Engine() as engine:
            create_oo1_schema(engine.catalog)
            populate_oo1(engine.catalog, self.scale())
            rows = engine.connect().query(
                "SELECT from_id, to_id FROM CONNECTION").rows
        # The CONNECTS relationship is a DISTINCT stream.
        self.adjacency = defaultdict(set)
        for source, target in rows:
            self.adjacency[source].add(target)
        walks = {pid: 1 for pid in self.part}
        for _ in range(TRAVERSAL_DEPTH):
            walks = {pid: 1 + sum(walks[c] for c in self.adjacency[pid])
                     for pid in self.part}
        self.walks = walks

    def reached(self, start: int, depth: int) -> set:
        seen = {start}
        frontier = {start}
        for _ in range(depth):
            frontier = {c for pid in frontier for c in self.adjacency[pid]}
            seen |= frontier
        return seen

    def make_read(self, rng, check: bool):
        return rng.choice(self.starts), check

    def make_write(self, rng):
        # [random picks, parts]: the parts are resolved in before()
        # against the last traversal.
        return [[rng.random() for _ in range(3)], None]

    def before(self, kind: str, request) -> None:
        if kind != "write":
            return
        candidates = sorted(self.reached(self.last_start, 2)
                            - self.reserved)
        request[1] = [self.by_id[candidates[int(r * len(candidates))]]
                      for r in request[0]]

    def probe_target(self, rng) -> None:
        self.last_start = rng.choice(self.starts)

    def probe(self) -> None:
        super().probe()
        self.probe_autocommit()

    def operate(self, kind: str, request):
        if kind == "read":
            recorder = self.recorder
            if recorder is not None and recorder.on:
                with recorder.span("cache.traverse"):
                    return _traverse(self.by_id[request[0]],
                                     TRAVERSAL_DEPTH)
            return _traverse(self.by_id[request[0]], TRAVERSAL_DEPTH)
        session = self.session
        session.begin()
        try:
            for part in request[1]:
                part.build = part.build + 1
        except BaseException:
            session.rollback()
            raise
        session.commit()
        return None

    def after(self, kind: str, request, output) -> int:
        if kind == "write":
            for part in request[1]:
                self.build_value[part.id] += 1
                self.acks[part.id] += 1
            return 0
        start, check = request
        self.last_start = start
        if output != self.walks[start]:
            self.wrong(f"traversal from part {start} touched {output}, "
                       f"oracle {self.walks[start]}")
        if check:
            self.reads_checked += 1
            ids = _reached_ids(self.by_id[start], TRAVERSAL_DEPTH, set())
            if ids != self.reached(start, TRAVERSAL_DEPTH):
                self.wrong(f"traversal from part {start} reached the "
                           "wrong parts")
        if self.recorder is not None and self.recorder.on:
            self.recorder.count("cache.touched", output)
        return output

    def probe_autocommit(self) -> None:
        """The gateway's autocommit writes: write-through assignments
        outside any transaction, then one deferred write-back batch."""
        for pid in self.autocommit_parts:
            self.attempted += 1
            part = self.by_id[pid]
            try:
                part.build = part.build + 1
            except Exception as exc:  # noqa: BLE001 - counted as failed
                self.error(f"write-through on part {pid} raised {exc!r}")
                continue
            self.build_value[pid] += 1
            self.acks[pid] += 1
        self.attempted += 1
        try:
            deferred = self.gateway.open(self.view_text(), name="deferred")
            parts = {obj.id: obj for obj in deferred.extent("xpart")}
            for pid in self.batch_parts:
                parts[pid].build = parts[pid].build + 1
            deferred.commit()
        except Exception as exc:  # noqa: BLE001 - counted as failed
            self.error(f"deferred write-back raised {exc!r}")
            return
        for pid in self.batch_parts:
            self.build_value[pid] += 1

    def verify(self, engine: Engine) -> None:
        found = dict(engine.connect().query(
            "SELECT id, build FROM PART").rows)
        for pid, value in self.build_value.items():
            if pid in self.batch_parts:
                continue
            self.charge(pid, value, found.get(pid))
        if any(found.get(pid) != self.build_value[pid]
               for pid in self.batch_parts):
            lost = all(found.get(pid) == self.build_value[pid] - 1
                       for pid in self.batch_parts)
            if lost:
                self.failed += 1
                self.lost_writes += 1
            else:
                self.problems.append("the deferred write-back batch was "
                                     "partly applied after reopen")


WORKLOADS = {cls.name: cls for cls in (OLTP, CORead, COCache)}
