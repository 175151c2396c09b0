"""Single-flight compilation in the shared plan cache.

Sessions of one engine share its :class:`PlanCache`.  When several of
them miss one key at the same moment, one compiles it and the others
wait for that compile and take the stored artifact as a hit.  These
tests force the overlap deterministically: the first compile blocks
on an event, and the test lets it finish only after every other
thread has looked the key up.  A look is seen through the
schema-version callable, which the cache reads under its lock at every
look, so each counted look has seen the first compile running.  Every
wait is bounded and every thread is a daemon, so a broken cache fails
the test instead of hanging it.
"""

import threading

from repro.api.engine import Engine
from repro.executor.plan_cache import PlanCache
from repro.workloads.orgdb import OrgScale, create_org_schema, populate_org

#: Threads that miss one key together.
K = 4

#: Bound on every wait, in seconds (never a pacing sleep).
TIMEOUT = 10

SMALL_ORG = OrgScale(departments=3, employees_per_dept=4,
                     projects_per_dept=2, skills=6,
                     skills_per_employee=2, skills_per_project=2,
                     arc_fraction=0.3, seed=5)


class Race:
    """K threads missing one key: the first compile is held on ``go``."""

    def __init__(self):
        self.version = 1
        self.looks = 0
        self.looked = threading.Condition()
        self.entered = threading.Event()
        self.go = threading.Event()
        self.compiles = 0

    def schema_version(self) -> int:
        with self.looked:
            self.looks += 1
            self.looked.notify_all()
        return self.version

    def wait_for_looks(self, count: int) -> bool:
        with self.looked:
            return self.looked.wait_for(lambda: self.looks >= count,
                                        TIMEOUT)

    def compiler(self, first):
        """A compile function whose first call runs ``first`` once
        ``go`` is set; later calls return a new object at once."""
        def compile_fn():
            self.compiles += 1
            if self.compiles > 1:
                return object()
            self.entered.set()
            assert self.go.wait(TIMEOUT)
            return first()
        return compile_fn

    def run(self, threads: int, client, during_compile=lambda: None):
        """Start ``client(i)`` on ``threads`` daemon threads, the first
        alone until it is compiling; release its compile once every
        thread has looked.  Returns per-thread (results, errors)."""
        results = [None] * threads
        errors = [None] * threads

        def guarded(index):
            try:
                results[index] = client(index)
            except Exception as exc:  # noqa: BLE001 - returned
                errors[index] = exc

        workers = [threading.Thread(target=guarded, args=(i,),
                                    daemon=True) for i in range(threads)]
        workers[0].start()
        try:
            assert self.entered.wait(TIMEOUT), "first compile never ran"
            for worker in workers[1:]:
                worker.start()
            all_looked = self.wait_for_looks(threads)
            during_compile()
        finally:
            self.go.set()
        for worker in workers:
            worker.join(TIMEOUT)
        assert not [w for w in workers if w.is_alive()], "a thread hung"
        assert all_looked, (
            f"{self.looks} of {threads} threads looked the key up "
            f"through the cache; {self.compiles} compiles ran")
        return results, errors


def race_on_cache(race: Race, first, during_compile=lambda: None):
    cache = PlanCache()
    compile_fn = race.compiler(first)
    results, errors = race.run(
        K, lambda _: cache.get_or_compile("k", race.schema_version,
                                          None, compile_fn),
        during_compile)
    return cache, results, errors


def test_concurrent_misses_compile_once():
    race = Race()
    artifact = object()
    cache, results, errors = race_on_cache(race, lambda: artifact)
    assert errors == [None] * K
    assert race.compiles == 1
    assert all(result is artifact for result in results)
    stats = cache.stats
    assert (stats.misses, stats.hits, stats.stores) == (1, K - 1, 1)


def test_failed_compile_raises_only_in_its_leader():
    race = Race()

    def fail():
        raise RuntimeError("compile failed")

    cache, results, errors = race_on_cache(race, fail)
    assert isinstance(errors[0], RuntimeError)
    assert errors[1:] == [None] * (K - 1)
    # One waiter compiled in the leader's place; the rest waited for it.
    assert race.compiles == 2
    assert results[1] is not None
    assert all(result is results[1] for result in results[1:])
    stats = cache.stats
    assert (stats.misses, stats.hits, stats.stores) == (2, K - 2, 1)


def test_artifact_made_stale_during_its_compile_reaches_no_waiter():
    race = Race()
    stale = object()

    def ddl():
        race.version = 2

    cache, results, errors = race_on_cache(race, lambda: stale, ddl)
    assert errors == [None] * K
    assert not any(result is stale for result in results[1:])
    assert race.compiles == 2
    assert all(result is results[1] for result in results[1:])
    assert cache.stats.invalidations == 1
    assert cache.lookup("k", 2).value is results[1]


def test_same_thread_reentry_compiles_instead_of_waiting():
    cache = PlanCache()
    results = []

    def outer():
        inner = cache.get_or_compile("k", lambda: 1, None,
                                     lambda: "inner")
        return ("outer", inner)

    worker = threading.Thread(
        target=lambda: results.append(
            cache.get_or_compile("k", lambda: 1, None, outer)),
        daemon=True)
    worker.start()
    worker.join(TIMEOUT)
    assert not worker.is_alive(), "re-entrant compile deadlocked"
    assert results == [("outer", "inner")]


def test_compiling_threads_never_wait_on_each_other():
    """A compiles k1 and needs k2 while B compiles k2 and needs k1:
    neither waits, so the two compiles cannot deadlock."""
    cache = PlanCache()
    started = {"k1": threading.Event(), "k2": threading.Event()}
    needed = {"k1": threading.Event(), "k2": threading.Event()}
    results = {}

    def lead(mine, other):
        def compile_fn():
            started[mine].set()
            assert started[other].wait(TIMEOUT)
            inner = cache.get_or_compile(other, lambda: 1, None,
                                         lambda: f"{other} inner")
            # Neither compile ends before both inner looks are done.
            needed[mine].set()
            assert needed[other].wait(TIMEOUT)
            return inner
        results[mine] = cache.get_or_compile(mine, lambda: 1, None,
                                             compile_fn)

    workers = [threading.Thread(target=lead, args=pair, daemon=True)
               for pair in (("k1", "k2"), ("k2", "k1"))]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(TIMEOUT)
    assert not [w for w in workers if w.is_alive()], "compiles deadlocked"
    assert results == {"k1": "k2 inner", "k2": "k1 inner"}


def org_engine() -> Engine:
    engine = Engine()
    create_org_schema(engine.catalog)
    populate_org(engine.catalog, SMALL_ORG)
    return engine


def test_sessions_missing_one_select_shape_compile_it_once():
    """The SELECT path (AST key, canonical probe) is single-flight too:
    K sessions run one new shape, each with its own literal, at once."""
    engine = org_engine()
    pipeline = engine.pipeline.compiler
    race = Race()
    race.version = engine.catalog.schema_version
    plan = pipeline.plan
    held = race.compiler(lambda: None)

    def plan_first_held(graph, **kwargs):
        held()
        return plan(graph, **kwargs)

    pipeline.plan = plan_first_held
    pipeline._schema_version = race.schema_version
    sessions = [engine.connect() for _ in range(K)]

    def sql(index):
        return f"SELECT ename, sal FROM EMP WHERE eno = {index + 1}"

    results, errors = race.run(K, lambda i: sessions[i].query(sql(i)).rows)
    engine.close()
    assert errors == [None] * K
    assert race.compiles == 1
    stats = pipeline.plan_cache.stats
    assert (stats.misses, stats.hits, stats.stores) == (1, K - 1, 1)
    reference = org_engine().connect()
    assert results == [reference.query(sql(i)).rows for i in range(K)]
