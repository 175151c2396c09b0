"""Transport simulator tests (Sect. 5.3 shipping disciplines).

The simulator prices a composite object stream by stream; the generated
sweep at the end checks it against pricing one wire tuple at a time
(``REPRO_DIFF_SEEDS=<n>`` adds seeds).
"""

import enum
import os
import random

import pytest

from repro.api.transport import (MESSAGE_OVERHEAD, PAGE_SIZE,
                                 TransportSimulator, TransportStats,
                                 entry_size, tuple_size, value_size)
from repro.xnf.result import ComponentStream, ConnectionStream, COResult


@pytest.fixture
def co(org_db):
    return org_db.xnf("deps_arc")


class TestSizes:
    def test_value_sizes(self):
        assert value_size(None) == 1
        assert value_size(7) == 4
        assert value_size(2.5) == 8
        assert value_size("abcd") == 4
        assert value_size((1, "ab")) == 6

    def test_tuple_size_includes_per_value_overhead(self):
        assert tuple_size((1,)) > value_size(1)


class TestDisciplines:
    def test_tuple_at_a_time_two_messages_per_tuple(self, co):
        stats = TransportSimulator().tuple_at_a_time(co)
        assert stats.messages == 2 * stats.tuples + 2
        assert stats.tuples == co.shipped_tuples

    def test_block_shipping_few_messages(self, co):
        stats = TransportSimulator().block_shipping(co)
        assert stats.tuples == co.shipped_tuples
        assert stats.messages <= 3  # request + one or two blocks

    def test_order_of_magnitude_message_gap(self, co):
        simulator = TransportSimulator()
        one_at_a_time = simulator.tuple_at_a_time(co)
        blocked = simulator.block_shipping(co)
        assert one_at_a_time.messages >= 10 * blocked.messages

    def test_object_shipping_message_per_object(self, co):
        stats = TransportSimulator().object_shipping(co)
        assert stats.messages == co.shipped_tuples

    def test_page_shipping_ships_whole_pages(self, co):
        stats = TransportSimulator().page_shipping(co)
        assert stats.payload_bytes % 4096 == 0
        blocked = TransportSimulator().block_shipping(co)
        # Half-empty pages cost more bytes than exactly-packed blocks.
        assert stats.payload_bytes > blocked.payload_bytes

    def test_small_block_size_increases_messages(self, co):
        simulator = TransportSimulator()
        large = simulator.block_shipping(co, block_bytes=1 << 20)
        small = simulator.block_shipping(co, block_bytes=256)
        assert small.messages > large.messages
        assert small.tuples == large.tuples

    def test_total_bytes_accounts_overhead(self, co):
        stats = TransportSimulator().block_shipping(co)
        assert stats.total_bytes == stats.payload_bytes + \
            stats.messages * MESSAGE_OVERHEAD

    def test_projection_reduces_bytes(self, org_db):
        full = org_db.xnf("deps_arc")
        query = org_db.engine.catalog.view("deps_arc").definition
        from repro.sql import ast
        narrow = ast.XNFQuery(
            definitions=query.definitions,
            take_all=False,
            take_items=(ast.TakeItem("xdept", ("DNO",)),
                        ast.TakeItem("xemp", ("ENO",)),
                        ast.TakeItem("employment")),
        )
        slim = org_db.xnf(narrow)
        simulator = TransportSimulator()
        assert simulator.block_shipping(slim).payload_bytes < \
            simulator.block_shipping(full).payload_bytes


class TestUpDirection:
    """Write traffic (the gateway CRUD surface shipping updates up)."""

    @pytest.fixture
    def entries(self, org_db):
        cache = org_db.open_cache("deps_arc")
        emp = cache.extent("XEMP")[0]
        emp.set("SAL", emp.get("SAL") + 1)
        emp.set("ENAME", "renamed")
        cache.insert("XEMP", ENO=9001, ENAME="new", EDNO=1, SAL=5)
        cache.delete(cache.extent("XEMP")[1])
        return list(cache.workspace.log)

    def test_round_trips_two_messages_per_update(self, entries):
        stats = TransportSimulator().update_round_trips(entries)
        assert stats.mode == "update-round-trips"
        assert stats.updates_shipped == len(entries)
        assert stats.messages == 2 * len(entries)
        assert stats.payload_bytes_up > 0
        assert stats.payload_bytes == 0  # nothing ships down

    def test_block_shipping_few_messages(self, entries):
        stats = TransportSimulator().update_block_shipping(entries)
        assert stats.updates_shipped == len(entries)
        assert stats.messages == 2  # one block + one acknowledgement
        trips = TransportSimulator().update_round_trips(entries)
        assert stats.payload_bytes_up == trips.payload_bytes_up
        assert stats.total_bytes < trips.total_bytes

    def test_total_bytes_includes_up_payload(self, entries):
        stats = TransportSimulator().update_round_trips(entries)
        assert stats.total_bytes == stats.payload_bytes_up + \
            stats.messages * MESSAGE_OVERHEAD

    def test_str_reports_up_traffic(self, entries):
        stats = TransportSimulator().update_round_trips(entries)
        text = str(stats)
        assert "updates" in text and "bytes up" in text
        # the read disciplines keep their historical rendering
        assert "updates" not in str(TransportStats(mode="block"))

    def test_entry_sizes_scale_with_payload(self, org_db):
        cache = org_db.open_cache("deps_arc")
        emp = cache.extent("XEMP")[0]
        emp.set("ENAME", "x")
        emp.set("ENAME", "a-much-longer-replacement-name")
        short, long = cache.workspace.log[-2:]
        assert entry_size(long) > entry_size(short)

    def test_empty_log_still_acknowledged(self):
        stats = TransportSimulator().update_block_shipping([])
        assert stats.updates_shipped == 0
        assert stats.messages == 1  # the (empty) commit round trip


# ----------------------------------------------------------------------
# Per-stream pricing == per-tuple pricing
# ----------------------------------------------------------------------
class Flag(enum.IntEnum):
    """An ``int`` subclass: priced like an int, through ``isinstance``."""

    ON = 1


#: Value pools by column kind; NULLs are drawn separately.
KINDS = {
    "int": (0, 7, -3, 2 ** 40),
    "bool": (True, False),
    "float": (0.5, -2.25),
    "ascii": ("a", "abc", "", "x) or (1"),
    "unicode": ("é", "日本", "naïve", "a"),
    "oid": ((1, "a"), (2, "é"), (3,), ()),
    "mixed": (1, "ab", True, 2.5, (4, "b"), Flag.ON, "ü"),
}


def per_tuple(result: COResult, mode: str, block_bytes: int = 32 * 1024):
    """(messages, tuples, payload bytes) priced one wire tuple at a
    time with :func:`tuple_size`, as the disciplines are defined."""
    sizes = [tuple_size(tagged.values) for tagged in result.wire_tuples()]
    if mode == "tuple_at_a_time":
        return 2 * len(sizes) + 2, len(sizes), sum(sizes)
    if mode == "object_shipping":
        return len(sizes), len(sizes), sum(size + 6 for size in sizes)
    if mode == "page_shipping":
        wanted = sum(size + 6 for size in sizes)
        pages = max(1, round(wanted / (PAGE_SIZE * 0.5)))
        return 1 + pages, len(sizes), pages * PAGE_SIZE
    messages, current, open_block = 1, 0, False
    for size in sizes:
        size += 6
        if not open_block or current + size > block_bytes:
            messages += 1
            open_block, current = True, 0
        current += size
    if not open_block:
        messages += 1
    return messages, len(sizes), sum(size + 6 for size in sizes)


def generated_result(rng: random.Random) -> COResult:
    def value(kind):
        if rng.random() < 0.2:
            return None
        return rng.choice(KINDS[kind])

    components = {}
    for number in range(rng.randint(0, 4)):
        kinds = [rng.choice(list(KINDS)) for _ in range(rng.randint(0, 5))]
        count = rng.randint(0, 30)
        rows = [tuple(value(kind) for kind in kinds) for _ in range(count)]
        if rows and rng.random() < 0.1:  # a ragged stream
            rows[0] = rows[0] + ("extra",)
        name = f"C{number}"
        components[name] = ComponentStream(
            name=name, number=number, columns=[f"A{i}" for i in
                                               range(len(kinds))],
            rows=rows, oids=[(number, i) for i in range(count)],
            embedded_parent_oids=(
                [value(rng.choice(("int", "oid"))) for _ in range(count)]
                if rng.random() < 0.4 else None))
    relationships = {}
    for number in range(rng.randint(0, 3)):
        width = rng.randint(2, 4)
        kinds = [rng.choice(("int", "oid", "mixed")) for _ in range(width)]
        name = f"R{number}"
        relationships[name] = ConnectionStream(
            name=name, number=10 + number, role="HAS", parent="C0",
            children=("C1",),
            connections=[tuple(value(kind) for kind in kinds)
                         for _ in range(rng.randint(0, 40))],
            reconstructed=rng.random() < 0.3)
    return COResult(schema=None, components=components,
                    relationships=relationships)


def _seeds() -> list[int]:
    extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [28] + [29 + i for i in range(extra)]


@pytest.mark.parametrize("seed", _seeds())
def test_stream_pricing_matches_per_tuple_pricing(seed):
    rng = random.Random(seed)
    simulator = TransportSimulator()
    for _ in range(60):
        result = generated_result(rng)
        for mode in ("tuple_at_a_time", "object_shipping",
                     "page_shipping"):
            stats = getattr(simulator, mode)(result)
            assert (stats.messages, stats.tuples, stats.payload_bytes) \
                == per_tuple(result, mode), mode
        for block_bytes in (32 * 1024, 40, 120, 1):
            stats = simulator.block_shipping(result, block_bytes)
            assert (stats.messages, stats.tuples, stats.payload_bytes) \
                == per_tuple(result, "block_shipping", block_bytes)


def test_stream_pricing_matches_on_an_extraction(co):
    simulator = TransportSimulator()
    for mode in ("tuple_at_a_time", "object_shipping", "page_shipping"):
        stats = getattr(simulator, mode)(co)
        assert (stats.messages, stats.tuples, stats.payload_bytes) \
            == per_tuple(co, mode)
    for block_bytes in (32 * 1024, 256):
        stats = simulator.block_shipping(co, block_bytes)
        assert (stats.messages, stats.tuples, stats.payload_bytes) \
            == per_tuple(co, "block_shipping", block_bytes)


def test_fixed_sizes_dispatch_on_exact_type():
    assert value_size(True) == 1 and value_size(1) == 4
    assert value_size(Flag.ON) == 4
    assert value_size("é") == 2 and value_size("日本") == 6
