"""Unit tests for the versioned data stores."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataStoreError, VersionNotFoundError
from repro.workflow.data import (
    TOMBSTONE,
    DataStore,
    MultiVersionDataStore,
    Version,
)


class TestDataStore:
    def test_initial_values_are_version_zero(self):
        store = DataStore({"x": 10})
        assert store.read("x") == 10
        v = store.latest("x")
        assert v.number == 0 and v.writer is None

    def test_write_bumps_version(self):
        store = DataStore({"x": 1})
        assert store.write("x", 2, writer="t1") == 1
        assert store.write("x", 3, writer="t2") == 2
        assert store.read("x") == 3
        assert store.read_version("x") == (2, 3)

    def test_write_creates_unknown_object_at_version_zero(self):
        store = DataStore()
        assert store.write("new", 7, writer="t") == 0
        assert store.latest("new").writer == "t"

    def test_history_is_ordered(self):
        store = DataStore({"x": 0})
        store.write("x", 1)
        store.write("x", 2)
        assert [v.value for v in store.history("x")] == [0, 1, 2]

    def test_read_unknown_object_raises(self):
        with pytest.raises(DataStoreError):
            DataStore().read("ghost")

    def test_version_lookup(self):
        store = DataStore({"x": 0})
        store.write("x", 5, writer="w")
        assert store.version("x", 1).value == 5
        with pytest.raises(VersionNotFoundError):
            store.version("x", 9)

    def test_restore_writes_new_version(self):
        store = DataStore({"x": 10})
        store.write("x", 99, writer="bad")
        new_ver = store.restore("x", 0, writer="undo")
        assert new_ver == 2
        assert store.read("x") == 10
        # History preserved — recovery never rewrites it.
        assert [v.value for v in store.history("x")] == [10, 99, 10]

    def test_last_version_before(self):
        store = DataStore({"x": 10})
        store.write("x", 20)
        store.write("x", 30)
        assert store.last_version_before("x", 2).value == 20
        assert store.last_version_before("x", 1).value == 10
        with pytest.raises(VersionNotFoundError):
            store.last_version_before("x", 0)

    def test_snapshot(self):
        store = DataStore({"x": 1, "y": 2})
        store.write("x", 3)
        assert store.snapshot() == {"x": 3, "y": 2}

    def test_names_and_contains(self):
        store = DataStore({"x": 1})
        assert "x" in store and "y" not in store
        assert list(store.names()) == ["x"]


class TestMultiVersionDataStore:
    def test_pinned_read_survives_later_writes(self):
        store = MultiVersionDataStore({"x": 1})
        store.pin("reader", "x")
        store.write("x", 2)
        assert store.read("x") == 2
        assert store.read_pinned("reader", "x") == 1

    def test_unpinned_reader_sees_latest(self):
        store = MultiVersionDataStore({"x": 1})
        store.write("x", 2)
        assert store.read_pinned("other", "x") == 2

    def test_release_drops_pins(self):
        store = MultiVersionDataStore({"x": 1})
        store.pin("r", "x")
        store.write("x", 2)
        store.release("r")
        assert store.read_pinned("r", "x") == 2

    def test_storage_cost_counts_versions(self):
        store = MultiVersionDataStore({"x": 1, "y": 1})
        store.write("x", 2)
        store.write("x", 3)
        assert store.storage_cost() == 4  # x: 3 versions, y: 1


class TestTombstone:
    def test_singleton(self):
        from repro.workflow.data import _Tombstone

        assert _Tombstone() is TOMBSTONE
        assert repr(TOMBSTONE) == "<TOMBSTONE>"


def _scan_version(store, name, number):
    """The literal lookup: scan the whole history for ``number``."""
    for v in store.history(name):
        if v.number == number:
            return v
    return None


def _scan_before(store, name, number):
    """The literal lookup: the newest version numbered below ``number``."""
    older = [v for v in store.history(name) if v.number < number]
    return older[-1] if older else None


#: One store operation: ``("write", name, value)`` or
#: ``("restore", name, version)`` (the version is taken modulo the
#: object's history length, so every restore is legal).
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.sampled_from("abc"),
                  st.integers(0, 99)),
        st.tuples(st.just("restore"), st.sampled_from("abc"),
                  st.integers(0, 50)),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(flavour=st.sampled_from([DataStore, MultiVersionDataStore]),
       initial=st.dictionaries(st.sampled_from("ab"), st.integers(0, 9)),
       ops=_ops)
def test_indexed_lookups_match_linear_scan(flavour, initial, ops):
    store = flavour(initial)
    for op, name, arg in ops:
        if op == "write":
            store.write(name, arg, writer="w")
        elif name in store:
            store.restore(name, arg % len(store.history(name)), writer="r")
    for name in store.names():
        n = len(store.history(name))
        for number in range(-2, n + 3):
            expected = _scan_version(store, name, number)
            if expected is None:
                with pytest.raises(VersionNotFoundError):
                    store.version(name, number)
            else:
                assert store.version(name, number) is expected
            expected = _scan_before(store, name, number)
            if expected is None:
                with pytest.raises(VersionNotFoundError):
                    store.last_version_before(name, number)
            else:
                assert store.last_version_before(name, number) is expected
    with pytest.raises(DataStoreError):
        store.version("missing", 0)
    with pytest.raises(DataStoreError):
        store.last_version_before("missing", 1)


@settings(max_examples=60, deadline=None)
@given(flavour=st.sampled_from([DataStore, MultiVersionDataStore]),
       initial=st.dictionaries(st.sampled_from("ab"), st.integers(0, 9)),
       ops=_ops, cut=st.integers(0, 30))
def test_write_journal_names_exactly_the_grown_histories(
        flavour, initial, ops, cut):
    """``written_since(mark)`` lists each object whose history grew after
    ``mark`` once, in first-write order; the live value view tracks it."""
    store = flavour(initial)
    values = store.latest_values()
    lengths, mark, order = None, None, []
    for i, (op, name, arg) in enumerate(ops):
        if i == cut:
            mark = store.mark()
            lengths = {n: len(store.history(n)) for n in store.names()}
        if op == "write":
            store.write(name, arg, writer="w")
        elif name in store:
            store.restore(name, arg % len(store.history(name)), writer="r")
        else:
            continue
        if mark is not None and name not in order:
            order.append(name)
    if mark is None:
        mark, order = store.mark(), []
    elif lengths is not None:
        assert order == [n for n in order
                         if len(store.history(n)) > lengths.get(n, 0)]
    assert store.written_since(mark) == order
    assert store.written_since(store.mark()) == []
    assert dict(values) == store.snapshot() == {
        n: store.latest(n).value for n in store.names()}
    assert ("missing" in values) is False
    with pytest.raises(KeyError):
        values["missing"]


def test_journal_starts_empty_and_counts_restores():
    store = DataStore({"x": 1})
    assert store.mark() == 0 and store.written_since(0) == []
    store.write("y", 2)
    store.restore("x", 0)
    store.write("y", 3)
    assert store.mark() == 3
    assert store.written_since(0) == ["y", "x"]
    assert store.written_since(2) == ["y"]
