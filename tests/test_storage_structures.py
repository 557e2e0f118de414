"""Unit and property tests for the structured-file layer."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discprocess.blocks import MemoryBlockStore
from repro.discprocess.cache import BlockCache, CachedVolumeStore
from repro.discprocess.compress import (
    compress_keys,
    compress_records,
    decompress_keys,
    decompress_records,
    encoded_key_size,
    plain_key_size,
)
from repro.discprocess.entryseq import EntrySequencedFile
from repro.discprocess.index import StructuredFile
from repro.discprocess.keyseq import DuplicateKey, KeyNotFound, KeySequencedFile
from repro.discprocess.records import (
    ENTRY_SEQUENCED,
    KEY_SEQUENCED,
    RELATIVE,
    FileSchema,
    PartitionSpec,
    RecordError,
)
from repro.discprocess.relative import RelativeFile, SlotError


def _loc():
    return (PartitionSpec(node="alpha", volume="$data"),)


class TestKeySequenced:
    def make(self, **kwargs):
        store = MemoryBlockStore()
        return KeySequencedFile(store, "f", create=True, **kwargs), store

    def test_insert_read(self):
        tree, _ = self.make()
        tree.insert(("a",), {"v": 1})
        assert tree.read(("a",)) == {"v": 1}
        assert tree.read(("b",)) is None
        assert tree.record_count == 1

    def test_duplicate_insert_rejected(self):
        tree, _ = self.make()
        tree.insert(("a",), 1)
        with pytest.raises(DuplicateKey):
            tree.insert(("a",), 2)
        assert tree.record_count == 1

    def test_update_and_delete(self):
        tree, _ = self.make()
        tree.insert(("k",), "v1")
        assert tree.update(("k",), "v2") == "v1"
        assert tree.read(("k",)) == "v2"
        assert tree.delete(("k",)) == "v2"
        assert tree.read(("k",)) is None
        assert tree.record_count == 0

    def test_update_missing_raises(self):
        tree, _ = self.make()
        with pytest.raises(KeyNotFound):
            tree.update(("nope",), 1)

    def test_delete_missing_raises(self):
        tree, _ = self.make()
        with pytest.raises(KeyNotFound):
            tree.delete(("nope",), )

    def test_many_inserts_split_blocks(self):
        tree, _ = self.make(leaf_capacity=4, fanout=4)
        n = 500
        for i in range(n):
            tree.insert((i,), i * 10)
        assert tree.record_count == n
        assert tree.depth() > 2
        tree.check_invariants()
        for i in range(n):
            assert tree.read((i,)) == i * 10

    def test_reverse_and_shuffled_inserts(self):
        import random
        rng = random.Random(7)
        keys = list(range(300))
        rng.shuffle(keys)
        tree, _ = self.make(leaf_capacity=4, fanout=4)
        for k in keys:
            tree.insert((k,), -k)
        tree.check_invariants()
        assert tree.keys() == [(k,) for k in range(300)]

    def test_scan_range(self):
        tree, _ = self.make(leaf_capacity=4, fanout=4)
        for i in range(100):
            tree.insert((i,), i)
        rows = tree.scan(low=(10,), high=(20,))
        assert [k for k, _ in rows] == [(i,) for i in range(10, 21)]

    def test_scan_limit(self):
        tree, _ = self.make()
        for i in range(50):
            tree.insert((i,), i)
        assert len(tree.scan(limit=7)) == 7

    def test_scan_open_ends(self):
        tree, _ = self.make(leaf_capacity=4, fanout=4)
        for i in range(40):
            tree.insert((i,), i)
        assert len(tree.scan(low=(35,))) == 5
        assert len(tree.scan(high=(4,))) == 5

    def test_upsert(self):
        tree, _ = self.make()
        assert tree.upsert(("a",), 1) is None
        assert tree.upsert(("a",), 2) == 1
        assert tree.read(("a",)) == 2

    def test_string_keys_sorted(self):
        tree, _ = self.make(leaf_capacity=4, fanout=4)
        words = ["pear", "apple", "fig", "banana", "cherry", "date"]
        for w in words:
            tree.insert((w,), w.upper())
        assert tree.keys() == [(w,) for w in sorted(words)]

    def test_delete_heavy_then_invariants(self):
        tree, _ = self.make(leaf_capacity=4, fanout=4)
        for i in range(200):
            tree.insert((i,), i)
        for i in range(0, 200, 2):
            tree.delete((i,))
        tree.check_invariants()
        assert tree.keys() == [(i,) for i in range(1, 200, 2)]

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "update", "read"]),
                st.integers(min_value=0, max_value=60),
            ),
            max_size=200,
        )
    )
    def test_property_matches_dict_model(self, ops):
        """The B-tree behaves exactly like a sorted dict."""
        tree, _ = self.make(leaf_capacity=4, fanout=4)
        model = {}
        for op, key_int in ops:
            key = (key_int,)
            if op == "insert":
                if key in model:
                    with pytest.raises(DuplicateKey):
                        tree.insert(key, key_int)
                else:
                    tree.insert(key, key_int)
                    model[key] = key_int
            elif op == "delete":
                if key in model:
                    assert tree.delete(key) == model.pop(key)
                else:
                    with pytest.raises(KeyNotFound):
                        tree.delete(key)
            elif op == "update":
                if key in model:
                    tree.update(key, key_int + 1)
                    model[key] = key_int + 1
                else:
                    with pytest.raises(KeyNotFound):
                        tree.update(key, 0)
            else:
                assert tree.read(key) == model.get(key)
        tree.check_invariants()
        assert tree.scan() == sorted(model.items())


class TestRelative:
    def make(self):
        return RelativeFile(MemoryBlockStore(), "r", slots_per_block=4, create=True)

    def test_write_read(self):
        f = self.make()
        f.write(3, "x")
        assert f.read(3) == "x"
        assert f.read(2) is None
        assert f.record_count == 1
        assert f.next_record_number == 4

    def test_append_sequences(self):
        f = self.make()
        assert [f.append(c) for c in "abc"] == [0, 1, 2]
        assert f.scan() == [(0, "a"), (1, "b"), (2, "c")]

    def test_delete(self):
        f = self.make()
        f.append("a")
        assert f.delete(0) == "a"
        assert f.read(0) is None
        with pytest.raises(SlotError):
            f.delete(0)

    def test_negative_number_rejected(self):
        f = self.make()
        with pytest.raises(SlotError):
            f.read(-1)

    def test_sparse_blocks(self):
        f = self.make()
        f.write(100, "far")
        assert f.read(100) == "far"
        assert f.record_count == 1
        assert f.scan() == [(100, "far")]

    def test_overwrite_keeps_count(self):
        f = self.make()
        f.write(0, "a")
        f.write(0, "b")
        assert f.record_count == 1


class TestEntrySequenced:
    def make(self):
        return EntrySequencedFile(MemoryBlockStore(), "e", entries_per_block=4, create=True)

    def test_append_read(self):
        f = self.make()
        esns = [f.append({"n": i}) for i in range(10)]
        assert esns == list(range(10))
        assert f.read(5) == {"n": 5}
        assert f.read(99) is None

    def test_scan_from(self):
        f = self.make()
        for i in range(10):
            f.append(i)
        assert f.scan(start_esn=7) == [(7, 7), (8, 8), (9, 9)]

    def test_record_count(self):
        f = self.make()
        for i in range(6):
            f.append(i)
        assert f.record_count == 6


class TestStructuredFile:
    def make(self, alternate=("city",)):
        schema = FileSchema(
            name="people",
            organization=KEY_SEQUENCED,
            primary_key=("pid",),
            alternate_keys=alternate,
            partitions=_loc(),
        )
        return StructuredFile(MemoryBlockStore(), schema, create=True)

    def test_insert_and_index_lookup(self):
        f = self.make()
        f.insert({"pid": 1, "city": "sf", "name": "ann"})
        f.insert({"pid": 2, "city": "ny", "name": "bob"})
        f.insert({"pid": 3, "city": "sf", "name": "cid"})
        found = f.read_via_index("city", "sf")
        assert sorted(r["pid"] for r in found) == [1, 3]

    def test_update_maintains_index(self):
        f = self.make()
        f.insert({"pid": 1, "city": "sf"})
        f.update({"pid": 1, "city": "la"})
        assert f.read_via_index("city", "sf") == []
        assert [r["pid"] for r in f.read_via_index("city", "la")] == [1]

    def test_update_same_index_value_no_churn(self):
        f = self.make()
        f.insert({"pid": 1, "city": "sf", "age": 1})
        f.update({"pid": 1, "city": "sf", "age": 2})
        assert [r["age"] for r in f.read_via_index("city", "sf")] == [2]

    def test_delete_maintains_index(self):
        f = self.make()
        f.insert({"pid": 1, "city": "sf"})
        f.delete((1,))
        assert f.read_via_index("city", "sf") == []

    def test_missing_key_field_rejected(self):
        f = self.make()
        with pytest.raises(RecordError):
            f.insert({"city": "sf"})

    def test_missing_alternate_field_rejected(self):
        f = self.make()
        with pytest.raises(RecordError):
            f.insert({"pid": 9})

    def test_wrong_organization_op_rejected(self):
        f = self.make()
        with pytest.raises(TypeError):
            f.append_entry({"x": 1})

    def test_relative_structured(self):
        schema = FileSchema(
            name="slots", organization=RELATIVE, partitions=_loc()
        )
        f = StructuredFile(MemoryBlockStore(), schema, create=True)
        f.append_slot({"v": 1})
        assert f.read_slot(0) == {"v": 1}

    def test_entry_structured(self):
        schema = FileSchema(
            name="hist", organization=ENTRY_SEQUENCED, partitions=_loc()
        )
        f = StructuredFile(MemoryBlockStore(), schema, create=True)
        assert f.append_entry({"v": 1}) == 0
        assert f.read_entry(0) == {"v": 1}

    @settings(max_examples=25, deadline=None)
    @given(
        records=st.lists(
            st.tuples(st.integers(0, 50), st.sampled_from(["sf", "ny", "la"])),
            max_size=60,
        )
    )
    def test_property_index_consistency(self, records):
        """After arbitrary upserts, every index entry matches the base."""
        f = self.make()
        model = {}
        for pid, city in records:
            record = {"pid": pid, "city": city}
            if pid in model:
                f.update(record)
            else:
                f.insert(record)
            model[pid] = city
        for city in ["sf", "ny", "la"]:
            expected = sorted(pid for pid, c in model.items() if c == city)
            got = sorted(r["pid"] for r in f.read_via_index("city", city))
            assert got == expected


class TestSchemas:
    def test_key_sequenced_needs_primary_key(self):
        with pytest.raises(RecordError):
            FileSchema(name="x", organization=KEY_SEQUENCED, partitions=_loc())

    def test_bad_organization(self):
        with pytest.raises(RecordError):
            FileSchema(name="x", organization="heap", partitions=_loc())

    def test_alternate_requires_key_sequenced(self):
        with pytest.raises(RecordError):
            FileSchema(
                name="x",
                organization=RELATIVE,
                alternate_keys=("a",),
                partitions=_loc(),
            )

    def test_partition_routing(self):
        schema = FileSchema(
            name="x",
            organization=KEY_SEQUENCED,
            primary_key=("k",),
            partitions=(
                PartitionSpec("alpha", "$d1"),
                PartitionSpec("beta", "$d2", low_key=("m",)),
            ),
        )
        assert schema.partition_for(("a",)).node == "alpha"
        assert schema.partition_for(("m",)).node == "beta"
        assert schema.partition_for(("z",)).node == "beta"
        assert schema.partitioned

    def test_partition_low_keys_must_ascend(self):
        with pytest.raises(RecordError):
            FileSchema(
                name="x",
                organization=KEY_SEQUENCED,
                primary_key=("k",),
                partitions=(
                    PartitionSpec("a", "$1"),
                    PartitionSpec("b", "$2", low_key=("m",)),
                    PartitionSpec("c", "$3", low_key=("b",)),
                ),
            )

    def test_first_partition_low_key_must_be_none(self):
        with pytest.raises(RecordError):
            FileSchema(
                name="x",
                organization=KEY_SEQUENCED,
                primary_key=("k",),
                partitions=(PartitionSpec("a", "$1", low_key=("a",)),),
            )


class TestCompression:
    def test_key_roundtrip(self):
        keys = [("acct-0001",), ("acct-0002",), ("acct-0103",)]
        encoded = compress_keys(keys)
        assert decompress_keys(encoded) == ["acct-0001", "acct-0002", "acct-0103"]

    def test_sorted_keys_compress_well(self):
        keys = [(f"customer-{i:08d}",) for i in range(100)]
        encoded = compress_keys(keys)
        assert encoded_key_size(encoded) < plain_key_size(keys) / 2

    def test_record_roundtrip(self):
        records = [
            {"city": "sf", "status": "open", "n": i} for i in range(5)
        ] + [{"city": "ny", "status": "open", "n": 99}]
        model, deltas = compress_records(records)
        assert decompress_records(model, deltas) == records

    def test_record_heterogeneous_fields_roundtrip(self):
        records = [{"a": 1, "b": 2}, {"a": 1}, {"b": 2, "c": 3}]
        model, deltas = compress_records(records)
        assert decompress_records(model, deltas) == records

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(max_size=8), st.integers(0, 99)), max_size=30
        )
    )
    def test_property_key_roundtrip(self, raw):
        keys = sorted({(t, i) for t, i in raw})
        encoded = compress_keys(keys)
        decoded = decompress_keys(encoded)
        assert decoded == ["\x00".join([t, str(i)]) for t, i in keys]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(0, 3),
                max_size=4,
            ),
            max_size=20,
        )
    )
    def test_property_record_roundtrip(self, records):
        model, deltas = compress_records(records)
        assert decompress_records(model, deltas) == records


class TestCache:
    def test_lru_eviction_order(self):
        cache = BlockCache(capacity=2)
        cache.install(("f", 1), "a", dirty=False)
        cache.install(("f", 2), "b", dirty=False)
        cache.lookup(("f", 1))  # touch 1; 2 becomes LRU
        evicted = cache.install(("f", 3), "c", dirty=False)
        assert evicted == []  # clean blocks evict silently
        assert ("f", 2) not in cache
        assert ("f", 1) in cache

    def test_dirty_eviction_returns_writeback(self):
        cache = BlockCache(capacity=1)
        cache.install(("f", 1), "a", dirty=True)
        evicted = cache.install(("f", 2), "b", dirty=False)
        assert evicted == [(("f", 1), "a")]
        assert cache.stats.dirty_writebacks == 1

    def test_hit_ratio(self):
        cache = BlockCache(capacity=4)
        cache.install(("f", 1), "a", dirty=False)
        cache.lookup(("f", 1))
        cache.lookup(("f", 2))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == 0.5

    def test_cached_store_reads_through(self):
        physical = {}
        cache = BlockCache(capacity=2)
        store = CachedVolumeStore(
            cache,
            physical_read=lambda key: physical.get(key),
            physical_write=lambda key, block: physical.__setitem__(key, block),
            physical_delete=lambda key: physical.pop(key, None),
            list_blocks=lambda f: [k for k in physical if k[0] == f],
        )
        physical[("f", 7)] = "ondisc"
        assert store.get("f", 7) == "ondisc"
        assert store.counters.reads == 1
        assert store.get("f", 7) == "ondisc"  # now cached
        assert store.counters.reads == 1

    def test_cached_store_write_back_on_flush(self):
        physical = {}
        cache = BlockCache(capacity=8)
        store = CachedVolumeStore(
            cache,
            physical_read=lambda key: physical.get(key),
            physical_write=lambda key, block: physical.__setitem__(key, block),
            physical_delete=lambda key: physical.pop(key, None),
            list_blocks=lambda f: [k for k in physical if k[0] == f],
        )
        store.put("f", 1, "dirty")
        assert ("f", 1) not in physical  # write-back, not write-through
        assert store.flush() == 1
        assert physical[("f", 1)] == "dirty"

    def test_btree_runs_over_cached_store(self):
        physical = {}
        cache = BlockCache(capacity=4)
        store = CachedVolumeStore(
            cache,
            physical_read=lambda key: physical.get(key),
            physical_write=lambda key, block: physical.__setitem__(key, block),
            physical_delete=lambda key: physical.pop(key, None),
            list_blocks=lambda f: [k for k in physical if k[0] == f],
        )
        tree = KeySequencedFile(store, "t", leaf_capacity=4, fanout=4, create=True)
        for i in range(100):
            tree.insert((i,), i)
        store.flush()
        # Wipe the cache (CPU failure) — everything must still be on disc.
        cache.clear()
        for i in range(100):
            assert tree.read((i,)) == i
        tree.check_invariants()


def _cached_store_over(physical, capacity=8):
    return CachedVolumeStore(
        BlockCache(capacity=capacity),
        physical_read=lambda key: physical.get(key),
        physical_write=lambda key, block: physical.__setitem__(key, block),
        physical_delete=lambda key: physical.pop(key, None),
        list_blocks=lambda f: [k for k in physical if k[0] == f],
    )


def _with_record(tree):
    tree.insert(("a",), {"v": 1})
    return tree


class TestCopyOnWriteBlocks:
    """A write stores a new block; the image already on disc never changes.

    The mirrored volume stores block objects by reference, so a file
    that edited its cached header in place would change the on-disc
    image before the block was physically written.
    """

    @pytest.mark.parametrize("make, write", [
        (lambda store: KeySequencedFile(store, "f", create=True),
         lambda file: file.insert(("a",), {"v": 1})),
        (lambda store: _with_record(KeySequencedFile(store, "f", create=True)),
         lambda file: file.delete(("a",))),
        (lambda store: RelativeFile(store, "f", create=True),
         lambda file: file.write(3, {"v": 1})),
        (lambda store: EntrySequencedFile(store, "f", create=True),
         lambda file: file.append({"v": 1})),
    ], ids=["keyseq-insert", "keyseq-delete", "relative-write", "entryseq-append"])
    def test_on_disc_header_unchanged_until_written(self, make, write):
        physical = {}
        store = _cached_store_over(physical)
        file = make(store)
        store.flush()
        on_disc = {key: copy.deepcopy(block) for key, block in physical.items()}
        write(file)
        assert physical == on_disc  # nothing physically written yet
        store.flush()
        assert physical[("f", 0)] != on_disc[("f", 0)]

    def test_keyseq_header_after_flush_and_insert(self):
        physical = {}
        store = _cached_store_over(physical)
        tree = KeySequencedFile(store, "f", create=True)
        store.flush()
        tree.insert(("a",), {"v": 1})
        assert physical[("f", 0)] == ["H", 1, 2, 0]
        store.flush()
        assert physical[("f", 0)] == ["H", 1, 2, 1]

    def test_splits_never_touch_stored_blocks(self):
        physical = {}
        store = _cached_store_over(physical, capacity=512)
        tree = KeySequencedFile(store, "f", leaf_capacity=4, fanout=4, create=True)
        for i in range(0, 60, 2):
            tree.insert((i,), i)
        store.flush()
        on_disc = {key: copy.deepcopy(block) for key, block in physical.items()}
        for i in range(1, 60, 2):
            tree.insert((i,), i)
        assert physical == on_disc
        tree.check_invariants()
