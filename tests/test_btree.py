"""Tests for the clustered B+-tree access path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.btree import BPlusTree


class TestBasics:
    def test_empty(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.get(5) is None
        assert 5 not in tree

    def test_order_validated(self):
        with pytest.raises(ValueError):
            BPlusTree(order=3)

    def test_insert_get(self):
        tree = BPlusTree(order=4)
        for k in [5, 1, 9, 3, 7]:
            tree.insert(k, k * 10)
        assert len(tree) == 5
        for k in [5, 1, 9, 3, 7]:
            assert tree.get(k) == k * 10

    def test_duplicate_insert_replaces(self):
        tree = BPlusTree(order=4)
        tree.insert(1, 10)
        tree.insert(1, 20)
        assert len(tree) == 1
        assert tree.get(1) == 20

    def test_many_keys_force_splits(self):
        tree = BPlusTree(order=4)
        keys = list(range(500))
        rng = np.random.default_rng(0)
        rng.shuffle(keys)
        for k in keys:
            tree.insert(k, -k)
        assert len(tree) == 500
        assert tree.depth() > 2
        assert all(tree.get(k) == -k for k in range(500))


class TestRangeScan:
    def make(self, n=300, order=8):
        tree = BPlusTree(order=order)
        for k in range(0, 2 * n, 2):  # even keys only
            tree.insert(k, k)
        return tree

    def test_full_scan_ordered(self):
        tree = self.make()
        keys = [k for k, _ in tree.range(-1, 10**9)]
        assert keys == sorted(keys)
        assert len(keys) == 300

    def test_subrange(self):
        tree = self.make()
        got = [k for k, _ in tree.range(10, 21)]
        assert got == [10, 12, 14, 16, 18, 20]

    def test_range_missing_endpoints(self):
        tree = self.make()
        got = [k for k, _ in tree.range(11, 15)]
        assert got == [12, 14]

    def test_empty_range(self):
        tree = self.make()
        assert list(tree.range(7, 7)) == []
        assert list(tree.range(10, 5)) == []

    def test_keys_iterator(self):
        tree = self.make(n=50)
        assert list(tree.keys()) == list(range(0, 100, 2))


class TestClusteredBuild:
    def test_identity_layout(self):
        tree = BPlusTree.build_clustered(1000, order=16)
        assert len(tree) == 1000
        # Clustered: key i lives at physical block i.
        assert all(tree.get(i) == i for i in range(0, 1000, 37))

    def test_leaf_chain_is_physically_sequential(self):
        tree = BPlusTree.build_clustered(512, order=8)
        blocks = [v for _, v in tree.range(0, 512)]
        assert blocks == list(range(512))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=200, unique=True))
    def test_matches_dict_semantics(self, keys):
        tree = BPlusTree(order=6)
        model = {}
        for k in keys:
            tree.insert(k, k ^ 42)
            model[k] = k ^ 42
        assert len(tree) == len(model)
        for k in keys:
            assert tree.get(k) == model[k]
        lo, hi = min(keys) - 1, max(keys) + 1
        assert [k for k, _ in tree.range(lo, hi)] == sorted(model)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 10**4), min_size=5, max_size=100, unique=True),
        st.integers(0, 10**4),
        st.integers(0, 10**4),
    )
    def test_arbitrary_range_queries(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = BPlusTree(order=5)
        for k in keys:
            tree.insert(k, k)
        expected = sorted(k for k in keys if lo <= k < hi)
        assert [k for k, _ in tree.range(lo, hi)] == expected


class TestPickling:
    def _leaf_chain(self, tree):
        node = tree._root
        while not node.is_leaf:
            node = node.children[0]
        out = []
        while node is not None:
            out.append((tuple(node.keys), tuple(node.values)))
            node = node.next_leaf
        return out

    def test_roundtrip_preserves_exact_layout(self):
        import pickle

        tree = BPlusTree.build_clustered(5000)
        clone = pickle.loads(pickle.dumps(tree))
        assert len(clone) == len(tree)
        assert clone.depth() == tree.depth()
        assert list(clone.range(0, 5000)) == list(tree.range(0, 5000))
        # Leaf positions ARE physical addresses: the node layout must
        # survive bit-exactly, not merely the key/value mapping.
        assert self._leaf_chain(clone) == self._leaf_chain(tree)

    def test_deep_tree_does_not_hit_recursion_limit(self):
        import pickle

        # Far more leaves than the default recursion limit; default
        # (recursive) pickling of the next_leaf chain would blow up.
        tree = BPlusTree.build_clustered(120_000)
        assert len(self._leaf_chain(tree)) > 2000
        clone = pickle.loads(pickle.dumps(tree))
        assert clone.get(119_999) == 119_999

    def test_restored_tree_stays_mutable(self):
        import pickle

        tree = BPlusTree.build_clustered(500)
        clone = pickle.loads(pickle.dumps(tree))
        clone.insert(10_000, 1)
        assert clone.get(10_000) == 1
        assert len(clone) == 501


class TestIdentityLookup:
    """``get`` answers an identity-layout tree (keys 0..n-1, each at
    block address = key) with a range check; the flag must be exact."""

    @staticmethod
    def _descend(tree, key):
        leaf = tree._find_leaf(key)
        if key in leaf.keys:
            return leaf.values[leaf.keys.index(key)]
        return None

    def test_clustered_lookup_matches_descent(self):
        tree = BPlusTree.build_clustered(3000, order=8)
        assert tree._identity
        for key in (-1, 0, 1, 1234, 2999, 3000, 10**6):
            assert tree.get(key) == self._descend(tree, key)

    def test_any_other_insert_falls_back_to_descent(self):
        tree = BPlusTree.build_clustered(100, order=8)
        tree.insert(5, 999)  # replace: block address no longer = key
        assert not tree._identity
        assert tree.get(5) == 999 and tree.get(6) == 6
        gapped = BPlusTree.build_clustered(100, order=8)
        gapped.insert(1000, 1000)  # not the next key
        assert not gapped._identity
        assert gapped.get(1000) == 1000 and gapped.get(500) is None

    def test_flag_is_derived_on_restore_not_pickled(self):
        import pickle

        state = BPlusTree.build_clustered(10).__getstate__()
        assert set(state) == {"order", "size", "root", "nodes"}
        # Inserted out of order: the live flag is conservatively off,
        # but the restored tree sees the identity layout in its leaves.
        backwards = BPlusTree(order=4)
        for k in reversed(range(50)):
            backwards.insert(k, k)
        assert not backwards._identity
        clone = pickle.loads(pickle.dumps(backwards))
        assert clone._identity and clone.get(49) == 49 and clone.get(50) is None
        shifted = BPlusTree(order=4)
        for k in range(50):
            shifted.insert(k, k + 1)
        clone = pickle.loads(pickle.dumps(shifted))
        assert not clone._identity and clone.get(10) == 11

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-2, 40), max_size=80))
    def test_matches_dict_semantics_with_identity_values(self, keys):
        import pickle

        tree = BPlusTree(order=4)
        model = {}
        for k in keys:
            tree.insert(k, k)
            model[k] = k
        clone = pickle.loads(pickle.dumps(tree))
        for probe in range(-3, 42):
            assert tree.get(probe) == model.get(probe)
            assert clone.get(probe) == model.get(probe)
