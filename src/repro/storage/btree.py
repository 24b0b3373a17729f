"""Clustered B+-tree access path.

The Turbulence database retrieves atoms through "a clustered B+ tree
access path, which is keyed on a combination of the Morton index and
the time step" (paper §III-A).  Because the tree is clustered, keys
that are adjacent in ``(timestep, morton)`` order are physically
adjacent on disk, which is what makes Morton-ordered batch execution
sequential.

This is a real, self-contained B+-tree (insert, point lookup, ordered
range scan) rather than a dict — the disk model uses the *leaf
position* of a key as its physical address to decide whether a read is
sequential.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional

__all__ = ["BPlusTree"]


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: list[int] = []
        self.children: list[_Node] = []  # internal nodes only
        self.values: list[int] = []  # leaves only
        self.next_leaf: Optional[_Node] = None  # leaf chain for range scans


class BPlusTree:
    """B+-tree mapping integer keys to integer values.

    Keys are packed ``(timestep, morton)`` atom ids; values are the
    atom's physical block address.  ``order`` is the maximum number of
    keys per node.
    """

    def __init__(self, order: int = 64) -> None:
        if order < 4:
            raise ValueError("order must be >= 4")
        self._order = order
        self._root = _Node(is_leaf=True)
        self._size = 0
        # Derived, never pickled: True while the tree holds exactly the
        # keys 0..size-1, each at the block address equal to its key
        # (the layout ``build_clustered`` produces).  ``get`` then
        # answers without a descent.
        self._identity = True

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        """Insert ``key -> value``; replaces the value on duplicate key."""
        self._identity = self._identity and key == value == self._size
        split = self._insert(self._root, key, value)
        if split is not None:
            sep, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert(self, node: _Node, key: int, value: int) -> Optional[tuple[int, _Node]]:
        if node.is_leaf:
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.values[i] = value
                return None
            node.keys.insert(i, key)
            node.values.insert(i, value)
            self._size += 1
            if len(node.keys) > self._order:
                return self._split_leaf(node)
            return None
        i = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[i], key, value)
        if split is not None:
            sep, right = split
            node.keys.insert(i, sep)
            node.children.insert(i + 1, right)
            if len(node.keys) > self._order:
                return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Node) -> tuple[int, _Node]:
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _Node) -> tuple[int, _Node]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _find_leaf(self, key: int) -> _Node:
        node = self._root
        while not node.is_leaf:
            i = bisect.bisect_right(node.keys, key)
            node = node.children[i]
        return node

    def get(self, key: int) -> Optional[int]:
        """Point lookup; returns ``None`` when the key is absent."""
        if self._identity:
            return key if 0 <= key < self._size else None
        leaf = self._find_leaf(key)
        i = bisect.bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            return leaf.values[i]
        return None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """Yield ``(key, value)`` pairs with ``lo <= key < hi`` in key order.

        Walks the leaf chain, so a Morton-contiguous atom range scans
        sequentially — the property batch execution relies on.
        """
        if lo >= hi:
            return
        leaf: Optional[_Node] = self._find_leaf(lo)
        i = bisect.bisect_left(leaf.keys, lo)
        while leaf is not None:
            while i < len(leaf.keys):
                if leaf.keys[i] >= hi:
                    return
                yield leaf.keys[i], leaf.values[i]
                i += 1
            leaf = leaf.next_leaf
            i = 0

    def keys(self) -> Iterator[int]:
        """All keys in ascending order."""
        for k, _ in self.range(-(1 << 62), 1 << 62):
            yield k

    def depth(self) -> int:
        """Tree height (1 for a lone leaf)."""
        d, node = 1, self._root
        while not node.is_leaf:
            d += 1
            node = node.children[0]
        return d

    # ------------------------------------------------------------------
    # Pickling (checkpoint snapshots)
    # ------------------------------------------------------------------
    # Default pickling would recurse once per node through the child
    # pointers AND once per leaf through the ``next_leaf`` chain —
    # thousands of frames at realistic atom counts, i.e. a guaranteed
    # RecursionError.  Flatten to an index-linked node table instead.
    # The exact node layout must survive (not rebuilt by reinsertion):
    # a key's leaf position is its physical disk address, which the
    # disk model's sequential-read detection depends on.
    def __getstate__(self) -> dict[str, Any]:
        nodes: list[_Node] = []
        index: dict[int, int] = {}
        stack = [self._root]
        while stack:
            node = stack.pop()
            if id(node) in index:
                continue
            index[id(node)] = len(nodes)
            nodes.append(node)
            stack.extend(node.children)
        packed = [
            (
                node.is_leaf,
                node.keys,
                [index[id(child)] for child in node.children],
                node.values,
                -1 if node.next_leaf is None else index[id(node.next_leaf)],
            )
            for node in nodes
        ]
        return {
            "order": self._order,
            "size": self._size,
            "root": index[id(self._root)],
            "nodes": packed,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._order = state["order"]
        self._size = state["size"]
        packed = state["nodes"]
        nodes = [_Node(is_leaf=entry[0]) for entry in packed]
        for node, (_, keys, children, values, next_leaf) in zip(nodes, packed):
            node.keys = keys
            node.children = [nodes[i] for i in children]
            node.values = values
            node.next_leaf = None if next_leaf < 0 else nodes[next_leaf]
        self._root = nodes[state["root"]]
        self._identity = self._has_identity_layout()

    def _has_identity_layout(self) -> bool:
        """Walk the leaf chain: do the leaves hold exactly the keys
        0..size-1 in order, each at the block address equal to its key?
        Keys ascend strictly within a leaf, so matching endpoints mean a
        contiguous run."""
        leaf: Optional[_Node] = self._root
        while leaf is not None and not leaf.is_leaf:
            leaf = leaf.children[0]
        expected = 0
        while leaf is not None:
            keys = leaf.keys
            if keys:
                if keys != leaf.values or keys[0] != expected:
                    return False
                expected += len(keys)
                if keys[-1] != expected - 1:
                    return False
            leaf = leaf.next_leaf
        return expected == self._size

    @staticmethod
    def build_clustered(n_keys: int, order: int = 64) -> "BPlusTree":
        """Bulk-build a tree over keys ``0..n_keys-1`` with the identity
        physical layout (key i stored at block address i), matching a
        clustered index freshly loaded in key order."""
        tree = BPlusTree(order=order)
        for k in range(n_keys):
            tree.insert(k, k)
        return tree
