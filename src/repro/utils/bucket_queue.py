"""A bucket priority queue for bottom-up peeling.

Peeling algorithms (k-core, k-truss, bitruss) repeatedly extract an element
of minimum key and then decrease the keys of its neighbours.  Keys only ever
need to be compared against the current peel level, and the minimum never
moves backwards past levels that have been fully drained, so a bucket queue
with a monotone scan pointer gives amortized O(1) ``pop_min`` plus O(1)
``update``.

Keys may be arbitrarily large (butterfly supports reach millions), so the
buckets live in a dict rather than a dense list.

Users: the paper-reference peels (BiT-BS, BiT-BU, BiT-BU+, BiT-BU++,
BiT-PC, tip decomposition) and the incremental repair's ``peel_region``.
The CSR engine (``bit-bu-csr``) does not use it: its queue
is the array frontier :class:`repro.core.peeling_engine.PeelFrontier`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple


class BucketQueue:
    """Min-priority queue over integer items with non-negative integer keys.

    Items are hashable (in this library: edge ids).  Supports:

    * ``push(item, key)`` — insert.
    * ``update(item, new_key)`` — change an item's key (any direction).
    * ``pop_min()`` — remove and return ``(item, key)`` with minimal key.
    * ``peek_min_key()`` — minimal key without removal.
    * ``pop_level(level)`` — drain every item with key ``<= level``.
    * ``pop_min_batch()`` — remove and return *all* items sharing the
      current minimum key (used by the batch optimization of BiT-BU++).
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, Set[int]] = {}
        self._key_of: Dict[int, int] = {}
        self._floor = 0  # no non-empty bucket has key < _floor

    def __len__(self) -> int:
        return len(self._key_of)

    def __contains__(self, item: int) -> bool:
        return item in self._key_of

    def __iter__(self) -> Iterator[int]:
        return iter(self._key_of)

    def key(self, item: int) -> int:
        """Return the current key of ``item``."""
        return self._key_of[item]

    def push(self, item: int, key: int) -> None:
        """Insert ``item`` with ``key``; ``item`` must not already be queued."""
        if item in self._key_of:
            raise ValueError(f"item {item!r} already queued")
        if key < 0:
            raise ValueError("keys must be non-negative")
        self._key_of[item] = key
        self._buckets.setdefault(key, set()).add(item)
        if key < self._floor:
            self._floor = key

    def update(self, item: int, new_key: int) -> None:
        """Move ``item`` to ``new_key``; no-op when the key is unchanged."""
        old_key = self._key_of[item]
        if new_key == old_key:
            return
        if new_key < 0:
            raise ValueError("keys must be non-negative")
        bucket = self._buckets[old_key]
        bucket.discard(item)
        if not bucket:
            del self._buckets[old_key]
        self._key_of[item] = new_key
        self._buckets.setdefault(new_key, set()).add(item)
        if new_key < self._floor:
            self._floor = new_key

    def remove(self, item: int) -> int:
        """Remove ``item`` from the queue, returning its key."""
        key = self._key_of.pop(item)
        bucket = self._buckets[key]
        bucket.discard(item)
        if not bucket:
            del self._buckets[key]
        return key

    def _advance_floor(self) -> int:
        """Move the scan pointer to the smallest non-empty bucket key."""
        if not self._key_of:
            raise IndexError("pop from empty BucketQueue")
        # The floor only moves forward between minimum extractions; an
        # `update` may pull it backwards, which is handled in `update`.
        while self._floor not in self._buckets:
            self._floor += 1
        return self._floor

    def peek_min_key(self) -> int:
        """Return the minimum key currently in the queue."""
        return self._advance_floor()

    def pop_min(self) -> Tuple[int, int]:
        """Remove and return an arbitrary ``(item, key)`` of minimum key."""
        key = self._advance_floor()
        bucket = self._buckets[key]
        item = bucket.pop()
        if not bucket:
            del self._buckets[key]
        del self._key_of[item]
        return item, key

    def pop_min_batch(self) -> Tuple[List[int], int]:
        """Remove and return ``(items, key)`` — every item at the minimum key."""
        key = self._advance_floor()
        items = list(self._buckets.pop(key))
        for item in items:
            del self._key_of[item]
        return items, key

    def pop_level(self, level: int) -> List[int]:
        """Drain and return all items with key ``<= level`` (possibly none)."""
        drained: List[int] = []
        while self._key_of:
            key = self._advance_floor()
            if key > level:
                break
            items, _ = self.pop_min_batch()
            drained.extend(items)
        return drained

    @classmethod
    def from_keys(cls, keys: Iterable[int]) -> "BucketQueue":
        """Build a queue holding items ``0..n-1`` keyed by ``keys``."""
        queue = cls()
        for item, key in enumerate(keys):
            queue.push(item, int(key))
        return queue

    def items_at_min(self) -> Tuple[List[int], int]:
        """Return (without removing) every item at the current minimum key."""
        key = self._advance_floor()
        return list(self._buckets[key]), key

    def clear(self) -> None:
        """Empty the queue."""
        self._buckets.clear()
        self._key_of.clear()
        self._floor = 0

    def is_empty(self) -> bool:
        """Return ``True`` when no items are queued."""
        return not self._key_of


class LazyMinHeap:
    """A heap-based alternative queue used for differential testing.

    Semantically equivalent to :class:`BucketQueue` for the operations the
    peeling algorithms use; kept deliberately simple (lazy deletion) so the
    two implementations can be property-tested against each other.
    """

    def __init__(self) -> None:
        import heapq  # local import keeps module import light

        self._heapq = heapq
        self._heap: List[Tuple[int, int]] = []
        self._key_of: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._key_of)

    def __contains__(self, item: int) -> bool:
        return item in self._key_of

    def key(self, item: int) -> int:
        return self._key_of[item]

    def push(self, item: int, key: int) -> None:
        if item in self._key_of:
            raise ValueError(f"item {item!r} already queued")
        self._key_of[item] = key
        self._heapq.heappush(self._heap, (key, item))

    def update(self, item: int, new_key: int) -> None:
        if self._key_of[item] == new_key:
            return
        self._key_of[item] = new_key
        self._heapq.heappush(self._heap, (new_key, item))

    def remove(self, item: int) -> int:
        return self._key_of.pop(item)

    def _settle(self) -> Tuple[int, int]:
        while self._heap:
            key, item = self._heap[0]
            if self._key_of.get(item) == key:
                return key, item
            self._heapq.heappop(self._heap)  # stale entry
        raise IndexError("pop from empty LazyMinHeap")

    def peek_min_key(self) -> int:
        key, _ = self._settle()
        return key

    def pop_min(self) -> Tuple[int, int]:
        key, item = self._settle()
        self._heapq.heappop(self._heap)
        del self._key_of[item]
        return item, key

    def is_empty(self) -> bool:
        return not self._key_of
