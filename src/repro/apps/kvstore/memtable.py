"""In-memory write buffer for the LSM store.

A plain dict plus byte accounting; sorted once at flush time (Python's
sort on an almost-random key set is cheaper than maintaining a skip list
and irrelevant to the simulated I/O timing we measure).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

TOMBSTONE = None


class Memtable:
    """Mutable sorted-on-demand key/value buffer."""

    def __init__(self):
        self._data: Dict[bytes, Optional[bytes]] = {}
        self.bytes_used = 0

    def __len__(self) -> int:
        return len(self._data)

    def put(self, key: bytes, value: Optional[bytes]) -> None:
        previous = self._data.get(key)
        if previous is not None:
            self.bytes_used -= len(key) + len(previous)
        elif key in self._data:
            self.bytes_used -= len(key)
        self._data[key] = value
        self.bytes_used += len(key) + (len(value) if value is not None else 0)

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """(found, value). found=True with value=None means a tombstone."""
        if key in self._data:
            return True, self._data[key]
        return False, None

    def sorted_items(self) -> List[Tuple[bytes, Optional[bytes]]]:
        return sorted(self._data.items())

