"""NVCache configuration (the system parameters from paper §IV-A).

Paper defaults: 4 KiB entries, a 16 M-entry log (~64 GiB), a 250 k-page
read cache (~1 GiB), batches of 1 000–10 000 entries. Simulations scale
these down; every experiment records the scale it used.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import KIB, MS, US


@dataclass(frozen=True)
class NvcacheConfig:
    """Tunable parameters of one NVCache instance."""

    entry_data_size: int = 4 * KIB      # payload bytes per fixed-size log entry
    log_entries: int = 16 * 1024 * 1024  # number of entries in the circular log
    read_cache_pages: int = 250_000      # page contents in the DRAM read cache
    page_size: int = 4 * KIB             # read-cache page size (power of two)
    batch_min: int = 1_000               # entries before the cleanup thread kicks in
    batch_max: int = 10_000              # max entries drained per fsync batch
    fd_max: int = 4_096                  # size of the persistent fd->path table
    path_max: int = 256                  # bytes reserved per path in NVMM
    cleanup_idle_flush: float = 50 * MS  # drain a short log after this idle time
    # User-space CPU cost per intercepted write (radix walk, locking,
    # bookkeeping) — the calibration knob for the paper's ~500 MiB/s.
    write_op_overhead: float = 3.2 * US
    read_hit_overhead: float = 0.7 * US
    read_miss_overhead: float = 1.5 * US
    # Cache design point (docs/POLICIES.md): "logging" is the paper's
    # NVMM log + DRAM read cache; "paging" is the page-grained NVMM
    # cache (page table + dirty-page writeback); "nvlog-lite" is the
    # NVLog-style WAL-only variant (no DRAM read cache).
    cache_mode: str = "logging"
    # Eviction/promotion policy: "" = mode default (CLOCK for the
    # logging read cache, LRU for paging), else clock|lru|alru|nhit.
    policy: str = ""
    paging_slots: int = 4_096            # NVMM page slots in paging mode
    paging_wb_high: float = 0.45         # dirty fraction that wakes writeback
    paging_wb_low: float = 0.40          # writeback drains down to this
    paging_batch_pages: int = 64         # pages written back per sync batch
    paging_idle_flush: float = 50 * MS   # flush a short dirty set after idle
    nhit_threshold: int = 2              # misses before nhit promotes a page
    alru_staleness: int = 64             # accesses before alru calls a page stale

    def __post_init__(self):
        if self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a power of two")
        if self.entry_data_size <= 0 or self.log_entries <= 1:
            raise ValueError("log geometry must be positive")
        if self.batch_max < 1 or self.batch_min < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.cache_mode not in ("logging", "paging", "nvlog-lite"):
            raise ValueError(
                "cache_mode must be logging, paging, or nvlog-lite")
        if self.policy not in ("", "clock", "lru", "alru", "nhit"):
            raise ValueError(
                "policy must be one of '', clock, lru, alru, nhit")
        if self.cache_mode != "logging" and self.policy == "clock":
            raise ValueError("clock policy is only the logging read cache's")
        if self.paging_slots < 2:
            raise ValueError("paging needs at least two page slots")
        if not 0.0 < self.paging_wb_low <= self.paging_wb_high < 1.0:
            raise ValueError("need 0 < paging_wb_low <= paging_wb_high < 1")
        if self.paging_batch_pages < 1:
            raise ValueError("paging_batch_pages must be >= 1")
        if self.nhit_threshold < 1 or self.alru_staleness < 1:
            raise ValueError("policy knobs must be >= 1")


DEFAULT_CONFIG = NvcacheConfig()
