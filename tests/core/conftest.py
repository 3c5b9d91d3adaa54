"""Fixtures for NVCache core tests: a small, fast stack."""

import pytest

from repro.block import SsdDevice
from repro.core import Nvcache, NvcacheConfig, NvmmLog, PagingCache, PagingStore
from repro.fs import Ext4
from repro.kernel import Kernel
from repro.nvmm import NvmmDevice
from repro.sim import Environment
from repro.units import MIB


SMALL_CONFIG = NvcacheConfig(
    log_entries=256,
    read_cache_pages=32,
    batch_min=4,
    batch_max=32,
    fd_max=64,
    cleanup_idle_flush=0.01,
)


def make_stack(config=SMALL_CONFIG, ssd_size=256 * MIB, start_cleanup=True):
    """A small stack; ``config.cache_mode == "paging"`` builds a
    :class:`PagingCache`, anything else an :class:`Nvcache`."""
    env = Environment()
    ssd = SsdDevice(env, size=ssd_size)
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, ssd))
    if config.cache_mode == "paging":
        nvmm = NvmmDevice(env, size=PagingStore.required_size(config))
        nvcache = PagingCache(env, kernel, nvmm, config,
                              start_cleanup=start_cleanup)
    else:
        nvmm = NvmmDevice(env, size=NvmmLog.required_size(config))
        nvcache = Nvcache(env, kernel, nvmm, config,
                          start_cleanup=start_cleanup)
    return env, kernel, ssd, nvmm, nvcache


@pytest.fixture
def stack():
    return make_stack()


def run(env, gen):
    return env.run_process(gen)
