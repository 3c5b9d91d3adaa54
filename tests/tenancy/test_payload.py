"""Tenant payloads: the one-draw generator equals one draw per word."""

import random

from repro.tenancy.clients import _payload


def per_word_payload(rng: random.Random, size: int) -> bytes:
    """The reference: one 32-bit draw per 4-byte word, little-endian."""
    return b"".join(rng.getrandbits(32).to_bytes(4, "little")
                    for _ in range(max(1, size // 4)))


def test_one_draw_matches_per_word_draws_and_rng_state():
    sizes = list(range(1, 40)) + [511, 512, 513, 4095, 4096, 4097]
    for seed in range(20):
        fast, reference = random.Random(seed), random.Random(seed)
        for size in sizes:
            assert _payload(fast, size) == per_word_payload(reference, size)
            assert fast.getstate() == reference.getstate()
