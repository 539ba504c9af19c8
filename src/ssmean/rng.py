"""Seeded, splittable random streams backed by the Philox counter-based generator.

A stream is a value, not a mutable object: every operation that consumes
randomness receives a stream and instantiates a fresh generator from it, so
calling the same operation twice with the same stream reproduces its output
bit for bit.  Substreams are derived by hashing integer labels into the
128-bit Philox key, which makes parallel execution order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

GENERATOR_NAME = "philox-4x64"

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer; bijective on 64-bit integers."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Value identifying one reproducible random stream.

    Equal (seed, stream_id) pairs yield identical draw sequences; distinct
    stream_ids derived from one seed are statistically independent because
    they select distinct Philox keys.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK64)

    def generator(self) -> Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return Generator(Philox(key=key))

    def substream(self, label: int) -> "RngStream":
        """Derive a child stream; children with distinct labels are independent."""
        child = _mix64(_mix64(self.stream_id) ^ _mix64(int(label) & _MASK64))
        return RngStream(self.seed, child)
