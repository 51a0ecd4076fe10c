"""Bulk reads of a :class:`random.Random`'s Mersenne Twister word stream.

CPython's ``random.Random`` is MT19937 (Matsumoto & Nishimura, *ACM TOMACS*
1998).  ``rng.getrandbits(32*k)`` returns its next k 32-bit output words,
packed with the first word in the lowest 32 bits, and ``rng.random()`` is
built from two consecutive words as ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``.
Reading the words in one call and decoding them with numpy therefore gives
the values of the per-call loop and leaves the rng in the same state.

Preconditions for both functions: ``rng`` is a :class:`random.Random` (a
subclass that overrides ``random`` or ``getrandbits`` breaks the equality),
and ``getrandbits`` packs words in CPython's order.
``tests/test_vectorised.py`` pins both against the per-call loops.
"""

from __future__ import annotations

import random

import numpy as np


def mt_words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit Mersenne Twister words of ``rng``, as ``uint32``."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")


def mt_random(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.random()``, as float64, from one word read."""
    words = mt_words(rng, 2 * count)
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0
