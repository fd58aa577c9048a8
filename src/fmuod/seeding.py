"""Deterministic derivation of child seeds and generators.

Every random draw in the package flows through a generator built from an
explicit integer key, so results never depend on call order, scheduling or
worker counts.
"""
from __future__ import annotations

import numpy as np

from .datasets import _is_integer
from .errors import InvalidConfig


def _check_key(key: tuple[int, ...]) -> list[int]:
    if not key:
        raise InvalidConfig("seed key must not be empty")
    if not all(_is_integer(part) and part >= 0 for part in key):
        raise InvalidConfig("seed key parts must be non-negative integers")
    return [int(part) for part in key]


def child_seed(*key: int) -> int:
    """A reproducible integer seed derived from the key parts."""
    seq = np.random.SeedSequence(_check_key(key))
    return int(seq.generate_state(1, np.uint64)[0])


def child_rng(*key: int) -> np.random.Generator:
    """A reproducible generator derived from the key parts."""
    return np.random.default_rng(np.random.SeedSequence(_check_key(key)))
