import pytest

from fmuod import InvalidConfig
from fmuod.seeding import child_rng, child_seed


def test_child_seed_is_deterministic():
    assert child_seed(1, 2, 3) == child_seed(1, 2, 3)


def test_child_seed_depends_on_every_part():
    seeds = {child_seed(1, 2, 3), child_seed(1, 2, 4), child_seed(1, 3, 3), child_seed(2, 2, 3)}
    assert len(seeds) == 4


def test_child_seeds_distinct_over_repetitions():
    seeds = {child_seed(0, r, 0) for r in range(1000)}
    assert len(seeds) == 1000


def test_child_rng_reproduces_streams():
    a = child_rng(5, 1).standard_normal(4)
    b = child_rng(5, 1).standard_normal(4)
    assert (a == b).all()
    c = child_rng(5, 2).standard_normal(4)
    assert (a != c).any()


def test_key_validation():
    with pytest.raises(InvalidConfig):
        child_seed()
    with pytest.raises(InvalidConfig):
        child_seed(-1)
    with pytest.raises(InvalidConfig):
        child_seed(1.5)
    with pytest.raises(InvalidConfig):
        child_seed(3.0)
    with pytest.raises(InvalidConfig):
        child_seed(True)
    with pytest.raises(InvalidConfig):
        child_rng(0, -3)
