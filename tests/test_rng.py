"""Splittable random streams: same path, same stream; sibling paths disjoint."""

import hashlib

import numpy as np
import pytest

from critnorm import child_rng, child_seed


def test_same_path_reproduces_the_stream():
    a = child_rng(42, 3, 1).standard_normal(8)
    b = child_rng(42, 3, 1).standard_normal(8)
    assert np.array_equal(a, b)


def test_sibling_paths_differ():
    a = child_rng(42, 0).standard_normal(8)
    b = child_rng(42, 1).standard_normal(8)
    c = child_rng(43, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_path_is_not_flattened_into_the_seed():
    # (seed, 1, 2) and (seed, 12) must be distinct branches
    a = child_rng(7, 1, 2).standard_normal(4)
    b = child_rng(7, 12).standard_normal(4)
    assert not np.array_equal(a, b)


def test_child_seed_is_deterministic_and_spreads():
    s1 = child_seed(42, 5, 0)
    assert s1 == child_seed(42, 5, 0)
    assert s1 != child_seed(42, 5, 1)
    assert isinstance(s1, int) and s1 >= 0
    rng = child_rng(s1)
    assert rng.standard_normal(2).shape == (2,)


def test_both_helpers_keep_their_frozen_streams():
    """child_rng and child_seed share one SeedSequence helper; the values
    are the ones each drew when it built its own sequence."""
    assert child_seed(42, 5, 0) == 5568657218127352044
    assert child_seed(0) == 15793235383387715774
    assert child_seed(2024, 3, 1, 7) == 1601863484574295990
    draws = child_rng(7, 1, 2).standard_normal(64).tobytes()
    assert hashlib.sha256(draws).hexdigest()[:16] == "338a42ad0ae8f484"
    draws = child_rng(0).integers(0, 2 ** 62, size=64).tobytes()
    assert hashlib.sha256(draws).hexdigest()[:16] == "0c0fb5c28bf51662"


@pytest.mark.parametrize("helper", [child_rng, child_seed])
def test_a_negative_seed_is_refused_by_name(helper):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        helper(-1, 0)
