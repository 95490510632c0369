"""The TOSG generic graph pattern object."""
import pytest

from repro.core.pattern import TOSGPattern


@pytest.mark.parametrize("d,h,variant", [(1, 1, "d1h1"), (2, 1, "d2h1"), (1, 2, "d1h2"), (2, 2, "d2h2")])
def test_variant_naming(d, h, variant):
    assert TOSGPattern(d, h).variant == variant


@pytest.mark.parametrize("d", [0, 3, -1])
def test_invalid_direction_rejected(d):
    with pytest.raises(ValueError):
        TOSGPattern(d=d)


@pytest.mark.parametrize("h", [0, -2])
def test_invalid_hops_rejected(h):
    with pytest.raises(ValueError):
        TOSGPattern(h=h)


def test_pattern_frozen_hashable():
    assert len({TOSGPattern(1, 1), TOSGPattern(1, 1), TOSGPattern(2, 1)}) == 2
