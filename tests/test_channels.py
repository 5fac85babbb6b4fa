import enum

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from colorcap import ChannelSystem, apply_channel, apply_system
from helpers import reference_letter_error, visible_letters


def confusable(x, y, system):
    """Whether two equal-length words have identical output tuples."""
    if len(x) != len(y):
        raise ValueError(f"words must have equal length, got {len(x)} and {len(y)}")
    return apply_system(x, system) == apply_system(y, system)


def test_apply_channel_keeps_order():
    x = (3, 1, 2, 2, 1, 2, 3)
    assert apply_channel(x, frozenset({1, 3})) == (3, 1, 1, 3)
    assert apply_channel(x, frozenset({2})) == (2, 2, 2)
    assert apply_channel(x, frozenset({1, 2, 3})) == x


def test_apply_system_tuple_of_views():
    system = ChannelSystem(3, [[1, 3], [2, 3]])
    assert apply_system((3, 1, 2, 2, 1, 2, 3), system) == (
        (3, 1, 1, 3),
        (3, 2, 2, 2, 3),
    )


def test_apply_channel_empty_result():
    assert apply_channel((1, 1, 1), frozenset({2})) == ()
    assert apply_channel((), frozenset({1})) == ()


def test_confusable_basic():
    system = ChannelSystem(2, [[1], [2]])
    # both words have two 1s and one 2, so both views agree
    assert confusable((1, 2, 1), (2, 1, 1), system)
    assert not confusable((1, 2, 1), (1, 1, 2), ChannelSystem(2, [[1, 2]]))


def test_confusable_length_mismatch():
    system = ChannelSystem(2, [[1]])
    with pytest.raises(ValueError):
        confusable((1,), (1, 2), system)


def test_system_validation():
    with pytest.raises(ValueError):
        ChannelSystem(1, [[1]])
    with pytest.raises(ValueError):
        ChannelSystem(True, [[1]])
    with pytest.raises(ValueError):
        ChannelSystem(3, [])
    with pytest.raises(ValueError):
        ChannelSystem(3, [[]])
    # a letter equal to 1 but not an int: the union of the letters would
    # keep the 1 and drop it, so each channel is checked on its own
    for bad in ([0], [1.0], [True]):
        with pytest.raises(ValueError, match="channel 2"):
            ChannelSystem(3, [[1], bad])
    with pytest.raises(ValueError):
        ChannelSystem(3, [[4]])


class Letter(enum.IntEnum):
    """An int subclass: the per-letter rule takes its members as letters."""
    ZERO, ONE, TWO, THREE = range(4)


@st.composite
def channel_lists(draw):
    """(q, channels) of letters in 1..q, to which some channels add 0 or
    q + 1, and some a bool, a float equal to a letter or an IntEnum member;
    one list in four gets an empty channel somewhere."""
    q = draw(st.integers(2, 5))
    channels = draw(st.lists(st.lists(st.integers(1, q), min_size=1, max_size=4),
                             min_size=1, max_size=5))
    odd = st.one_of(st.booleans(), st.integers(1, q).map(float), st.sampled_from(Letter))
    for extra in (st.sampled_from([0, q + 1]), odd):
        if draw(st.booleans()):
            channels[draw(st.integers(0, len(channels) - 1))].append(draw(extra))
    if draw(st.integers(0, 3)) == 0:
        channels.insert(draw(st.integers(0, len(channels))), [])
    return q, channels


@given(channel_lists())
@example((3, [[0]]))
@example((3, [[1], [4]]))
@example((3, [[], [0]]))
@example((3, [[0], []]))
@example((3, [[1, 2], [1.0], [2]]))
@example((3, [[1], [2.0, 3]]))
@example((3, [[2], [True]]))
@example((3, [[1, True]]))
@example((3, [[Letter.ONE, 2], [Letter.THREE]]))
@example((3, [[Letter.ZERO], [1]]))
def test_system_accepts_what_the_per_letter_rule_accepts(case):
    # the checks over the chained letters accept no more, and refuse with
    # the per-letter rule's message
    q, channels = case
    error = reference_letter_error(q, channels)
    if error is None:
        assert ChannelSystem(q, channels).channels == tuple(map(frozenset, channels))
    else:
        with pytest.raises(ValueError) as info:
            ChannelSystem(q, channels)
        assert str(info.value) == error


def test_system_normalizes_input():
    a = ChannelSystem(3, [[1, 3], [2, 3]])
    b = ChannelSystem(3, ({3, 1}, (2, 3)))
    assert a == b
    assert a.t == 2
    assert visible_letters(a) == frozenset({1, 2, 3})


words = st.integers(2, 5).flatmap(
    lambda q: st.tuples(
        st.just(q), st.lists(st.integers(1, q), max_size=12).map(tuple)
    )
)


@given(words, st.data())
def test_projection_is_idempotent(qw, data):
    q, x = qw
    channel = frozenset(data.draw(st.sets(st.integers(1, q), min_size=1)))
    once = apply_channel(x, channel)
    assert apply_channel(once, channel) == once


@given(words, st.data())
def test_projection_length_counts_members(qw, data):
    q, x = qw
    channel = frozenset(data.draw(st.sets(st.integers(1, q), min_size=1)))
    assert len(apply_channel(x, channel)) == sum(a in channel for a in x)


@given(words, st.data())
def test_projection_is_subsequence(qw, data):
    q, x = qw
    channel = frozenset(data.draw(st.sets(st.integers(1, q), min_size=1)))
    projected = apply_channel(x, channel)
    it = iter(x)
    assert all(any(a == b for b in it) for a in projected)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=10).map(tuple))
def test_confusability_is_reflexive(x):
    system = ChannelSystem(3, [[1, 3], [2, 3]])
    assert confusable(x, x, system)


triples = st.tuples(*[
    st.lists(st.integers(1, 3), min_size=6, max_size=6).map(tuple)
] * 3)


@given(triples)
def test_confusability_is_an_equivalence(xyz):
    system = ChannelSystem(3, [[1, 2], [2, 3]])
    x, y, z = xyz
    assert confusable(x, y, system) == confusable(y, x, system)
    if confusable(x, y, system) and confusable(y, z, system):
        assert confusable(x, z, system)


@given(triples)
def test_dominated_channel_never_separates(xyz):
    # a channel contained in another one can be dropped without changing
    # which words are confusable
    with_small = ChannelSystem(3, [[1, 2], [2, 3], [2]])
    without = ChannelSystem(3, [[1, 2], [2, 3]])
    x, y, _ = xyz
    assert confusable(x, y, with_small) == confusable(x, y, without)


def test_dominated_channel_adds_no_information():
    # {2,3} refines {2,3,4}'s view only apparently: the projection of the
    # larger view through the smaller channel is the smaller view
    big = frozenset({2, 3, 4})
    small = frozenset({2, 3})
    for x in [(2, 3, 4, 2), (4, 4, 4), (3, 2, 3, 2, 4)]:
        assert apply_channel(apply_channel(x, big), small) == apply_channel(x, small)
