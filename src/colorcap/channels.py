"""Coloring channels over a finite alphabet.

The alphabet is [q] = {1, ..., q}.  A coloring channel is a nonempty subset
I of [q]: on input x it keeps the symbols lying in I, in order, and deletes
the rest.  A channel system is a finite sequence of coloring channels over a
common alphabet; the output of a word under the system is the tuple of its
per-channel projections.  Two equal-length words are confusable when they
produce the same output tuple, i.e. no receiver seeing all projections can
tell them apart.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Set

Word = tuple[int, ...]


class Record:
    """Immutable value object whose fields are its instance dict.

    Each subclass's __init__ writes its fields straight into that dict, in
    order; equality (same type, same fields), hashing and the repr read it
    back.  Unlike a frozen dataclass, this costs the import nothing.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


class ChannelSystem(Record):
    """A sequence of coloring channels over the alphabet [q].

    Channels are stored as frozensets; the constructor accepts any iterable
    of iterables of letters.  Order is significant (outputs are tuples
    indexed by channel), duplicates are allowed.
    """

    def __init__(self, q: int, channels: Iterable[Iterable[int]]):
        if not isinstance(q, int) or isinstance(q, bool) or q < 2:
            raise ValueError(f"alphabet size must be an integer >= 2, got {q!r}")
        normalized = tuple(frozenset(c) for c in channels)
        if not normalized:
            raise ValueError("a channel system needs at least one channel")
        for i, ch in enumerate(normalized):
            if not ch:
                raise ValueError(f"channel {i + 1} is empty")
            bad = [a for a in ch if not isinstance(a, int) or isinstance(a, bool)
                   or not 1 <= a <= q]
            if bad:
                raise ValueError(
                    f"channel {i + 1}: letter {bad[0]!r} outside 1..{q}")
        self.__dict__.update(q=q, channels=normalized)

    @property
    def t(self) -> int:
        return len(self.channels)

    @property
    def letters(self) -> frozenset[int]:
        """Union of all channel letter sets (letters the system can see)."""
        return frozenset().union(*self.channels)


def apply_channel(word: Sequence[int], channel: Set[int]) -> Word:
    """Project a word onto a channel: keep symbols in the channel, in order."""
    return tuple(a for a in word if a in channel)


def apply_system(word: Sequence[int], system: ChannelSystem) -> tuple[Word, ...]:
    """Output tuple of a word: one projection per channel, in channel order."""
    return tuple(apply_channel(word, ch) for ch in system.channels)

