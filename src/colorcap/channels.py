"""Coloring channels over a finite alphabet.

The alphabet is [q] = {1, ..., q}.  A coloring channel is a nonempty subset
I of [q]: on input x it keeps the symbols lying in I, in order, and deletes
the rest.  A channel system is a finite sequence of coloring channels over a
common alphabet; the output of a word under the system is the tuple of its
per-channel projections.  Two equal-length words are confusable when they
produce the same output tuple, i.e. no receiver seeing all projections can
tell them apart.

The refusals of the counting oracle (BudgetExceededError, with its default
budget) and of reconstruction (ReconstructionError) live here too, beside
the records, so the CLI can map them to exit codes without loading
colorcap.oracle; that module re-exports them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Set
from itertools import chain

Word = tuple[int, ...]

DEFAULT_BUDGET = 200_000_000


def _is_int(x) -> bool:
    """Whether x counts as an integer argument: an int, but not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_alphabet(q) -> None:
    """Refuse an alphabet size that is not an integer >= 2."""
    if not _is_int(q) or q < 2:
        raise ValueError(f"alphabet size must be an integer >= 2, got {q!r}")


class BudgetExceededError(RuntimeError):
    """Enumeration refused: the state space exceeds the configured budget."""

    def __init__(self, q: int, n: int, limit: int):
        self.q, self.n, self.limit = q, n, limit
        super().__init__(
            f"enumerating {q}^{n} words exceeds the budget of {limit} states; "
            f"raise the budget to force it")


class ReconstructionError(ValueError):
    """The pairwise views are not the projections of any single word."""


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

    Every channel must be nonempty and every letter an int (not a bool) in
    1..q.  A valid system is accepted by C-level checks over all channels'
    letters chained together (their types all exactly int, their minimum
    and maximum in range); only when those fail does a loop check each
    channel's letters, accepting int subclasses and naming the first bad
    channel and letter.

    The slot _known holds this instance's structure results (its class and
    maximum clique, see colorcap.systems), each computed on first use.  It
    is not a field: equality, hashing, the repr and vars() never read it,
    and a copy or an unpickled system starts with it empty.
    """

    __slots__ = ("_known",)

    def __init__(self, q: int, channels: Iterable[Iterable[int]]):
        _check_alphabet(q)
        normalized = tuple(frozenset(c) for c in channels)
        if not normalized:
            raise ValueError("a channel system needs at least one channel")
        # chained, not united: a union keeps a 1 and drops a 1.0 beside it
        letters = [*chain.from_iterable(normalized)]
        if not (all(normalized) and set(map(type, letters)) == {int}
                and min(letters) >= 1 and max(letters) <= q):
            # letter by letter, to accept int subclasses or name the bad letter
            for i, ch in enumerate(normalized):
                if not ch:
                    raise ValueError(f"channel {i + 1} is empty")
                bad = [a for a in ch if not _is_int(a) or not 1 <= a <= q]
                if bad:
                    raise ValueError(
                        f"channel {i + 1}: letter {bad[0]!r} outside 1..{q}")
        self.__dict__.update(q=q, channels=normalized)
        object.__setattr__(self, "_known", {})

    def __reduce__(self):
        # rebuild through __init__: Record.__setattr__ refuses the slot state
        return (type(self), (self.q, self.channels))

    @property
    def t(self) -> int:
        return len(self.channels)


def apply_channel(word: Sequence[int], channel: Set[int]) -> Word:
    """Project a word onto a channel: keep symbols in the channel, in order."""
    return tuple(a for a in word if a in channel)


def apply_system(word: Sequence[int], system: ChannelSystem) -> tuple[Word, ...]:
    """Output tuple of a word: one projection per channel, in channel order."""
    return tuple(apply_channel(word, ch) for ch in system.channels)

