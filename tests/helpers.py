"""Helpers shared by several test modules; pytest collects nothing here."""

from colorcap import ChannelSystem


def restrict_alphabet(system: ChannelSystem) -> ChannelSystem:
    """Relabel the letters actually used onto 1..m, dropping unused ones.

    Output counts are invariant under the relabeling, so this is the right
    form for counting a separable component on its own letters.
    """
    used = sorted(system.letters)
    if len(used) < 2:
        raise ValueError("restriction needs at least 2 used letters")
    relabel = {a: i + 1 for i, a in enumerate(used)}
    return ChannelSystem(len(used), [{relabel[a] for a in ch} for ch in system.channels])
