"""Exact capacities and bounds for systems of coloring channels.

A coloring channel keeps the letters in one subset of the alphabet and
deletes the rest, preserving order.  A system of such channels maps a word
to its tuple of per-channel views; this package computes how many distinct
view tuples length-n words can produce, exactly where a closed form exists
and by sandwich bounds otherwise, and checks everything against exhaustive
enumeration.
"""

import sys as _sys

from .bounds import bounds, bounds_cycle, bounds_general
from .capacity import (
    CapacityResult, capacity, capacity_path, capacity_single, capacity_sunflower,
    capacity_two_sets, path_profile,
)
from .channels import (
    BudgetExceededError, ChannelSystem, ReconstructionError, apply_channel, apply_system,
)
from .systems import (
    Cycle, FullClique, General, Path, Reducible, Separable, SingleChannel,
    Sunflower, SystemClass, TwoSets, classify, max_clique, remove_dominated,
    separable_split,
)

__version__ = "0.1.0"

# The oracle's names load colorcap.oracle on first use (PEP 562), since the
# closed forms and bounds never need it.  Nothing is cached here: each lookup
# reads the oracle module, so a name rebound there shows here at once.
_ORACLE_NAMES = frozenset({
    "EnumerationReport", "count_outputs", "reconstruct_view", "verify_pairs_equality",
})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        oracle = _sys.modules.get(f"{__name__}.oracle")  # faster than the import once loaded
        if oracle is None:
            from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _ORACLE_NAMES)


__all__ = [
    "BudgetExceededError",
    "CapacityResult",
    "ChannelSystem",
    "Cycle",
    "EnumerationReport",
    "FullClique",
    "General",
    "Path",
    "Reducible",
    "ReconstructionError",
    "Separable",
    "SingleChannel",
    "Sunflower",
    "SystemClass",
    "TwoSets",
    "apply_channel",
    "apply_system",
    "bounds",
    "bounds_cycle",
    "bounds_general",
    "capacity",
    "capacity_path",
    "capacity_single",
    "capacity_sunflower",
    "capacity_two_sets",
    "classify",
    "count_outputs",
    "max_clique",
    "path_profile",
    "reconstruct_view",
    "remove_dominated",
    "separable_split",
    "verify_pairs_equality",
]
