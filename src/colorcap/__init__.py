"""Exact capacities and bounds for systems of coloring channels.

A coloring channel keeps the letters in one subset of the alphabet and
deletes the rest, preserving order.  A system of such channels maps a word
to its tuple of per-channel views; this package computes how many distinct
view tuples length-n words can produce, exactly where a closed form exists
and by sandwich bounds otherwise, and checks everything against exhaustive
enumeration.
"""

from .bounds import bounds, bounds_cycle, bounds_general
from .capacity import (
    CapacityResult, capacity, capacity_path, capacity_single, capacity_sunflower,
    capacity_two_sets, path_profile,
)
from .channels import ChannelSystem, apply_channel, apply_system
from .oracle import (
    BudgetExceededError, EnumerationReport, ReconstructionError, count_outputs,
    reconstruct_view, verify_pairs_equality,
)
from .systems import (
    Cycle, FullClique, General, Path, Reducible, Separable, SingleChannel,
    Sunflower, SystemClass, TwoSets, classify, max_clique, remove_dominated,
    separable_split,
)

__version__ = "0.1.0"

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
