"""Capacity bounds where no exact formula is known.

For an irreducible system the clique number omega of the pairs graph
sandwiches the capacity: a clique of co-occurring letters is transmitted
losslessly, and a counting argument caps the rate at log_q(omega * t * e).
omega is the size of systems.max_clique.  Cycles of 2-set channels get a
tailored sandwich: the cycle contains a path (lower) and its pairs graph
sits inside a (2,1,2)-sunflower's (upper).
"""

from __future__ import annotations

import math

from .capacity import CapacityResult, _dispatch, capacity_path, capacity_single
from .channels import ChannelSystem, _check_alphabet, _is_int
from .systems import (
    Cycle, FullClique, SingleChannel, SystemClass, _require_irreducible, max_clique,
)


def bounds_general(system: ChannelSystem) -> CapacityResult:
    """Clique-number sandwich log_q(omega) <= ccap <= log_q(omega * t * e).

    Requires an irreducible system with t >= 2, by the guard it shares with
    verify_pairs_equality.  omega is the size of systems.max_clique.  The
    upper end is clamped to 1, the trivial cap for any system.  This is the
    General leaf of bounds() and capacity(), and the two-set, sunflower and
    path leaf of bounds().
    """
    _require_irreducible(system, "clique sandwich")
    clique = max_clique(system)
    omega = len(clique)
    lower = math.log(omega, system.q)
    upper = min(1.0, math.log(omega * system.t * math.e, system.q))
    return CapacityResult("bounds", "general", lower=lower, upper=upper,
                          witness={"omega": omega, "clique": sorted(clique),
                                   "t": system.t})


def bounds_cycle(t: int, q: int) -> CapacityResult:
    """Sandwich for a cycle of t >= 4 channels {s0,s1}, ..., {s_{t-1},s0}.

    Lower: the cycle contains a path of t-1 channels.  Upper: for t = 4 the
    pairs graph embeds in a (2,1,2)-sunflower's, whose growth rate 2 + sqrt(3)
    is 1/rho for the root rho = 2 - sqrt(3) of (1 - rho)^2 = 2 rho; for t >= 5
    the four-letter alphabet of any window caps the rate at log_q 4.
    """
    _check_alphabet(q)
    if t == 3 and _is_int(t):
        raise ValueError("a cycle of 3 channels has a complete pairs graph; "
                         "classify the system instead of bounding it")
    if not _is_int(t) or t < 4:
        raise ValueError(f"a cycle's channel count must be an integer >= 4, got {t!r}")
    if t > q:
        raise ValueError(f"a cycle of {t} channels needs {t} letters, "
                         f"alphabet has {q}")
    path = capacity_path(t - 1, q)
    upper = math.log(2.0 + math.sqrt(3.0) if t == 4 else 4, q)
    return CapacityResult("bounds", "cycle", lower=path.value, upper=upper,
                          witness={"t": t, "lower_path": path.witness})


def _bound_leaf(core: ChannelSystem, cls: SystemClass) -> CapacityResult:
    if isinstance(cls, SingleChannel):
        return capacity_single(cls.size, core.q)
    if isinstance(cls, FullClique):
        return CapacityResult("exact", "full_clique", value=1.0,
                              witness={"q": core.q})
    if isinstance(cls, Cycle):
        return bounds_cycle(cls.t, core.q)
    return bounds_general(core)


def bounds(system: ChannelSystem) -> CapacityResult:
    """Sandwich for an arbitrary system, ignoring exact structural formulas.

    Same reduction chain as capacity(): dominated channels are dropped and
    separable components combine by the max rule.  Each irreducible core is
    bounded by its clique sandwich (cycles get the tailored one); single
    channels and covering designs are lossless cases reported exactly.
    """
    return _dispatch(system, _bound_leaf)

