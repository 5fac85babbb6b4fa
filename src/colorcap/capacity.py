"""Exact capacities of structured channel systems.

Capacity is measured in alphabet units: ccap = limsup (1/n) log_q of the
number of distinguishable output tuples of length-n words, so a lossless
system has capacity 1.  The output counts depend only on the pairs graph G
and satisfy sum_n T_n z^n = 1/I(G, -z), where I is G's independence
polynomial (Cartier-Foata, Viennot's heaps of pieces).  So every exact
capacity below is log_q(1/rho) for the least root rho of I(G, -z), and each
result carries the optimizing letter-frequency profile as a witness.

Logarithms in base q are math.log(x, q), in double precision.
"""

from __future__ import annotations

import math

from .channels import ChannelSystem, Record, _check_alphabet, _is_int
from .systems import (
    Path, Reducible, Separable, Sunflower, SystemClass, TwoSets, classify,
)


class CapacityResult(Record):
    """Either an exact capacity or a [lower, upper] sandwich, with witness.

    kind is "exact" (value set) or "bounds" (lower and upper set).
    """

    def __init__(self, kind: str, method: str, value: float | None = None,
                 lower: float | None = None, upper: float | None = None,
                 witness: dict | None = None):
        eps = 1e-9
        if kind == "exact":
            if value is None or not -eps <= value <= 1 + eps:
                raise ValueError(f"exact capacity outside [0, 1]: {value}")
        elif kind == "bounds":
            if lower is None or upper is None:
                raise ValueError("bounds result needs both endpoints")
            if not -eps <= lower <= upper + eps or upper > 1 + eps:
                raise ValueError(f"bad interval [{lower}, {upper}]")
        else:
            raise ValueError(f"kind must be 'exact' or 'bounds', got {kind!r}")
        self.__dict__.update(kind=kind, method=method, value=value, lower=lower,
                             upper=upper, witness={} if witness is None else witness)

    def interval(self) -> tuple[float, float]:
        if self.kind == "exact":
            return (self.value, self.value)
        return (self.lower, self.upper)

    def as_dict(self) -> dict:
        out: dict = {"kind": self.kind, "method": self.method}
        if self.kind == "exact":
            out["value"] = self.value
        else:
            out["lower"] = self.lower
            out["upper"] = self.upper
        out["witness"] = self.witness
        return out


def capacity_single(size: int, q: int) -> CapacityResult:
    """A single channel of the given size transmits log_q(size) exactly."""
    _check_alphabet(q)
    if not _is_int(size) or not 1 <= size <= q:
        raise ValueError(f"channel size must be an integer in 1..{q}, got {size!r}")
    return CapacityResult("exact", "single_channel", value=math.log(size, q),
                          witness={"size": size})


def capacity_sunflower(k: int, p: int, t: int, q: int) -> CapacityResult:
    """Capacity of a (k, p, t)-sunflower: t channels of size k+p whose
    pairwise intersections all equal a common core of size k.

    The pairs graph's independence polynomial is (1 + p x)^t + k x, so the
    value is -log_q(rho) for the one root rho in (0, 1/p) of
        (1 - p rho)^t  =  k rho,
    found by bisection down to adjacent doubles.  The witness y* is the
    fraction of input symbols drawn from the petals,
        y* = P / (k + P)  with  P = t p (1 - p rho)^(t-1).
    """
    _check_alphabet(q)
    if not all(map(_is_int, (k, p, t))) or min(k, p, t) < 1:
        raise ValueError(f"need integers k, p, t >= 1, got ({k!r}, {p!r}, {t!r})")
    if k + t * p > q:
        raise ValueError(f"a ({k},{p},{t})-sunflower needs {k + t * p} letters, "
                         f"alphabet has {q}")
    lo, hi = 0.0, 1.0 / p
    mid = hi / 2.0
    while lo < mid < hi:
        if (1.0 - p * mid) ** t > k * mid:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2.0
    petals = t * p * (1.0 - p * hi) ** (t - 1)
    return CapacityResult("exact", "sunflower", value=-math.log(hi, q),
                          witness={"k": k, "p": p, "t": t,
                                   "y_star": petals / (k + petals)})


def capacity_two_sets(k: int, p1: int, p2: int, q: int) -> CapacityResult:
    """Capacity of a pair of channels with core size k and petal sizes p1, p2.

    The pairs graph's independence polynomial is 1 + s x + p1 p2 x^2 with
    s = k + p1 + p2, so the value is log_q((s + d) / 2), d = sqrt(s^2 - 4 p1 p2).
    The input fraction of petal-i letters is
        x_i* = 1/2 - (k + p_j - p_i) / (2 d).
    """
    _check_alphabet(q)
    if not all(map(_is_int, (k, p1, p2))) or min(k, p1, p2) < 1:
        raise ValueError(f"need integers k, p1, p2 >= 1, got ({k!r}, {p1!r}, {p2!r})")
    if k + p1 + p2 > q:
        raise ValueError(f"two sets with parameters ({k},{p1},{p2}) need "
                         f"{k + p1 + p2} letters, alphabet has {q}")
    disc = math.sqrt((k + p1 + p2) ** 2 - 4 * p1 * p2)
    x1 = 0.5 - (k + p2 - p1) / (2 * disc)
    x2 = 0.5 - (k + p1 - p2) / (2 * disc)
    return CapacityResult("exact", "two_sets", value=math.log((k + p1 + p2 + disc) / 2, q),
                          witness={"k": k, "p1": p1, "p2": p2,
                                   "x1_star": x1, "x2_star": x2})


def path_profile(t: int) -> tuple[float, list[float], list[float]]:
    """Optimizing profile (m*, r*, alpha*) for a path of t channels.

        m* = 2 + 2 cos(2 pi / (t+3))
        r*_0 = m* - 1,   r*_i = ((m*-1) r*_{i-1} - 1) / (r*_{i-1} + 1)
        alpha*_i  proportional to  prod_{j<i} r*_j,  normalized to sum 1.

    alpha*_i is the optimal input frequency of the i-th path letter; the
    ratios satisfy r*_{t-1} = 1/(m* - 1) at the far endpoint.
    """
    if not _is_int(t) or t < 2:
        raise ValueError(f"need an integer t >= 2, got {t!r}")
    m = 2.0 + 2.0 * math.cos(2.0 * math.pi / (t + 3))
    r = [m - 1.0]
    for _ in range(t - 1):
        r.append(((m - 1.0) * r[-1] - 1.0) / (r[-1] + 1.0))
    prods = [1.0]
    for ri in r:
        prods.append(prods[-1] * ri)
    total = math.fsum(prods)
    alpha = [pr / total for pr in prods]
    return m, r, alpha


def capacity_path(t: int, q: int) -> CapacityResult:
    """Capacity of a path of t channels {s0,s1}, ..., {s_{t-1},s_t}.

    The value is log_q(m*) with m* from path_profile, whose alpha* is the
    optimizing letter profile.  A 2-path is a (1,1,2)-sunflower.
    """
    _check_alphabet(q)
    if _is_int(t) and t + 1 > q:
        raise ValueError(f"a path of {t} channels needs {t + 1} letters, "
                         f"alphabet has {q}")
    m, r, alpha = path_profile(t)  # refuses a t that is not an integer >= 2
    return CapacityResult("exact", "path", value=math.log(m, q),
                          witness={"t": t, "m_star": m, "r_star": r,
                                   "alpha_star": alpha})


def _dispatch(system: ChannelSystem, leaf_fn) -> CapacityResult:
    """Follow classify(): reduce, split, recurse, and combine by the max rule.

    leaf_fn(system, cls) handles an irreducible system of class cls.
    Component results combine into an exact maximum when all are exact,
    otherwise into the interval of the pointwise maxima.  The witness
    records the reduction chain; a separable system's winner is the first
    component with the largest lower end.
    """
    cls = classify(system)
    if isinstance(cls, Reducible):
        result = _dispatch(cls.reduced, leaf_fn)
        kept, removed = set(cls.reduced.channels), []
        for ch in system.channels:
            if ch in kept:
                kept.remove(ch)  # the first copy of a survivor stays
            else:
                removed.append(sorted(ch))
        return CapacityResult(result.kind, result.method, result.value, result.lower,
                              result.upper, {**result.witness, "removed_channels": removed})
    if isinstance(cls, Separable):
        parts = [_dispatch(c, leaf_fn) for c in cls.components]
        lowers = [p.interval()[0] for p in parts]
        uppers = [p.interval()[1] for p in parts]
        winner = max(range(len(parts)), key=lambda i: lowers[i])
        witness = {"components": [p.as_dict() for p in parts], "winner": winner}
        if all(p.kind == "exact" for p in parts):
            return CapacityResult("exact", "separable", value=max(lowers),
                                  witness=witness)
        return CapacityResult("bounds", "separable", lower=max(lowers),
                              upper=max(uppers), witness=witness)
    return leaf_fn(system, cls)


def _capacity_leaf(leaf: ChannelSystem, cls: SystemClass) -> CapacityResult:
    if isinstance(cls, TwoSets):
        return capacity_two_sets(cls.k, cls.p1, cls.p2, leaf.q)
    if isinstance(cls, Sunflower):
        return capacity_sunflower(cls.k, cls.p, cls.t, leaf.q)
    if isinstance(cls, Path):
        return capacity_path(cls.t, leaf.q)
    # bounds imports this module, so its leaf solver is imported at the call,
    # after the shape leaves that never reach it
    from .bounds import _bound_leaf

    return _bound_leaf(leaf, cls)


def capacity(system: ChannelSystem) -> CapacityResult:
    """Best known capacity statement for an arbitrary system.

    Dominated channels are dropped, separable systems take the maximum over
    their components, and the irreducible core dispatches on its structural
    class: exact formulas where one exists, interval bounds otherwise.
    """
    return _dispatch(system, _capacity_leaf)
