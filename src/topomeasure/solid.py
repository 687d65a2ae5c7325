"""Solid and semisolid region classification, solid hulls, and decompositions.

A region is *semisolid* when it is connected and its complement has finitely
many components (always true on a finite model, so semisolid reduces to
connected here).  A region is *solid* when it is connected and, on a space
with an infinity cell, every component of its complement is unbounded; on a
compact space, when its complement is connected.

The *solid hull* of a connected bounded open-or-closed region is the region
together with all bounded components of its complement; it is the smallest
bounded solid superset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .space import FiniteSpace, Region, RegionError


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured cap; never silently truncated."""


# The catalog cap of every enumeration that is not given one of its own (the
# validators' ``catalog_cap`` and the command line's ``--budget`` default).
CATALOG_CAP = 200_000


class ModelViolation(RuntimeError):
    """A structural decomposition produced a piece whose classification
    contradicts the advertised class (degenerate complex)."""


@dataclass(frozen=True)
class SolidClass:
    connected: bool
    open: bool
    closed: bool
    bounded: bool
    compact: bool
    solid: bool
    semisolid: bool
    complement_component_count: int
    unbounded_complement_count: int


def is_solid_mask(sp: FiniteSpace, mask: int) -> bool:
    if not sp.connected(mask):
        return False
    comp = sp.x_mask & ~mask
    if sp.infinity is None:
        return sp.connected(comp)
    for m in sp.components_masks(comp):
        if sp.is_bounded_mask(m):
            return False
    return True


def classify(r: Region) -> SolidClass:
    sp = r.space
    mask = r.cells
    comp_masks = sp.components_masks(sp.x_mask & ~mask)
    unbounded = sum(1 for m in comp_masks if not sp.is_bounded_mask(m))
    connected = sp.connected(mask)
    bounded = sp.is_bounded_mask(mask)
    closed = sp.is_closed_mask(mask)
    if sp.infinity is None:
        solid = connected and len(comp_masks) <= 1
    else:
        solid = connected and unbounded == len(comp_masks)
    return SolidClass(
        connected=connected,
        open=sp.is_open_mask(mask),
        closed=closed,
        bounded=bounded,
        compact=closed and bounded,
        solid=solid,
        semisolid=connected,
        complement_component_count=len(comp_masks),
        unbounded_complement_count=unbounded,
    )


def hull_mask(sp: FiniteSpace, mask: int) -> int:
    out = mask
    for m in sp.components_masks(sp.x_mask & ~mask):
        if sp.is_bounded_mask(m):
            out |= m
    return out


def k_max_mask(sp: FiniteSpace, open_mask: int) -> int:
    """The maximal compact subset of an open set: cells whose full down-set
    (in the compactified poset) stays inside the set."""
    out = 0
    for c in FiniteSpace.cells_of(open_mask):
        if sp.down[c] & ~open_mask == 0:
            out |= 1 << c
    return out


def solid_hull(r: Region) -> Region:
    """Smallest bounded solid superset of a connected bounded open-or-closed
    region (the region plus the bounded components of its complement)."""
    sp = r.space
    mask = r.cells
    if not sp.connected(mask):
        raise RegionError("solid_hull requires a connected region")
    if not sp.is_bounded_mask(mask):
        raise RegionError("solid_hull requires a bounded region")
    if not (sp.is_open_mask(mask) or sp.is_closed_mask(mask)):
        raise RegionError("solid_hull requires an open or closed region")
    return Region(sp, hull_mask(sp, mask))


def decompose_open_minus_compact(
    v: Region, c: Region, allow_disjoint_union: bool = False
) -> list[tuple[Region, SolidClass]]:
    """Component decomposition of ``V \\ C`` for compact C inside open V.

    Each piece must come out open and semisolid; a piece that does not is a
    model violation (the complex is too coarse) and is reported, not guessed.
    """
    sp = v.space
    if sp is not c.space:
        raise RegionError("regions live on different spaces")
    if c.cells & ~v.cells:
        raise RegionError("C must be contained in V")
    cc = classify(c)
    if not cc.compact:
        raise RegionError("C must be compact")
    if not allow_disjoint_union and not cc.connected:
        raise RegionError("C must be connected (or pass allow_disjoint_union)")
    vc = classify(v)
    if not (vc.open or (vc.bounded and vc.semisolid)):
        raise RegionError("V must be open, or bounded semisolid")
    out = []
    for m in sp.components_masks(v.cells & ~c.cells):
        piece = Region(sp, m)
        cls = classify(piece)
        if vc.open and not cls.open:
            raise ModelViolation(
                f"component {sorted(piece.ids())} of V\\C is not open"
            )
        if not cls.semisolid:
            raise ModelViolation(
                f"component {sorted(piece.ids())} of V\\C is not semisolid"
            )
        out.append((piece, cls))
    return out


# ----- catalogs --------------------------------------------------------------
#
# Down-set / up-set catalogs are the workhorse of every validator.  They are
# enumerated by a recursion over cells in increasing id order: each down-set
# is grown cell by cell, and a pruning mask bans cells already decided against
# (keeping the enumeration duplicate-free and deterministic).


def _over_cap(sp: FiniteSpace, cap: int) -> BudgetExceeded:
    return BudgetExceeded(f"down-set catalog of {sp.name} exceeds cap {cap}")


def _enumerate_downsets(sp: FiniteSpace, cap: Optional[int]) -> list[int]:
    out = [0]
    _grow_downsets(sp, cap, out, 0, 0)
    out.sort()
    return out


def _grow_downsets(
    sp: FiniteSpace, cap: Optional[int], out: list[int], current: int, banned: int
) -> None:
    # A module-level recursion, not a self-calling closure: a closure is a
    # reference cycle, which would keep a catalog stopped at its cap alive
    # until the next garbage collection.
    if cap is not None and len(out) > cap:
        raise _over_cap(sp, cap)
    down, xm = sp.down, sp.x_mask
    for cell in range(sp.cell_count):
        bit = 1 << cell
        if bit & (current | banned) or not bit & xm:
            continue
        need = down[cell] & xm
        if need & banned:
            banned |= bit
            continue
        out.append(current | need)
        _grow_downsets(sp, cap, out, current | need, banned)
        banned |= bit


# Each catalog is cached once per space, whatever cap it was asked with: an
# enumeration that finishes is complete, and the cap only decides whether
# the complete list is too long.  Callers must not mutate the shared lists.


def downset_catalog(sp: FiniteSpace, cap: Optional[int] = None) -> list[int]:
    """All down-closed subsets of X (the closed regions), sorted.  Raises
    BudgetExceeded when there are more than ``cap`` of them."""
    hit = sp._cache.get("downsets")
    if hit is None:
        hit = sp._cache["downsets"] = _enumerate_downsets(sp, cap)
    elif cap is not None and len(hit) > cap:
        raise _over_cap(sp, cap)
    return hit


def upset_catalog(sp: FiniteSpace, cap: Optional[int] = None) -> list[int]:
    """All up-closed subsets of X (the open regions), sorted."""
    downsets = downset_catalog(sp, cap)
    hit = sp._cache.get("upsets")
    if hit is None:
        hit = sp._cache["upsets"] = sorted(sp.x_mask & ~d for d in downsets)
    return hit


def compact_solid_catalog(sp: FiniteSpace, cap: Optional[int] = None) -> list[int]:
    downsets = downset_catalog(sp, cap)
    hit = sp._cache.get("compact-solid")
    if hit is None:
        hit = sp._cache["compact-solid"] = [
            m for m in downsets if sp.is_bounded_mask(m) and is_solid_mask(sp, m)
        ]
    return hit


def bounded_open_solid_catalog(sp: FiniteSpace, cap: Optional[int] = None) -> list[int]:
    upsets = upset_catalog(sp, cap)
    hit = sp._cache.get("open-solid-bounded")
    if hit is None:
        hit = sp._cache["open-solid-bounded"] = [
            m for m in upsets if sp.is_bounded_mask(m) and is_solid_mask(sp, m)
        ]
    return hit


def bounded_solid_catalog(sp: FiniteSpace, cap: Optional[int] = None) -> list[int]:
    """All of 𝒜*_s(X) = compact solids ∪ bounded open solids, deduplicated
    (the empty region is both), sorted."""
    compacts = compact_solid_catalog(sp, cap)
    opens = bounded_open_solid_catalog(sp, cap)
    hit = sp._cache.get("bounded-solid")
    if hit is None:
        hit = sp._cache["bounded-solid"] = sorted(set(compacts) | set(opens))
    return hit


def enumerate_bounded_solid_sets(
    sp: FiniteSpace, cap: int
) -> Iterator[tuple[str, Region]]:
    """Stream of ("compact"|"open", region) over 𝒜*_s(X), each exactly once
    in (kind, mask) order.  Raises BudgetExceeded instead of truncating."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    emitted = 0
    for m in compact_solid_catalog(sp, cap):
        emitted += 1
        if emitted > cap:
            raise BudgetExceeded(f"bounded solid enumeration exceeds cap {cap}")
        yield ("compact", Region(sp, m))
    for m in bounded_open_solid_catalog(sp, cap):
        if m == 0:
            continue  # empty set already emitted on the compact side
        emitted += 1
        if emitted > cap:
            raise BudgetExceeded(f"bounded solid enumeration exceeds cap {cap}")
        yield ("open", Region(sp, m))


def interpolate(sp: FiniteSpace, k_mask: int, w_mask: int) -> Optional[tuple[int, int]]:
    """For compact K inside open semisolid W, find bounded open semisolid V and
    compact semisolid D with K ⊆ V ⊆ D ⊆ W; None if no such pair exists.
    Raises BudgetExceeded when the fallback search would scan more than
    CATALOG_CAP open sets."""
    if not sp.is_compact_mask(k_mask) or not sp.is_open_mask(w_mask):
        raise RegionError("interpolate needs compact K inside open W")
    if k_mask & ~w_mask:
        raise RegionError("K must be contained in W")
    # Minimal candidate: V = minimal open superset of K, D = closure(V).
    # Any open V covers up-closure(K) and any valid D covers closure(V), so
    # when this candidate is connected/bounded/inside W it is optimal.
    v = sp.up_closure_mask(k_mask)
    d = sp.closure_mask(v)
    if (
        not d & ~w_mask
        and sp.is_bounded_mask(d)
        and sp.connected(v)
        and sp.connected(d)
    ):
        return v, d
    # Fallback search (needed when K is disconnected): smallest connected
    # bounded open V between K and W whose closure stays inside W.
    for cand in sorted(upset_catalog(sp, CATALOG_CAP), key=lambda m: (m.bit_count(), m)):
        if k_mask & ~cand or cand & ~w_mask:
            continue
        dc = sp.closure_mask(cand)
        if dc & ~w_mask:
            continue
        if sp.is_bounded_mask(dc) and sp.connected(cand) and sp.connected(dc):
            return cand, dc
    return None
