"""Solid partitions, irreducible partitions, genus, and genus-0 shortcuts.

A *solid partition* of a solid target (or of X) splits it into finitely many
pairwise disjoint bounded solid pieces (compact solid or bounded open solid).
A partition of a compact X is *irreducible* when removing the union of any
proper subfamily of its closed members leaves a connected complement.  The
*genus* of a compact space is the maximal number of closed members of an
irreducible partition, minus one; genus 0 is equivalent to "no finite
disjoint family of closed solid proper subsets disconnects X".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .space import FiniteSpace, Region
from .solid import (
    BudgetExceeded,
    bounded_solid_catalog,
    compact_solid_catalog,
    is_solid_mask,
)


@dataclass(frozen=True)
class SolidPartition:
    target: Region
    parts: tuple[Region, ...]
    closed_part_indices: tuple[int, ...]

    def part_masks(self) -> tuple[int, ...]:
        return tuple(p.cells for p in self.parts)


# Largest disjoint closed-solid family the genus search tries, the work
# budget of its exact partition enumeration, and the most closed members
# whose subfamilies an irreducibility check walks.
_FAMILY_SIZE_BOUND = 5
_EXACT_PARTITION_BUDGET = 500_000
_MAX_CLOSED = 20


@dataclass(frozen=True)
class GenusReport:
    genus: int
    exact: bool
    witness: Optional[SolidPartition]
    notes: tuple[str, ...] = field(default_factory=tuple)


def enumerate_solid_partitions(
    target: Region,
    max_parts: int = 8,
    budget: int = 2_000_000,
) -> Iterator[SolidPartition]:
    """Every partition of the target into at most ``max_parts`` nonempty
    bounded solid pieces, each emitted exactly once in canonical order
    (the part containing the least uncovered cell is chosen first, candidates
    in increasing mask order).  Raises BudgetExceeded past the work budget.
    """
    sp = target.space
    if not (target.cells == sp.x_mask or is_solid_mask(sp, target.cells)):
        raise ValueError("partition target must be solid or all of X")
    if target.cells == 0:
        return
    compact_set = set(compact_solid_catalog(sp, budget))
    candidates = [m for m in bounded_solid_catalog(sp, budget) if m and not m & ~target.cells]
    # Index candidates by their least cell for the canonical recursion.
    by_least: dict[int, list[int]] = {}
    for m in candidates:
        by_least.setdefault((m & -m).bit_length() - 1, []).append(m)
    work = 0

    def build(parts: tuple[int, ...]) -> SolidPartition:
        regions = tuple(Region(sp, m) for m in parts)
        closed = tuple(i for i, m in enumerate(parts) if m in compact_set)
        return SolidPartition(target, regions, closed)

    def rec(remaining: int, parts: tuple[int, ...]) -> Iterator[SolidPartition]:
        nonlocal work
        if remaining == 0:
            yield build(parts)
            return
        if len(parts) == max_parts:
            return
        least = (remaining & -remaining).bit_length() - 1
        for m in by_least.get(least, ()):
            work += 1
            if work > budget:
                raise BudgetExceeded(
                    f"partition enumeration of {sp.name} exceeds budget {budget}"
                )
            if m & ~remaining:
                continue
            yield from rec(remaining & ~m, parts + (m,))

    yield from rec(target.cells, ())


def is_irreducible(p: SolidPartition) -> bool:
    """Whether removing every proper subfamily of the closed members leaves a
    connected complement (partition of X on a compact space)."""
    sp = p.target.space
    if sp.infinity is not None:
        raise ValueError("irreducibility is defined for partitions of a compact X")
    if p.target.cells != sp.x_mask:
        raise ValueError("irreducibility is defined for partitions of X")
    closed_masks = [p.parts[i].cells for i in p.closed_part_indices]
    if len(closed_masks) > _MAX_CLOSED:
        raise BudgetExceeded(
            f"partition has {len(closed_masks)} closed members; bound is {_MAX_CLOSED}"
        )
    for subset in range(1, 1 << len(closed_masks)):
        if subset == (1 << len(closed_masks)) - 1:
            continue  # only proper subfamilies
        removed = 0
        for i, m in enumerate(closed_masks):
            if subset >> i & 1:
                removed |= m
        if not sp.connected(sp.x_mask & ~removed):
            return False
    return True


def _disjoint_closed_families(sp: FiniteSpace, budget: int) -> Iterator[tuple[int, ...]]:
    """Disjoint families (1 to _FAMILY_SIZE_BOUND members) of nonempty proper
    closed solid sets, canonical increasing order; raises BudgetExceeded past
    the work budget."""
    candidates = [m for m in compact_solid_catalog(sp, budget) if m and m != sp.x_mask]
    work = 0

    def rec(start: int, chosen: tuple[int, ...], used: int) -> Iterator[tuple[int, ...]]:
        nonlocal work
        if chosen:
            yield chosen
        if len(chosen) == _FAMILY_SIZE_BOUND:
            return
        for i in range(start, len(candidates)):
            m = candidates[i]
            work += 1
            if work > budget:
                raise BudgetExceeded(
                    f"closed-solid family search on {sp.name} exceeds budget {budget}"
                )
            if m & used:
                continue
            yield from rec(i + 1, chosen + (m,), used | m)

    yield from rec(0, (), 0)


def _partition_from_family(sp: FiniteSpace, family: tuple[int, ...]) -> Optional[SolidPartition]:
    """Recover a nontrivial irreducible partition of X from a disjoint
    closed-solid family whose removal disconnects X: shrink to a minimal
    disconnecting subfamily, take the complement components as open parts,
    and re-validate everything."""
    fam = list(family)
    # Greedily drop members while the complement stays disconnected.
    changed = True
    while changed:
        changed = False
        for i in range(len(fam)):
            trial = fam[:i] + fam[i + 1 :]
            if trial and not sp.connected(sp.x_mask & ~sum(trial)):
                fam = trial
                changed = True
                break
    removed = 0
    for m in fam:
        removed |= m
    open_parts = sp.components_masks(sp.x_mask & ~removed)
    parts = [*fam, *open_parts]
    for m in parts:
        if not is_solid_mask(sp, m):
            return None
    regions = tuple(Region(sp, m) for m in fam) + tuple(Region(sp, m) for m in open_parts)
    p = SolidPartition(Region(sp, sp.x_mask), regions, tuple(range(len(fam))))
    if len(fam) < 2 or not is_irreducible(p):
        return None
    return p


def genus(sp: FiniteSpace, budget: int = 2_000_000) -> GenusReport:
    """Genus of a compact space.

    Genus 0 is decided by exhausting disjoint closed-solid families up to the
    bound (no family disconnects X).  When a disconnecting family exists, a
    nontrivial irreducible partition is recovered from it (genus >= its closed
    count - 1); the verdict is exact when a full partition enumeration within
    budget confirms no irreducible partition has more closed members.
    """
    if sp.infinity is not None:
        raise ValueError("genus is defined for compact spaces; apply to the compactification")
    notes: list[str] = []
    vertex_count = bin(sp.vertex_mask()).count("1")
    exhaustive_families = _FAMILY_SIZE_BOUND >= vertex_count
    if exhaustive_families:
        notes.append(
            "family bound covers all sizes (each disjoint member needs its own minimal cell)"
        )
    best_witness: Optional[SolidPartition] = None
    try:
        for fam in _disjoint_closed_families(sp, budget):
            if len(fam) < 2:
                continue
            removed = 0
            for m in fam:
                removed |= m
            if sp.connected(sp.x_mask & ~removed):
                continue
            cand = _partition_from_family(sp, fam)
            if cand is None:
                notes.append("disconnecting family found but witness recovery failed")
            elif (
                best_witness is None
                or len(cand.closed_part_indices) > len(best_witness.closed_part_indices)
            ):
                best_witness = cand
    except BudgetExceeded:
        return GenusReport(
            genus=0 if best_witness is None else len(best_witness.closed_part_indices) - 1,
            exact=False,
            witness=best_witness,
            notes=tuple(notes + ["family search budget exhausted; lower bound only"]),
        )
    if best_witness is None:
        return GenusReport(
            genus=0,
            exact=exhaustive_families,
            witness=None,
            notes=tuple(notes),
        )
    lower = len(best_witness.closed_part_indices) - 1
    # Try to upgrade the lower bound to an exact value by enumerating all
    # solid partitions of X and maximizing over the irreducible ones.
    try:
        best = lower
        for p in enumerate_solid_partitions(
            Region(sp, sp.x_mask), max_parts=2 * (_FAMILY_SIZE_BOUND + 1),
            budget=_EXACT_PARTITION_BUDGET,
        ):
            n_closed = len(p.closed_part_indices)
            if n_closed - 1 > best and is_irreducible(p):
                best = n_closed - 1
                best_witness = p
        notes.append("exact value by full partition enumeration")
        return GenusReport(
            genus=best,
            exact=True,
            witness=best_witness,
            notes=tuple(notes),
        )
    except BudgetExceeded:
        notes.append("partition enumeration budget exhausted; lower bound only")
        return GenusReport(
            genus=lower,
            exact=False,
            witness=best_witness,
            notes=tuple(notes),
        )


# ----- order-complex homology shortcut ---------------------------------------


def _first_betti_mod2(sp: FiniteSpace) -> int:
    """dim H^1 of the order complex over GF(2).

    Simplices are the chains of the cell order (vertices = cells, edges =
    comparable pairs, triangles = 3-chains); the order complex is weakly
    homotopy equivalent to the finite space, so a vanishing first cohomology
    certifies that no closed-solid family can disconnect the space.
    """
    n = sp.cell_count
    edges = []
    edge_index = {}
    for y in range(n):
        below = sp.down[y] & ~(1 << y)
        for x in FiniteSpace.cells_of(below):
            edge_index[(x, y)] = len(edges)
            edges.append((x, y))
    # rank of boundary_1 (edges -> vertices) over GF(2): rows are edges.
    rows1 = [(1 << x) | (1 << y) for x, y in edges]
    rank1 = _gf2_rank(rows1)
    # boundary_2 (triangles -> edges)
    rows2 = []
    for z in range(n):
        mid = sp.down[z] & ~(1 << z)
        for y in FiniteSpace.cells_of(mid):
            low = sp.down[y] & ~(1 << y)
            for x in FiniteSpace.cells_of(low):
                rows2.append(
                    (1 << edge_index[(x, y)])
                    | (1 << edge_index[(x, z)])
                    | (1 << edge_index[(y, z)])
                )
    rank2 = _gf2_rank(rows2)
    cycles = len(edges) - rank1
    return cycles - rank2


def _gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


def hatX_genus0_check(sp: FiniteSpace) -> bool:
    """Whether the one-point compactification is certified to have genus 0.

    A vanishing first cohomology of the order complex certifies genus 0.
    Without that certificate the answer is False, so the shortcut it gates
    never fires on an unproven claim.
    """
    if sp.infinity is None:
        raise ValueError("hatX_genus0_check requires a space with an infinity cell")
    return _first_betti_mod2(sp.compactified()) == 0
