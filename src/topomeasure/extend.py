"""Extension of a solid-set function to a topological measure, plus validators.

General path (any locally compact model):
  λ₁(A) = λ(Ã) − Σ λ(Bᵢ) over the bounded components Bᵢ of the complement,
          for bounded connected open-or-closed A;
  λ₂(K) = Σ λ₁ over the components of a compact K;
  μ(U)  = λ₂(K_max(U)) where K_max(U) is the maximal compact subset of an
          open U (the sup over all compact subsets is attained there because
          λ₂ is monotone);
  μ(F)  = μ(minimal open superset of F) (the inf over open supersets is
          attained at the unique minimal one).

Compact path (compact spaces only, a distinct route used for cross-checking):
  λ₂ᶜ(K) = Σ over components of [λ(X) − Σ λ(complement components)];
  μ(U)   = sup{λ₂ᶜ(K) : K ⊆ U compact} (evaluated at the maximal compact
           subset once λ₂ᶜ is certified monotone, literally otherwise);
  μ(C)   = λ(X) − μ(X \\ C).

A topological measure must satisfy (TM1) additivity for disjoint pairs in
𝒦 ∪ 𝒪 whose union stays in 𝒦 ∪ 𝒪, (TM2) inner regularity on opens, and
(TM3) outer regularity on closeds.  A topological measure extends to a Borel
measure iff it is subadditive on compact pairs (equivalently open pairs);
otherwise it is a *proper* topological measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional
from weakref import WeakKeyDictionary

from .space import FiniteSpace, Region, RegionError
from .solid import (
    CATALOG_CAP,
    BudgetExceeded,
    bounded_solid_catalog,
    downset_catalog,
    hull_mask,
    k_max_mask,
    upset_catalog,
)
from .ssf import (
    ConditionVerdict,
    SolidSetFunction,
    _cells,
    _Columns,
    _first_bad_row,
    _first_failure,
    _ValueTable,
    _weight_sum,
)
from .values import INF, Value, format_value, is_inf, vadd, vsum


# ----- the three-stage extension ------------------------------------------------


def lambda1_mask(lam: SolidSetFunction, mask: int) -> Fraction:
    sp = lam.space
    if not sp.connected(mask):
        raise RegionError("lambda1 requires a connected region")
    if not sp.is_bounded_mask(mask):
        raise RegionError("lambda1 requires a bounded region")
    if not (sp.is_open_mask(mask) or sp.is_closed_mask(mask)):
        raise RegionError("lambda1 requires an open or closed region")
    total = lam.value(hull_mask(sp, mask))
    for m in sp.components_masks(sp.x_mask & ~mask):
        if sp.is_bounded_mask(m):
            total -= lam.value(m)
    return total


def lambda2_mask(lam: SolidSetFunction, mask: int) -> Fraction:
    sp = lam.space
    if not sp.is_compact_mask(mask):
        raise RegionError("lambda2 requires a compact region")
    return sum(
        (lambda1_mask(lam, m) for m in sp.components_masks(mask)), Fraction(0)
    )


def mu_open_mask(lam: SolidSetFunction, mask: int) -> Fraction:
    sp = lam.space
    if not sp.is_open_mask(mask):
        raise RegionError("mu_open requires an open region")
    return lambda2_mask(lam, k_max_mask(sp, mask))


def mu_closed_mask(lam: SolidSetFunction, mask: int) -> Fraction:
    sp = lam.space
    if not sp.is_closed_mask(mask):
        raise RegionError("mu_closed requires a closed region")
    return mu_open_mask(lam, sp.up_closure_mask(mask))


# ----- compact path ----------------------------------------------------------

# One compact-path table per solid-set function, dropped with the function.
_COMPACT_TABLES: WeakKeyDictionary = WeakKeyDictionary()


def _compact_table(lam: SolidSetFunction) -> tuple[dict[int, Fraction], bool]:
    """λ₂ᶜ, the per-component complement-subtraction value (the compact-path
    counterpart of λ₂, sharing no code with it), on every closed set, and
    whether it is monotone along every one-cell extension of a closed set.

    Single-cell extensions connect the whole lattice of closed sets, so
    monotonicity along them certifies global monotonicity, which in turn lets
    the sup over compact subsets of an open set be read off at the maximal
    one.  Raises BudgetExceeded past CATALOG_CAP closed sets.
    """
    hit = _COMPACT_TABLES.get(lam)
    if hit is not None:
        return hit
    sp = lam.space
    total_x = lam.value(sp.x_mask)
    table: dict[int, Fraction] = {}
    for closed in downset_catalog(sp, CATALOG_CAP):
        out = Fraction(0)
        for comp in sp.components_masks(closed):
            piece = total_x
            for m in sp.components_masks(sp.x_mask & ~comp):
                piece -= lam.value(m)
            out += piece
        table[closed] = out
    monotone = all(
        table[d | (1 << c)] >= base
        for d, base in table.items()
        for c in FiniteSpace.cells_of(sp.x_mask & ~d)
        # only one-cell extensions to another closed set
        if not sp.down[c] & sp.x_mask & ~d & ~(1 << c)
    )
    hit = _COMPACT_TABLES[lam] = (table, monotone)
    return hit


def grubb_mu_mask(lam: SolidSetFunction, mask: int) -> Fraction:
    sp = lam.space
    if sp.infinity is not None:
        raise RegionError("the compact path is defined on compact spaces only")
    if sp.is_open_mask(mask):
        table, monotone = _compact_table(lam)
        if monotone:
            return table[k_max_mask(sp, mask)]
        return max(v for d, v in table.items() if not d & ~mask)
    if sp.is_closed_mask(mask):
        return lam.value(sp.x_mask) - grubb_mu_mask(lam, sp.x_mask & ~mask)
    raise RegionError("grubb_mu requires an open or closed region")


# ----- measure objects --------------------------------------------------------


class RawTopMeasure:
    """A user-supplied evaluator on open and closed regions; validated, never
    trusted.  Each value is evaluated once and kept in the measure's memo."""

    lam: Optional[SolidSetFunction] = None
    engine_built = False

    def __init__(self, space: FiniteSpace, kind: str, fn: Callable[[int], Value]):
        self.space = space
        self.kind = kind
        self._fn = fn
        self._memo: dict[int, Value] = {}

    def mu_mask(self, mask: int) -> Value:
        hit = self._memo.get(mask)
        if hit is None:
            sp = self.space
            if not (sp.is_open_mask(mask) or sp.is_closed_mask(mask)):
                raise RegionError(
                    "a topological measure is defined on open and closed regions"
                )
            hit = self._memo[mask] = self._fn(mask)
        return hit

    def mu(self, region: Region) -> Value:
        return self.mu_mask(region.cells)

    @property
    def finite(self) -> bool:
        return not is_inf(self.mu_mask(self.space.x_mask))


class TopMeasure(RawTopMeasure):
    """Engine-built extension of a solid-set function: μ(U) = λ₂(K_max(U)) on
    an open U, and μ(F) = μ(U_min(F)) on a closed F, where U_min(F) is its
    minimal open superset."""

    engine_built = True

    def __init__(self, lam: SolidSetFunction):
        sp = lam.space
        # Many open sets share one maximal compact subset.  The evaluator
        # holds no reference to the measure, so a measure is freed by
        # reference counting alone.
        by_k_max: dict[int, Fraction] = {}

        def fn(mask: int) -> Fraction:
            if not sp.is_open_mask(mask):
                mask = sp.up_closure_mask(mask)
            k = k_max_mask(sp, mask)
            hit = by_k_max.get(k)
            if hit is None:
                hit = by_k_max[k] = lambda2_mask(lam, k)
            return hit

        super().__init__(sp, f"extension of {lam.kind}", fn)
        self.lam = lam

    def is_simple(self, cap: int = CATALOG_CAP) -> bool:
        """Whether μ takes only the values 0 and 1 on 𝒦 ∪ 𝒪.  Raises
        BudgetExceeded when either catalog has more than ``cap`` members."""
        sp = self.space
        for m in downset_catalog(sp, cap):
            if sp.is_bounded_mask(m) and self.mu_mask(m) not in (0, 1):
                return False
        for m in upset_catalog(sp, cap):
            if self.mu_mask(m) not in (0, 1):
                return False
        return True


def make_rule_threshold_tm(
    sp: FiniteSpace, weights: dict[int, Fraction], threshold: Fraction
) -> RawTopMeasure:
    """The rule-based threshold topological measure: weight below the
    threshold collapses to 0, otherwise the region keeps its weight, and
    unbounded regions weigh infinity (open sets use an inclusive threshold,
    compact sets a strict one)."""
    weight = _weight_sum(weights)

    def fn(mask: int) -> Value:
        w = weight(mask) if sp.is_bounded_mask(mask) else INF
        if sp.is_open_mask(mask):
            if not is_inf(w) and w <= threshold:
                return Fraction(0)
            return w
        if not is_inf(w) and w < threshold:
            return Fraction(0)
        return w

    return RawTopMeasure(sp, "threshold-rule", fn)


# ----- validator ---------------------------------------------------------------


@dataclass(frozen=True)
class TmValidationReport:
    space: str
    kind: str
    conditions: dict[str, ConditionVerdict] = field(default_factory=dict)
    informational: dict[str, ConditionVerdict] = field(default_factory=dict)
    classification: str = "unknown"

    CORE = ("TM1", "TM2", "TM3")

    @property
    def passed(self) -> bool:
        return all(
            self.conditions[name].verdict == "pass"
            for name in self.CORE
            if name in self.conditions
        )

    @property
    def unknown(self) -> bool:
        return any(c.verdict == "unknown" for c in self.conditions.values())

    def to_json(self) -> dict:
        def block(d: dict[str, ConditionVerdict]) -> dict:
            out = {}
            for name in sorted(d):
                c = d[name]
                entry = {"verdict": c.verdict, "method": c.method, "checked": c.checked}
                if c.counterexample is not None:
                    entry["counterexample"] = c.counterexample
                out[name] = entry
            return out

        return {
            "space": self.space,
            "measure": self.kind,
            "conditions": block(self.conditions),
            "informational": block(self.informational),
            "classification": self.classification,
            "passed": self.passed,
        }


def _pair_witness(a: int, b: int, lhs: Value, rhs: Value, extra: str = "") -> dict:
    w = {
        "a": _cells(a),
        "b": _cells(b),
        "lhs": format_value(lhs),
        "rhs": format_value(rhs),
    }
    if extra:
        w["note"] = extra
    return w


def _additivity_sweep(
    vt: _ValueTable, method: str, cols: _Columns, rows=None, member=None
) -> ConditionVerdict:
    """μ(A∪B) = μ(A) + μ(B) for disjoint A in ``rows`` and B in ``cols``,
    restricted to unions in ``member`` when it is given.  Without ``rows``,
    A and B both range over ``cols``, B at or after A."""
    t, add, mu = vt.t, vt.add, vt.mu

    def sweep():
        for i, a in enumerate(cols.masks if rows is None else rows):
            ta = t[a]
            kept = cols.disjoint_from(a, i if rows is None else 0)
            if member is not None:
                kept = [b for b in kept if (a | b) in member]
            # The plain sum differs from the saturating one only when a
            # term is top, so the second test runs only on those pairs.
            yield a, kept, [
                b for b in kept if t[a | b] != ta + t[b] and t[a | b] != add(ta, t[b])
            ]

    return _first_failure(
        method, sweep(), lambda a, b: _pair_witness(a, b, mu(a | b), vadd(mu(a), mu(b)))
    )


def _subadditivity_sweep(vt: _ValueTable, catalog: list[int], label: str) -> ConditionVerdict:
    t, add, mu = vt.t, vt.add, vt.mu
    values = [t[m] for m in catalog]

    def sweep():
        for i, a in enumerate(catalog):
            ta, kept = t[a], catalog[i:]
            yield a, kept, [
                b for b, tb in zip(kept, values[i:])
                if t[a | b] > ta + tb and t[a | b] > add(ta, tb)
            ]

    return _first_failure(
        f"subadditivity over {label}", sweep(),
        lambda a, b: _pair_witness(
            a, b, mu(a | b), vadd(mu(a), mu(b)), "lhs=mu(A∪B) exceeds rhs=mu(A)+mu(B)"
        ),
    )


def validate_tm(tm, catalog_cap: int = CATALOG_CAP) -> TmValidationReport:
    sp = tm.space
    conditions: dict[str, ConditionVerdict] = {}
    informational: dict[str, ConditionVerdict] = {}
    try:
        closeds = downset_catalog(sp, catalog_cap)
        opens = upset_catalog(sp, catalog_cap)
    except BudgetExceeded as exc:
        note = {"reason": str(exc)}
        for name in ("TM1", "TM2", "TM3"):
            conditions[name] = ConditionVerdict("unknown", "catalog enumeration", 0, 0, note)
        return TmValidationReport(sp.name, tm.kind, conditions, informational, "unknown")
    compacts = [m for m in closeds if sp.is_bounded_mask(m)]
    mu = tm.mu_mask
    # Every sweep below reads μ only on closed and open sets (X is open).
    vt = _ValueTable(mu, set(closeds) | set(opens))
    t, add, xm = vt.t, vt.add, sp.x_mask
    closed_cols = _Columns(closeds, sp.cell_count)
    open_cols = _Columns(opens, sp.cell_count)
    compact_cols = _Columns(compacts, sp.cell_count)

    # TM1: additivity over disjoint pairs of 𝒦 ∪ 𝒪 with union in 𝒦 ∪ 𝒪.
    domain = sorted(set(compacts) | set(opens))
    conditions["TM1"] = _additivity_sweep(
        vt, "disjoint pair sweep over compacts and opens",
        _Columns(domain, sp.cell_count), member=set(domain),
    )

    # TM2: inner regularity on opens.
    def inner_gaps():
        for u in opens:
            best = max([0] + [t[k] for k in compact_cols.disjoint_from(xm & ~u)])
            if best != t[u]:
                yield {"open": _cells(u), "sup": format_value(vt.value(best)),
                       "value": format_value(mu(u))}

    conditions["TM2"] = _first_bad_row(
        "literal sup over compact subsets", len(opens), inner_gaps()
    )

    # TM3: outer regularity on closeds (X is always an open superset).
    def outer_gaps():
        for f in closeds:
            best = min(t[u] for u in open_cols.containing(f))
            if best != t[f]:
                yield {"closed": _cells(f), "inf": format_value(vt.value(best)),
                       "value": format_value(mu(f))}

    conditions["TM3"] = _first_bad_row(
        "literal inf over open supersets", len(closeds), outer_gaps()
    )

    # (c1) compact carving: μ(U) = μ(K) + μ(U \ K) for compact K inside open U.
    def carvings():
        for u in opens:
            tu, kept = t[u], compact_cols.disjoint_from(xm & ~u)
            yield u, kept, [
                k for k in kept if t[k] + t[u ^ k] != tu and add(t[k], t[u ^ k]) != tu
            ]

    conditions["c1"] = _first_failure(
        "compact-inside-open sweep", carvings(),
        lambda u, k: _pair_witness(
            u, k, mu(u), vadd(mu(k), mu(u & ~k)), "lhs=mu(U), rhs=mu(K)+mu(U\\K)"
        ),
    )

    # (c2) disjoint compact pairs; (c3) disjoint open pairs.
    conditions["c2"] = _additivity_sweep(vt, "disjoint compact pairs sweep", compact_cols)
    conditions["c3"] = _additivity_sweep(vt, "disjoint open pairs sweep", open_cols)

    # Closed F, compact K additivity (holds for every topological measure).
    conditions["closed_compact_additivity"] = _additivity_sweep(
        vt, "disjoint closed-compact sweep", compact_cols, closeds
    )

    # Wheeler-style conditions (compact spaces only).
    if sp.infinity is None:
        # (w1) monotone on closed sets.
        def nestings():
            for c in closeds:
                tc, kept = t[c], closed_cols.containing(c)
                yield c, kept, [k for k in kept if t[k] < tc]

        conditions["wheeler_monotone_closed"] = _first_failure(
            "nested closed pair sweep", nestings(),
            lambda c, k: _pair_witness(c, k, mu(c), mu(k), "mu not monotone on closeds"),
        )

        # (w3) each closed C pairs with a disjoint closed K almost filling X.
        def exhaustion_gaps():
            for c in closeds:
                fill = add(t[c], max([0] + [t[k] for k in closed_cols.disjoint_from(c)]))
                if fill != t[xm]:
                    yield {
                        "closed": _cells(c),
                        "mu_plus_best_disjoint": format_value(vt.value(fill)),
                        "mu_X": format_value(mu(xm)),
                    }

        conditions["wheeler_disjoint_exhaustion"] = _first_bad_row(
            "max disjoint closed complement sweep", len(closeds), exhaustion_gaps()
        )

        # (w4) open-closed complement identity.
        conditions["wheeler_open_complement"] = _first_bad_row(
            "open complement sweep", len(opens),
            (
                {"open": _cells(u),
                 "mu_U_plus_mu_complement": format_value(vadd(mu(u), mu(xm & ~u))),
                 "mu_X": format_value(mu(xm))}
                for u in opens if add(t[u], t[xm & ~u]) != t[xm]
            ),
        )

    # Informational: additivity on 𝒞 ∪ 𝒪 (fails for some proper measures).
    informational["closed_open_additivity"] = _additivity_sweep(
        vt, "disjoint closed-open sweep", open_cols, closeds, set(closeds) | set(opens)
    )

    # Subadditivity criteria deciding measure-extendability.
    sub_c = _subadditivity_sweep(vt, compacts, "compact pairs")
    sub_o = _subadditivity_sweep(vt, opens, "open pairs")
    informational["subadditivity_compacts"] = sub_c
    informational["subadditivity_opens"] = sub_o
    classification = (
        "measure-extendable"
        if sub_c.verdict == "pass" and sub_o.verdict == "pass"
        else "proper topological measure"
    )

    # Engine-built extensions: μ must restrict to λ on the bounded solids,
    # and a two-valued λ must yield a two-valued μ.
    if getattr(tm, "engine_built", False) and tm.lam is not None:
        lam = tm.lam
        solids = bounded_solid_catalog(sp, catalog_cap)
        conditions["mu_equals_lambda_on_solids"] = _first_bad_row(
            "sweep over bounded solids", len(solids),
            (
                {"solid": _cells(m), "mu": format_value(mu(m)),
                 "lambda": format_value(lam.value(m))}
                for m in solids if mu(m) != lam.value(m)
            ),
        )
        if lam.is_two_valued(catalog_cap):
            conditions["simplicity_propagation"] = _first_bad_row(
                "two-valued sweep over compacts and opens", len(domain),
                (
                    {"region": _cells(m), "mu": format_value(mu(m))}
                    for m in domain if mu(m) not in (0, 1)
                ),
            )

    return TmValidationReport(sp.name, tm.kind, conditions, informational, classification)


# ----- counterexample search ----------------------------------------------------


def find_nonsubadditive_cover(
    tm,
    max_cover_size: int = 4,
    target: Optional[Region] = None,
    candidates: Optional[list[Region]] = None,
    catalog_cap: int = CATALOG_CAP,
) -> Optional[list[Region]]:
    """A family of ≤ max_cover_size open/closed regions covering the target
    (default X) whose μ-sum is strictly below μ(target), or None.

    The default candidate pool is every zero-μ member of 𝒦 ∪ 𝒪; an explicit
    pool can be supplied for spaces whose catalogs exceed the cap.
    """
    sp = tm.space
    if max_cover_size < 2:
        raise ValueError("max_cover_size must be at least 2")
    target_mask = sp.x_mask if target is None else target.cells
    target_mu = tm.mu_mask(target_mask)
    if not target_mu > 0:
        return None
    if candidates is not None:
        pool = [r.cells for r in candidates]
    else:
        closeds = downset_catalog(sp, catalog_cap)
        opens = upset_catalog(sp, catalog_cap)
        pool = sorted(
            m
            for m in set(closeds) | set(opens)
            if m and tm.mu_mask(m) == 0
        )
    # Keep only maximal zero-mu candidates: anything a smaller one covers, a
    # maximal one covers too, at the same (zero) cost.
    pool = [m for m in pool if not any(o != m and not m & ~o for o in pool)]

    def rec(uncovered: int, chosen: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        if uncovered == 0:
            return chosen
        if len(chosen) == max_cover_size:
            return None
        least = uncovered & -uncovered
        for m in pool:
            if m & least:
                hit = rec(uncovered & ~m, chosen + (m,))
                if hit is not None:
                    return hit
        return None

    hit = rec(target_mask, ())
    if hit is None:
        return None
    total = vsum(tm.mu_mask(m) for m in hit)
    if not total < target_mu:
        return None
    return [Region(sp, m) for m in hit]
