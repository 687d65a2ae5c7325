"""Solid-set functions: builtin families and the exact axiom validator.

A solid-set function λ assigns a nonnegative rational to every bounded solid
region (compact solid or bounded open solid) subject to four conditions:

(s1) superadditivity: Σλ(C_i) ≤ λ(C) for disjoint compact solids C_i inside a
     compact solid C;
(s2) inner regularity: λ(U) is the max of λ over compact solids inside U, for
     bounded open solid U;
(s3) outer regularity: λ(K) is the min of λ over bounded open solids
     containing K;
(s4) partition additivity: λ(A) = Σλ(A_i) for every partition of a bounded
     solid A into bounded solids.

On compact spaces an equivalent axiom set replaces (s1)/(s4) by superadditivity
against λ(X) and additivity over irreducible partitions of X; the validator
checks both routes and reports them side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Callable, Optional

from .space import FiniteSpace, Region, RegionError, parse_region_literal
from .solid import (
    CATALOG_CAP,
    BudgetExceeded,
    bounded_open_solid_catalog,
    bounded_solid_catalog,
    compact_solid_catalog,
    is_solid_mask,
    k_max_mask,
)
from .partition import enumerate_solid_partitions, genus, hatX_genus0_check, is_irreducible
from .values import INF, Value, format_value, is_inf, parse_fraction

# Work bound of the (s1)/ssfC1 family sweep and of each partition
# enumeration, and the largest family (half the largest partition) they try.
_WORK_CAP = 5_000_000
_MAX_FAMILY = 4


class SolidSetFunction:
    """λ: bounded solid regions → nonnegative rationals.

    ``value(mask)`` is the unchecked fast path used by validators and the
    extension engine; ``evaluate(region)`` verifies domain membership.
    """

    def __init__(
        self,
        space: FiniteSpace,
        kind: str,
        params: dict,
        fn: Callable[[int], Fraction],
    ):
        self.space = space
        self.kind = kind
        self.params = dict(params)
        self._fn = fn
        self._memo: dict[int, Fraction] = {}
        if self.value(0) != 0:
            raise ValueError("a solid-set function must vanish on the empty region")

    def value(self, mask: int) -> Fraction:
        hit = self._memo.get(mask)
        if hit is None:
            hit = self._fn(mask)
            if hit < 0:
                raise ValueError("solid-set function values must be nonnegative")
            self._memo[mask] = hit
        return hit

    def evaluate(self, region: Region) -> Fraction:
        sp = self.space
        if region.space is not sp:
            raise RegionError("region belongs to a different space")
        m = region.cells
        in_domain = sp.is_bounded_mask(m) and is_solid_mask(sp, m) and (
            sp.is_open_mask(m) or sp.is_closed_mask(m)
        )
        if not in_domain:
            raise RegionError(
                "region is not a bounded solid open-or-closed set "
                "(outside the domain of a solid-set function)"
            )
        return self.value(m)

    def is_two_valued(self, cap: int = CATALOG_CAP) -> bool:
        """Whether λ takes only the values 0 and 1 on its whole domain.
        Raises BudgetExceeded when the domain has more than ``cap`` members."""
        return all(
            self.value(m) in (0, 1) for m in bounded_solid_catalog(self.space, cap)
        )

    def __repr__(self) -> str:
        return f"SolidSetFunction({self.kind} on {self.space.name})"


# ----- weights ----------------------------------------------------------------


def uniform_vertex_weights(sp: FiniteSpace) -> dict[int, Fraction]:
    """Weight 1 on every vertex (minimal) cell of X."""
    return {c: Fraction(1) for c in FiniteSpace.cells_of(sp.vertex_mask())}


def _weight_sum(weights: dict[int, Fraction]) -> Callable[[int], Fraction]:
    items = sorted(weights.items())

    def total(mask: int) -> Fraction:
        return sum((w for c, w in items if mask >> c & 1), Fraction(0))

    return total


def _require_vertex(sp: FiniteSpace, cell: int, what: str) -> None:
    if not (0 <= cell < sp.cell_count):
        raise ValueError(f"{what} {cell} is not a cell of the space")
    if sp.down[cell] != 1 << cell:
        raise ValueError(f"{what} {cell} must be a vertex (minimal) cell")


# ----- builtin families --------------------------------------------------------


def make_point_majority(sp: FiniteSpace, points) -> SolidSetFunction:
    """λ(A) = k/n when A contains 2k or 2k+1 of the 2n+1 marked vertices."""
    pts = sorted(points)
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise ValueError(f"marked point {a} is given more than once")
    if len(pts) % 2 == 0 or len(pts) < 3:
        raise ValueError("point-majority needs an odd number (>= 3) of marked points")
    for p in pts:
        _require_vertex(sp, p, "marked point")
        if p == sp.infinity:
            raise ValueError("marked points must lie in X, not at infinity")
    n = (len(pts) - 1) // 2
    pmask = 0
    for p in pts:
        pmask |= 1 << p

    def fn(mask: int) -> Fraction:
        hits = bin(mask & pmask).count("1")
        return Fraction(hits // 2, n)

    return SolidSetFunction(sp, "point-majority", {"points": pts}, fn)


def make_aarnes_circle(sp: FiniteSpace, b_mask: int, p: int) -> SolidSetFunction:
    """λ(A) = 1 iff B ⊆ A, or p ∈ A and A meets B; else 0.

    B must be a closed subcomplex (down-closed) or a set of vertices; p is a
    vertex not in B.  p may be the infinity cell, in which case the
    "p ∈ A" clause never fires for regions of X (the restriction of the
    function to the punctured space).
    """
    b_mask &= sp.x_mask
    if b_mask == 0:
        raise ValueError("B must be nonempty")
    b_is_closed = sp.closure_mask(b_mask) == b_mask
    b_is_vertices = b_mask & ~sp.vertex_mask() == 0
    if not (b_is_closed or b_is_vertices):
        raise ValueError("B must be a closed subcomplex or a set of vertices")
    if p == sp.infinity:
        p_bit = 0
    else:
        _require_vertex(sp, p, "point p")
        p_bit = 1 << p
    if p_bit & b_mask:
        raise ValueError("p must not belong to B")

    def fn(mask: int) -> Fraction:
        if b_mask & ~mask == 0:
            return Fraction(1)
        if mask & p_bit and mask & b_mask:
            return Fraction(1)
        return Fraction(0)

    return SolidSetFunction(
        sp, "aarnes-circle", {"B": b_mask, "p": p}, fn
    )


def make_two_point(
    sp: FiniteSpace,
    p1: int,
    p2: int,
    weights: dict[int, Fraction],
    rule: str = "doubled-local",
) -> SolidSetFunction:
    """Two marked points with a base weight functional λ₀.

    λ(A) = 0, λ₀(A), or — when A holds both points — 2λ₀(X) under rule
    ``doubled-total`` and 2λ₀(A) under rule ``doubled-local``.  The two rules
    come from a source whose stated formula and computed values disagree;
    neither is silently preferred.
    """
    if p1 == p2:
        raise ValueError("the two marked points must be distinct")
    for p in (p1, p2):
        _require_vertex(sp, p, "marked point")
    if rule not in ("doubled-total", "doubled-local"):
        raise ValueError("rule must be doubled-total or doubled-local")
    lam0 = _weight_sum(weights)
    pmask = (1 << p1) | (1 << p2)
    total_x = lam0(sp.x_mask)

    def fn(mask: int) -> Fraction:
        hits = bin(mask & pmask).count("1")
        if hits == 0:
            return Fraction(0)
        if hits == 1:
            return lam0(mask)
        return 2 * total_x if rule == "doubled-total" else 2 * lam0(mask)

    return SolidSetFunction(
        sp, "two-point", {"p1": p1, "p2": p2, "rule": rule, "weights": dict(weights)}, fn
    )


def make_threshold(
    sp: FiniteSpace, weights: dict[int, Fraction], threshold: Fraction
) -> SolidSetFunction:
    """Weight sum gated by a threshold: open solids drop to 0 at or below the
    threshold, compact solids drop to 0 strictly below it."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    lam0 = _weight_sum(weights)

    def fn(mask: int) -> Fraction:
        w = lam0(mask)
        if sp.is_open_mask(mask):
            return Fraction(0) if w <= threshold else w
        if sp.is_compact_mask(mask):
            return Fraction(0) if w < threshold else w
        raise RegionError("threshold λ is defined on open or compact solids only")

    return SolidSetFunction(
        sp, "threshold", {"weights": dict(weights), "t": threshold}, fn
    )


def make_restricted_measure(
    sp: FiniteSpace, weights: dict[int, Fraction]
) -> SolidSetFunction:
    """Restriction of the additive weight measure λ₀ to solid sets,
    regularized on bounded open solids so that inner regularity holds by
    construction: λ(U) = max λ₀(K) over the compact solids K ⊆ U.

    With nonnegative weights that max is local: it is the largest λ₀(C)
    over the components C of K_max(U), the maximal compact subset of U (0
    when K_max(U) is empty).  A compact solid inside U is connected and
    lies in K_max(U), so it lies in one C, and λ₀ is monotone.  Each C is a
    compact solid: C together with the components of X∖C that stay inside
    U (open, and bounded as U is) is closed, bounded, connected and inside
    U, so it lies in K_max(U) and equals C.  Every component of X∖C thus meets X∖U, whose components
    are unbounded because U is solid (on a compact space, X∖U is connected
    and X∖C has one component), so C is solid.  A negative weight breaks
    monotonicity; the max is then taken over the compact-solid catalog,
    which raises BudgetExceeded past CATALOG_CAP members."""
    lam0 = _weight_sum(weights)
    local = min(weights.values(), default=0) >= 0

    def fn(mask: int) -> Fraction:
        if sp.is_compact_mask(mask):
            return lam0(mask)
        if local:
            pieces = sp.components_masks(k_max_mask(sp, mask))
        else:
            pieces = [m for m in compact_solid_catalog(sp, CATALOG_CAP) if not m & ~mask]
        return max([Fraction(0)] + [lam0(m) for m in pieces])

    return SolidSetFunction(sp, "measure", {"weights": dict(weights)}, fn)


# ----- descriptor parsing -------------------------------------------------------


def _parse_weights(sp: FiniteSpace, token: str) -> dict[int, Fraction]:
    if token == "@uniform":
        return uniform_vertex_weights(sp)
    out: dict[int, Fraction] = {}
    for pair in token.split(","):
        pair = pair.strip()
        if not pair:
            continue
        if ":" not in pair:
            raise ValueError(f"weight entry {pair!r} must look like cell:value")
        cell, val = pair.split(":", 1)
        c = int(cell)
        if not (0 <= c < sp.cell_count) or c == sp.infinity:
            raise ValueError(f"weight cell {c} is not a cell of X")
        if c in out:
            raise ValueError(f"weight cell {c} is given more than once")
        out[c] = parse_fraction(val)
    return out


def make_from_descriptor(sp: FiniteSpace, descriptor: str) -> SolidSetFunction:
    """Build a solid-set function from a text descriptor, e.g.
    ``point-majority points=3,17,42`` or ``aarnes-circle B=@rim p=12``."""
    parts = descriptor.split()
    if not parts:
        raise ValueError("empty solid-set-function descriptor")
    kind, args = parts[0], {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ValueError(f"malformed descriptor argument {tok!r}")
        k, v = tok.split("=", 1)
        args[k] = v
    try:
        if kind == "point-majority":
            pts = [int(x) for x in args["points"].split(",")]
            return make_point_majority(sp, pts)
        if kind == "aarnes-circle":
            b = parse_region_literal(sp, args["B"]).cells
            p = int(args["p"])
            return make_aarnes_circle(sp, b, p)
        if kind == "two-point":
            w = _parse_weights(sp, args.get("w", "@uniform"))
            return make_two_point(
                sp, int(args["p1"]), int(args["p2"]), w,
                args.get("rule", "doubled-local"),
            )
        if kind == "threshold":
            w = _parse_weights(sp, args.get("w", "@uniform"))
            return make_threshold(sp, w, parse_fraction(args.get("t", "1")))
        if kind == "measure":
            w = _parse_weights(sp, args.get("w", "@uniform"))
            return make_restricted_measure(sp, w)
    except KeyError as exc:
        raise ValueError(f"descriptor {kind!r} is missing argument {exc}") from None
    raise ValueError(f"unknown solid-set-function family {kind!r}")




# ----- sweep primitives (shared with the measure validator) ---------------------


@dataclass(frozen=True)
class ConditionVerdict:
    verdict: str  # "pass" | "fail" | "unknown"
    method: str
    checked: int = 0
    vacuous: int = 0
    counterexample: Optional[dict] = None


def _cells(mask: int) -> list[int]:
    return sorted(FiniteSpace.cells_of(mask))


class _ValueTable:
    """A set function on a catalog as exact ints: finite values times the
    LCM ``den`` of their denominators, and ``INF`` as the sentinel ``top``.

    With M the largest finite magnitude, a sum of two finite entries lies in
    [-2M, 2M] and a sum with a ``top`` term exceeds 2M, so :meth:`add`
    saturates exactly the sums that ``vadd`` makes infinite, and the map
    keeps both the equality and the order of :data:`Value`.
    """

    def __init__(self, mu: Callable[[int], Value], masks):
        self.mu = mu
        values = {m: mu(m) for m in masks}
        finite = {m: v for m, v in values.items() if not is_inf(v)}
        self.den = lcm(*(v.denominator for v in finite.values()))
        scaled = {m: v.numerator * (self.den // v.denominator) for m, v in finite.items()}
        bound = max(map(abs, scaled.values()), default=0)
        self.lim, self.top = 2 * bound, 3 * bound + 1
        self.t = {m: scaled.get(m, self.top) for m in values}

    def add(self, x: int, y: int) -> int:
        s = x + y
        return s if s <= self.lim else self.top

    def value(self, x: int) -> Value:
        return INF if x > self.lim else Fraction(x, self.den)


# Maps the digits of ``bin`` to the 0/1 bytes that ``compress`` selects by.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


class _Columns:
    """A catalog indexed by cell: bit j of ``has[c]`` is set when member j
    contains cell c, so a sweep row selects the members disjoint from it (or
    containing it) with one big-int operation per cell of the row instead
    of one test per member (on the shipped spaces most rows keep under one
    member in a hundred)."""

    def __init__(self, masks: list[int], cell_count: int):
        self.masks = masks
        self.all = (1 << len(masks)) - 1
        rev = masks[::-1]
        self.has = [
            int("0" + "".join(["01"[m >> c & 1] for m in rev]), 2)
            for c in range(cell_count)
        ]

    def _select(self, bits: int) -> list[int]:
        return list(compress(self.masks, bin(bits)[:1:-1].encode().translate(_BITS)))

    def disjoint_from(self, a: int, start: int = 0) -> list[int]:
        """Members disjoint from ``a``, from position ``start`` on, in order."""
        has, hit = self.has, 0
        while a:
            low = a & -a
            hit |= has[low.bit_length() - 1]
            a ^= low
        return self._select(self.all >> start << start & ~hit)

    def containing(self, a: int) -> list[int]:
        """Members that contain ``a``, in order."""
        has, bits = self.has, self.all
        while a:
            low = a & -a
            bits &= has[low.bit_length() - 1]
            a ^= low
        return self._select(bits)


def _first_failure(method: str, rows, witness) -> ConditionVerdict:
    """Verdict of a pair sweep, row by row.  ``rows`` yields ``(a, kept,
    bad)``: the row's columns that pass the sweep's filter, in sweep order,
    and those of them that fail its check.  ``checked`` counts the filtered
    pairs up to and including the first failure."""
    checked = 0
    for a, kept, bad in rows:
        if bad:
            b = bad[0]
            return ConditionVerdict(
                "fail", method, checked + kept.index(b) + 1, 0, witness(a, b)
            )
        checked += len(kept)
    return ConditionVerdict("pass", method, checked)


def _first_bad_row(method: str, checked: int, witnesses) -> ConditionVerdict:
    """Verdict of a sweep that checks each catalog member once; ``witnesses``
    yields a counterexample per failing member."""
    bad = next(witnesses, None)
    return ConditionVerdict("pass" if bad is None else "fail", method, checked, 0, bad)


# ----- validator ----------------------------------------------------------------


@dataclass(frozen=True)
class SsfValidationReport:
    space: str
    kind: str
    conditions: dict[str, ConditionVerdict] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.verdict == "pass" for c in self.conditions.values())

    @property
    def unknown(self) -> bool:
        return any(c.verdict == "unknown" for c in self.conditions.values())

    def to_json(self) -> dict:
        out = {"space": self.space, "ssf": self.kind, "conditions": {}}
        for name in sorted(self.conditions):
            c = self.conditions[name]
            entry = {
                "verdict": c.verdict,
                "method": c.method,
                "checked": c.checked,
                "vacuous": c.vacuous,
            }
            if c.counterexample is not None:
                entry["counterexample"] = c.counterexample
            out["conditions"][name] = entry
        out["passed"] = self.passed
        return out


def _superadditivity_sweep(
    vt: _ValueTable, xm: int, containers: list[int], candidates: _Columns
) -> ConditionVerdict:
    """Σλ over disjoint families of positive-λ candidates inside each
    container must not exceed the container's λ.  Zero-λ candidates are
    omitted soundly: they never increase a family's sum."""
    t = vt.t
    method = "positive-candidate family sweep"
    work = 0
    checked = 0
    for cmask in containers:
        target = t[cmask]
        inside = candidates.disjoint_from(xm & ~cmask)

        stack = [(0, 0, 0, ())]
        while stack:
            start, used, total, fam = stack.pop()
            if fam:
                checked += 1
                if total > target:
                    return ConditionVerdict(
                        "fail", method, checked, 0,
                        {
                            "container": _cells(cmask),
                            "container_value": format_value(vt.mu(cmask)),
                            "family": [_cells(m) for m in fam],
                            "family_sum": format_value(Fraction(total, vt.den)),
                        },
                    )
            if len(fam) >= _MAX_FAMILY:
                continue
            for i in range(start, len(inside)):
                m = inside[i]
                work += 1
                if work > _WORK_CAP:
                    return ConditionVerdict(
                        "unknown", method, checked, 0,
                        {"reason": f"work cap {_WORK_CAP} exhausted"},
                    )
                if m & used:
                    continue
                stack.append((i + 1, used | m, total + t[m], fam + (m,)))
    return ConditionVerdict("pass", method, checked)


def validate_ssf(lam: SolidSetFunction, catalog_cap: int = CATALOG_CAP) -> SsfValidationReport:
    sp = lam.space
    conditions: dict[str, ConditionVerdict] = {}
    try:
        compacts = compact_solid_catalog(sp, catalog_cap)
        opens = bounded_open_solid_catalog(sp, catalog_cap)
        solids = bounded_solid_catalog(sp, catalog_cap)
    except BudgetExceeded as exc:
        note = {"reason": str(exc)}
        for name in ("s1", "s2", "s3", "s4"):
            conditions[name] = ConditionVerdict("unknown", "catalog enumeration", 0, 0, note)
        return SsfValidationReport(sp.name, lam.kind, conditions)

    # λ once on every bounded solid; on a compact space X is one of them.
    vt = _ValueTable(lam.value, solids)
    t, xm = vt.t, sp.x_mask
    compact_cols = _Columns(compacts, sp.cell_count)

    # (s1) superadditivity inside compact solids.
    positives = _Columns([m for m in compacts if t[m] > 0], sp.cell_count)
    conditions["s1"] = _superadditivity_sweep(vt, xm, compacts, positives)

    # (s2) inner regularity on bounded open solids.
    def inner_gaps():
        for u in opens:
            best = max([0] + [t[k] for k in compact_cols.disjoint_from(xm & ~u)])
            if best != t[u]:
                yield {"open": _cells(u), "value": format_value(lam.value(u)),
                       "sup_over_compacts": format_value(vt.value(best))}

    conditions["s2"] = _first_bad_row("literal sup sweep", len(opens), inner_gaps())

    # (s3) outer regularity on compact solids; supersets may not exist on
    # coarse noncompact models, in which case the instance is vacuous.
    open_cols = _Columns(opens, sp.cell_count)
    vacuous = 0

    def outer_gaps():
        nonlocal vacuous
        for c in compacts:
            above = open_cols.containing(c)
            if not above:
                vacuous += 1
                continue
            best = min(t[u] for u in above)
            if best != t[c]:
                yield {"compact": _cells(c), "value": format_value(lam.value(c)),
                       "inf_over_opens": format_value(vt.value(best))}

    verdict = _first_bad_row("literal inf sweep", len(compacts), outer_gaps())
    conditions["s3"] = replace(verdict, vacuous=vacuous)

    # (s4) solid-partition additivity.  The genus-0 shortcut derives (s4)
    # from the complement identity together with (s1)/(s2); it is only used
    # when those premises hold.
    premises_ok = (
        conditions["s1"].verdict == "pass" and conditions["s2"].verdict == "pass"
    )
    conditions["s4"] = _check_s4(sp, vt, solids, premises_ok)

    # Compact spaces: the alternative axiom route, reported side by side.
    if sp.infinity is None:
        conditions.update(_check_ssfc(sp, vt, solids, conditions["s2"]))
    return SsfValidationReport(sp.name, lam.kind, conditions)


def _genus_report(sp: FiniteSpace):
    key = "genus-report"
    if key not in sp._cache:
        sp._cache[key] = genus(sp)
    return sp._cache[key]


def _check_s4(sp, vt, solids, premises_ok: bool) -> ConditionVerdict:
    if sp.infinity is None:
        g = _genus_report(sp)
        if g.exact and g.genus == 0 and premises_ok:
            # Genus 0: partition additivity reduces to the complement
            # identity, and the identity implies additivity over every solid
            # partition (superadditivity + complement bookkeeping).
            return _complement_identity(sp, vt, solids)
    elif hatX_genus0_check(sp):
        # Only trivial partitions exist, so additivity is automatic.
        return ConditionVerdict(
            "pass", "compactification genus 0: only trivial partitions", len(solids)
        )
    # Otherwise enumerate the partitions of every nonempty solid (X among
    # them on a compact space) directly.
    return _partition_sweep(
        sp, "partition enumeration", vt, [m for m in solids if m], None,
        lambda target, parts, total: {
            "target": _cells(target),
            "target_value": format_value(vt.mu(target)),
            "parts": [_cells(m) for m in parts],
            "parts_sum": format_value(Fraction(total, vt.den)),
        },
    )


def _complement_identity(sp, vt, solids) -> ConditionVerdict:
    """λ(A) + λ(X \\ A) = λ(X) for every solid A of a compact space (X \\ A
    is then a solid too)."""
    t, xm, lam = vt.t, sp.x_mask, vt.mu
    return _first_bad_row(
        "genus-0 complement identity", len(solids),
        (
            {"solid": _cells(a), "value": format_value(lam(a)),
             "complement_value": format_value(lam(xm ^ a)),
             "total": format_value(lam(xm))}
            for a in solids if t[a] + t[xm ^ a] != t[xm]
        ),
    )


def _partition_sweep(sp, method, vt, targets, keep, witness) -> ConditionVerdict:
    """λ(T) = Σλ over the parts of every solid partition of each target T
    that ``keep`` accepts (every one when ``keep`` is None); ``checked``
    counts the accepted partitions up to and including the first failure."""
    t = vt.t
    checked = 0
    try:
        for target in targets:
            for p in enumerate_solid_partitions(
                Region(sp, target), max_parts=2 * _MAX_FAMILY, budget=_WORK_CAP
            ):
                if keep is not None and not keep(p):
                    continue
                checked += 1
                parts = p.part_masks()
                total = sum(t[m] for m in parts)
                if total != t[target]:
                    return ConditionVerdict(
                        "fail", method, checked, 0, witness(target, parts, total)
                    )
    except BudgetExceeded as exc:
        return ConditionVerdict("unknown", method, checked, 0, {"reason": str(exc)})
    return ConditionVerdict("pass", method, checked)


def _check_ssfc(sp, vt, solids, s2: ConditionVerdict) -> dict[str, ConditionVerdict]:
    """The compact-space axiom set: superadditivity against λ(X), inner
    regularity, and additivity over irreducible partitions of X."""
    xm = sp.x_mask
    positives = _Columns([m for m in solids if vt.t[m] > 0], sp.cell_count)
    out = {"ssfC1": _superadditivity_sweep(vt, xm, [xm], positives)}
    # On a compact space every open set is bounded, so the inner-regularity
    # sweep of (s2) is this condition verbatim.
    out["ssfC2"] = s2

    g = _genus_report(sp)
    if g.exact and g.genus == 0:
        out["ssfC3"] = _complement_identity(sp, vt, solids)
        return out
    out["ssfC3"] = _partition_sweep(
        sp, "irreducible partition enumeration", vt, [xm], is_irreducible,
        lambda _, parts, total: {
            "parts": [_cells(m) for m in parts],
            "parts_sum": format_value(Fraction(total, vt.den)),
            "total": format_value(vt.mu(xm)),
        },
    )
    return out
