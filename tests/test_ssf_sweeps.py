"""The integer-scaled solid-set-function validator against a literal
Fraction reference.

``reference_validate_ssf`` is the condition-by-condition validator written
directly on ``Fraction`` values: a per-candidate containment filter for the
family sweep, literal sup/inf loops for (s2)/(s3), and one partition loop
per condition.  Every report of the engine's ``validate_ssf`` must equal it
in JSON form: verdicts, methods, ``checked`` and ``vacuous`` counts (up to
the first failure) and witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topomeasure import ssf
from topomeasure.partition import (
    enumerate_solid_partitions,
    genus,
    hatX_genus0_check,
    is_irreducible,
)
from topomeasure.registry import shipped_entries
from topomeasure.solid import (
    BudgetExceeded,
    bounded_open_solid_catalog,
    bounded_solid_catalog,
    compact_solid_catalog,
    downset_catalog,
)
from topomeasure.space import (
    FiniteSpace,
    Region,
    build_annulus,
    build_circle,
    build_disk,
    build_interval,
    build_line_window,
    build_punctured_disk,
    build_sphere,
    build_strip,
)
from topomeasure.ssf import (
    ConditionVerdict,
    SolidSetFunction,
    SsfValidationReport,
    make_from_descriptor,
    make_restricted_measure,
    validate_ssf,
)
from topomeasure.values import format_value


# ----- literal reference ----------------------------------------------------------


def _cells(mask: int) -> list[int]:
    return sorted(FiniteSpace.cells_of(mask))


def _superadditivity_sweep(lam, containers, candidates, max_family, work_cap):
    work = 0
    checked = 0
    for cmask in containers:
        target = lam.value(cmask)
        inside = [(m, v) for m, v in candidates if not m & ~cmask]

        stack = [(0, 0, Fraction(0), ())]
        while stack:
            start, used, total, fam = stack.pop()
            if fam:
                checked += 1
                if total > target:
                    return ConditionVerdict(
                        "fail", "positive-candidate family sweep", checked, 0,
                        {
                            "container": _cells(cmask),
                            "container_value": format_value(target),
                            "family": [_cells(m) for m in fam],
                            "family_sum": format_value(total),
                        },
                    )
            if len(fam) >= max_family:
                continue
            for i in range(start, len(inside)):
                m, v = inside[i]
                work += 1
                if work > work_cap:
                    return ConditionVerdict(
                        "unknown", "positive-candidate family sweep", checked, 0,
                        {"reason": f"work cap {work_cap} exhausted"},
                    )
                if m & used:
                    continue
                stack.append((i + 1, used | m, total + v, fam + (m,)))
    return ConditionVerdict("pass", "positive-candidate family sweep", checked)


def reference_validate_ssf(
    lam, catalog_cap: int = 200_000, work_cap: int = 5_000_000, max_family: int = 4
) -> SsfValidationReport:
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

    positives = [(m, lam.value(m)) for m in compacts if lam.value(m) > 0]
    conditions["s1"] = _superadditivity_sweep(lam, compacts, positives, max_family, work_cap)

    verdict = ConditionVerdict("pass", "literal sup sweep", len(opens))
    for u in opens:
        best = Fraction(0)
        for c in compacts:
            if not c & ~u:
                v = lam.value(c)
                if v > best:
                    best = v
        if best != lam.value(u):
            verdict = ConditionVerdict(
                "fail", "literal sup sweep", len(opens), 0,
                {
                    "open": _cells(u),
                    "value": format_value(lam.value(u)),
                    "sup_over_compacts": format_value(best),
                },
            )
            break
    conditions["s2"] = verdict

    vacuous = 0
    verdict = ConditionVerdict("pass", "literal inf sweep", len(compacts))
    for c in compacts:
        best: Optional[Fraction] = None
        for u in opens:
            if not c & ~u:
                v = lam.value(u)
                if best is None or v < best:
                    best = v
        if best is None:
            vacuous += 1
            continue
        if best != lam.value(c):
            verdict = ConditionVerdict(
                "fail", "literal inf sweep", len(compacts), vacuous,
                {
                    "compact": _cells(c),
                    "value": format_value(lam.value(c)),
                    "inf_over_opens": format_value(best),
                },
            )
            break
    if verdict.verdict == "pass":
        verdict = ConditionVerdict("pass", "literal inf sweep", len(compacts), vacuous)
    conditions["s3"] = verdict

    premises_ok = (
        conditions["s1"].verdict == "pass" and conditions["s2"].verdict == "pass"
    )
    conditions["s4"] = _check_s4(lam, solids, work_cap, max_family, premises_ok)
    if sp.infinity is None:
        conditions.update(_check_ssfc(lam, solids, conditions["s2"], work_cap, max_family))
    return SsfValidationReport(sp.name, lam.kind, conditions)


def _genus(sp: FiniteSpace):
    if "reference-genus" not in sp._cache:
        sp._cache["reference-genus"] = genus(sp)
    return sp._cache["reference-genus"]


def _check_s4(lam, solids, work_cap, max_family, premises_ok: bool) -> ConditionVerdict:
    sp = lam.space
    if sp.infinity is None:
        g = _genus(sp)
        if g.exact and g.genus == 0 and premises_ok:
            return _complement_identity(lam, solids)
        return _s4_by_enumeration(lam, solids, work_cap, max_family, include_x=True)
    if hatX_genus0_check(sp):
        return ConditionVerdict(
            "pass", "compactification genus 0: only trivial partitions", len(solids)
        )
    return _s4_by_enumeration(lam, solids, work_cap, max_family, include_x=False)


def _complement_identity(lam, solids) -> ConditionVerdict:
    sp = lam.space
    total = lam.value(sp.x_mask)
    for a in solids:
        comp = sp.x_mask & ~a
        if lam.value(a) + lam.value(comp) != total:
            return ConditionVerdict(
                "fail", "genus-0 complement identity", len(solids), 0,
                {
                    "solid": _cells(a),
                    "value": format_value(lam.value(a)),
                    "complement_value": format_value(lam.value(comp)),
                    "total": format_value(total),
                },
            )
    return ConditionVerdict("pass", "genus-0 complement identity", len(solids))


def _s4_by_enumeration(lam, solids, work_cap, max_family, include_x: bool) -> ConditionVerdict:
    sp = lam.space
    targets = [m for m in solids if m]
    if include_x and sp.x_mask not in targets:
        targets.append(sp.x_mask)
    checked = 0
    try:
        for t in targets:
            target_value = lam.value(t)
            for p in enumerate_solid_partitions(
                Region(sp, t), max_parts=max_family * 2, budget=work_cap
            ):
                checked += 1
                total = sum((lam.value(m) for m in p.part_masks()), Fraction(0))
                if total != target_value:
                    return ConditionVerdict(
                        "fail", "partition enumeration", checked, 0,
                        {
                            "target": _cells(t),
                            "target_value": format_value(target_value),
                            "parts": [_cells(m) for m in p.part_masks()],
                            "parts_sum": format_value(total),
                        },
                    )
    except BudgetExceeded as exc:
        return ConditionVerdict(
            "unknown", "partition enumeration", checked, 0, {"reason": str(exc)}
        )
    return ConditionVerdict("pass", "partition enumeration", checked)


def _check_ssfc(lam, solids, s2, work_cap, max_family) -> dict[str, ConditionVerdict]:
    sp = lam.space
    out: dict[str, ConditionVerdict] = {}
    positives = [(m, lam.value(m)) for m in solids if lam.value(m) > 0]
    out["ssfC1"] = _superadditivity_sweep(lam, [sp.x_mask], positives, max_family, work_cap)
    out["ssfC2"] = s2

    g = _genus(sp)
    if g.exact and g.genus == 0:
        out["ssfC3"] = _complement_identity(lam, solids)
        return out
    checked = 0
    try:
        for p in enumerate_solid_partitions(
            Region(sp, sp.x_mask), max_parts=max_family * 2, budget=work_cap
        ):
            if not is_irreducible(p):
                continue
            checked += 1
            total = sum((lam.value(m) for m in p.part_masks()), Fraction(0))
            if total != lam.value(sp.x_mask):
                out["ssfC3"] = ConditionVerdict(
                    "fail", "irreducible partition enumeration", checked, 0,
                    {
                        "parts": [_cells(m) for m in p.part_masks()],
                        "parts_sum": format_value(total),
                        "total": format_value(lam.value(sp.x_mask)),
                    },
                )
                return out
        out["ssfC3"] = ConditionVerdict("pass", "irreducible partition enumeration", checked)
    except BudgetExceeded as exc:
        out["ssfC3"] = ConditionVerdict(
            "unknown", "irreducible partition enumeration", checked, 0, {"reason": str(exc)}
        )
    return out


# ----- engine against reference -----------------------------------------------------


def assert_same_report(lam, catalog_cap: int = 200_000) -> dict:
    engine = validate_ssf(lam, catalog_cap).to_json()
    assert engine == reference_validate_ssf(
        lam, catalog_cap, ssf._WORK_CAP, ssf._MAX_FAMILY
    ).to_json()
    return engine


def failing(report: dict) -> set[str]:
    return {n for n, c in report["conditions"].items() if c["verdict"] == "fail"}


# annulus(4) costs seconds per pair; annulus(3) keeps its genus-1 branches.
REGISTRY = [e for e in shipped_entries() if e.builder != "annulus"]


@pytest.mark.parametrize("entry", REGISTRY, ids=lambda e: e.key)
def test_registry_pairs_match_reference(entry):
    report = assert_same_report(entry.ssf())
    assert report["passed"]


def test_annulus_point_mass_matches_reference():
    sp = build_annulus(3)
    report = assert_same_report(make_restricted_measure(sp, {0: Fraction(1)}))
    assert report["conditions"]["s4"]["method"] == "partition enumeration"
    assert report["conditions"]["ssfC3"]["method"] == "irreducible partition enumeration"


SMALL = [build_interval(3), build_circle(4), build_line_window(4), build_punctured_disk(3)]
WEIGHT = st.fractions(min_value=0, max_value=3, max_denominator=12)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_rational_vertex_weights_match_reference(data):
    sp = data.draw(st.sampled_from(SMALL), label="space")
    vertices = [c for c in FiniteSpace.cells_of(sp.vertex_mask()) if c != sp.infinity]
    weights = {v: data.draw(WEIGHT, label=f"w{v}") for v in vertices}
    assert_same_report(make_restricted_measure(sp, weights))


# Family descriptors on compact spaces of genus 0 and 1 and on noncompact
# spaces, with the conditions each one fails.
FAMILIES = [
    (build_circle(4), "threshold w=0:1,1:1,2:3,3:1/2 t=2", {"s2", "s3", "s4", "ssfC2", "ssfC3"}),
    (build_circle(4), "two-point p1=0 p2=1 rule=doubled-total", {"s4", "ssfC3"}),
    (build_circle(4), "point-majority points=0,1,2", {"s4", "ssfC3"}),
    (build_circle(4), "aarnes-circle B=0,1 p=3", {"s4", "ssfC3"}),
    (build_sphere(2), "threshold w=0:1,1:1,2:3,3:1/2 t=2", {"s2", "s3", "s4", "ssfC2", "ssfC3"}),
    (build_sphere(2), "two-point p1=0 p2=3 w=0:1,1:1,2:3,3:1/2", {"s4", "ssfC3"}),
    (build_sphere(2), "point-majority points=0,1,2", set()),
    (build_disk(3), "aarnes-circle B=0 p=1", set()),
    (build_line_window(4), "threshold w=@uniform t=3/2", {"s4"}),
    (build_line_window(4), "two-point p1=1 p2=3 w=1:1,2:1,3:3", {"s4"}),
    (build_line_window(4), "point-majority points=1,2,3", {"s4"}),
    (build_line_window(4), "aarnes-circle B=1,2 p=3", {"s4"}),
    (build_punctured_disk(3), "aarnes-circle B=1,2 p=3", set()),
    (build_strip(3, 1), "two-point p1=2 p2=5 w=2:1,3:1,4:3,5:1/2", {"s4"}),
]


@pytest.mark.parametrize(
    "sp, descriptor, fails", FAMILIES, ids=[f"{s.name}:{d.split()[0]}" for s, d, _ in FAMILIES]
)
def test_families_match_reference(sp, descriptor, fails):
    assert failing(assert_same_report(make_from_descriptor(sp, descriptor))) == fails


def _nonempty(sp: FiniteSpace) -> SolidSetFunction:
    """λ = 1 on every nonempty solid: a disjoint pair of points sums past
    its container."""
    return SolidSetFunction(sp, "nonempty", {}, lambda m: Fraction(m != 0))


@pytest.mark.parametrize(
    "sp, fails",
    [
        (build_circle(4), {"s1", "s2", "s4", "ssfC1", "ssfC2", "ssfC3"}),
        (build_sphere(2), {"s1", "s2", "s4", "ssfC1", "ssfC2", "ssfC3"}),
        (build_line_window(4), {"s1", "s2", "s4"}),
    ],
    ids=["circle-4", "sphere-2", "line-window-4"],
)
def test_superadditivity_failures_match_reference(sp, fails):
    assert failing(assert_same_report(_nonempty(sp))) == fails


def test_outer_regularity_vacuous_count_stops_at_first_failure():
    # On line_window(4) only compact solids 0 and 2 lie in a bounded open
    # solid; a failure at the third compact has counted one vacuous one.
    sp = build_line_window(4)
    compacts = compact_solid_catalog(sp)
    bump = compacts[2]
    lam = SolidSetFunction(sp, "bump", {}, lambda m: Fraction(m == bump))
    s3 = assert_same_report(lam)["conditions"]["s3"]
    assert (s3["verdict"], s3["checked"], s3["vacuous"]) == ("fail", len(compacts), 1)
    s3 = assert_same_report(make_restricted_measure(sp, {}))["conditions"]["s3"]
    assert (s3["verdict"], s3["vacuous"]) == ("pass", 5)


# Seeded mutants: arbitrary nonnegative values on every solid, with mixed
# denominators, reach every failing branch of every condition.
POOL = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2)]
MUTANT_SPACES = [build_interval(2), build_circle(3), build_line_window(4), build_strip(3, 1)]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_seeded_mutants_match_reference(data):
    sp = data.draw(st.sampled_from(MUTANT_SPACES), label="space")
    solids = bounded_solid_catalog(sp)
    values = dict(zip(solids, data.draw(st.lists(
        st.sampled_from(POOL), min_size=len(solids), max_size=len(solids)
    ))))
    values[0] = Fraction(0)
    assert_same_report(SolidSetFunction(sp, "mutant", {}, values.__getitem__))


@pytest.mark.parametrize(
    "sp", [build_circle(4), build_line_window(4), build_disk(3)], ids=lambda s: s.name
)
def test_small_catalog_cap_matches_reference(sp):
    lam = make_from_descriptor(sp, "measure w=@uniform")
    report = assert_same_report(lam, catalog_cap=5)
    assert {c["verdict"] for c in report["conditions"].values()} == {"unknown"}
    assert assert_same_report(lam, catalog_cap=len(downset_catalog(sp)))["passed"]


@pytest.mark.parametrize("work_cap", [3, 40, 400])
def test_small_work_cap_matches_reference(monkeypatch, work_cap):
    monkeypatch.setattr(ssf, "_WORK_CAP", work_cap)
    unknown = set()
    for sp in (build_circle(4), build_line_window(4), build_disk(3)):
        for descriptor in ("measure w=@uniform", "point-majority points=1,2,3"):
            report = assert_same_report(make_from_descriptor(sp, descriptor))
            unknown |= {
                (n, c["method"]) for n, c in report["conditions"].items()
                if c["verdict"] == "unknown"
            }
    assert ("s1", "positive-candidate family sweep") in unknown
    assert ("s4", "partition enumeration") in unknown
    if work_cap < 400:
        assert ("ssfC1", "positive-candidate family sweep") in unknown
        assert ("ssfC3", "irreducible partition enumeration") in unknown
