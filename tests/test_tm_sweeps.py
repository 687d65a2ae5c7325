"""The integer-scaled TM validator against a literal Fraction reference.

``reference_validate_tm`` is the pair-by-pair validator written directly on
``Fraction``/``INF`` values with ``vadd``.  Every report of the engine's
``validate_tm`` must equal it in JSON form: verdicts, methods, ``checked``
counts (including the position of the first failing pair), witnesses and
classification.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topomeasure.extend import (
    RawTopMeasure,
    TmValidationReport,
    TopMeasure,
    make_rule_threshold_tm,
    validate_tm,
)
from topomeasure.oracle import OracleRefusal, oracle_catalog
from topomeasure.registry import shipped_entries
from topomeasure.solid import (
    BudgetExceeded,
    bounded_solid_catalog,
    downset_catalog,
    upset_catalog,
)
from topomeasure.space import (
    FiniteSpace,
    build_circle,
    build_interval,
    build_line_window,
    build_punctured_disk,
    build_sphere,
)
from topomeasure.ssf import ConditionVerdict, make_restricted_measure
from topomeasure.values import INF, Value, format_value, vadd


# ----- literal reference ----------------------------------------------------------


def _cells(mask: int) -> list[int]:
    return sorted(FiniteSpace.cells_of(mask))


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


def reference_validate_tm(tm, catalog_cap: int = 200_000) -> TmValidationReport:
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

    domain = sorted(set(compacts) | set(opens))
    member = set(domain)
    verdict = None
    checked = 0
    for i, a in enumerate(domain):
        for b in domain[i:]:
            if a & b or (a | b) not in member:
                continue
            checked += 1
            lhs = mu(a | b)
            rhs = vadd(mu(a), mu(b))
            if lhs != rhs:
                verdict = ConditionVerdict(
                    "fail", "disjoint pair sweep over compacts and opens", checked, 0,
                    _pair_witness(a, b, lhs, rhs),
                )
                break
        if verdict:
            break
    conditions["TM1"] = verdict or ConditionVerdict(
        "pass", "disjoint pair sweep over compacts and opens", checked
    )

    verdict = None
    for u in opens:
        best: Value = Fraction(0)
        for k in compacts:
            if not k & ~u:
                v = mu(k)
                if best < v:
                    best = v
        if best != mu(u):
            verdict = ConditionVerdict(
                "fail", "literal sup over compact subsets", len(opens), 0,
                {"open": _cells(u), "sup": format_value(best), "value": format_value(mu(u))},
            )
            break
    conditions["TM2"] = verdict or ConditionVerdict(
        "pass", "literal sup over compact subsets", len(opens)
    )

    verdict = None
    for f in closeds:
        best: Optional[Value] = None
        for u in opens:
            if not f & ~u:
                v = mu(u)
                if best is None or v < best:
                    best = v
        limit = INF if best is None else best
        if limit != mu(f):
            verdict = ConditionVerdict(
                "fail", "literal inf over open supersets", len(closeds), 0,
                {"closed": _cells(f), "inf": format_value(limit), "value": format_value(mu(f))},
            )
            break
    conditions["TM3"] = verdict or ConditionVerdict(
        "pass", "literal inf over open supersets", len(closeds)
    )

    verdict = None
    checked = 0
    for u in opens:
        for k in compacts:
            if k & ~u:
                continue
            checked += 1
            lhs = mu(u)
            rhs = vadd(mu(k), mu(u & ~k))
            if lhs != rhs:
                verdict = ConditionVerdict(
                    "fail", "compact-inside-open sweep", checked, 0,
                    _pair_witness(u, k, lhs, rhs, "lhs=mu(U), rhs=mu(K)+mu(U\\K)"),
                )
                break
        if verdict:
            break
    conditions["c1"] = verdict or ConditionVerdict("pass", "compact-inside-open sweep", checked)

    conditions["c2"] = _ref_disjoint_pair_sweep(mu, compacts, "disjoint compact pairs")
    conditions["c3"] = _ref_disjoint_pair_sweep(mu, opens, "disjoint open pairs")

    verdict = None
    checked = 0
    for f in closeds:
        for k in compacts:
            if f & k:
                continue
            checked += 1
            lhs = mu(f | k)
            rhs = vadd(mu(f), mu(k))
            if lhs != rhs:
                verdict = ConditionVerdict(
                    "fail", "disjoint closed-compact sweep", checked, 0,
                    _pair_witness(f, k, lhs, rhs),
                )
                break
        if verdict:
            break
    conditions["closed_compact_additivity"] = verdict or ConditionVerdict(
        "pass", "disjoint closed-compact sweep", checked
    )

    if sp.infinity is None:
        conditions.update(_ref_wheeler_conditions(sp, mu, closeds, opens))

    verdict = None
    checked = 0
    co_member = set(closeds) | set(opens)
    for f in closeds:
        for u in opens:
            if f & u or (f | u) not in co_member:
                continue
            checked += 1
            lhs = mu(f | u)
            rhs = vadd(mu(f), mu(u))
            if lhs != rhs:
                verdict = ConditionVerdict(
                    "fail", "disjoint closed-open sweep", checked, 0,
                    _pair_witness(f, u, lhs, rhs),
                )
                break
        if verdict:
            break
    informational["closed_open_additivity"] = verdict or ConditionVerdict(
        "pass", "disjoint closed-open sweep", checked
    )

    sub_c = _ref_subadditivity_sweep(mu, compacts, "compact pairs")
    sub_o = _ref_subadditivity_sweep(mu, opens, "open pairs")
    informational["subadditivity_compacts"] = sub_c
    informational["subadditivity_opens"] = sub_o
    classification = (
        "measure-extendable"
        if sub_c.verdict == "pass" and sub_o.verdict == "pass"
        else "proper topological measure"
    )

    if getattr(tm, "engine_built", False) and tm.lam is not None:
        lam = tm.lam
        verdict = None
        solids = bounded_solid_catalog(sp, catalog_cap)
        for m in solids:
            if mu(m) != lam.value(m):
                verdict = ConditionVerdict(
                    "fail", "sweep over bounded solids", len(solids), 0,
                    {
                        "solid": _cells(m),
                        "mu": format_value(mu(m)),
                        "lambda": format_value(lam.value(m)),
                    },
                )
                break
        conditions["mu_equals_lambda_on_solids"] = verdict or ConditionVerdict(
            "pass", "sweep over bounded solids", len(solids)
        )
        if lam.is_two_valued():
            bad = None
            for m in domain:
                if mu(m) not in (0, 1):
                    bad = {"region": _cells(m), "mu": format_value(mu(m))}
                    break
            conditions["simplicity_propagation"] = (
                ConditionVerdict("pass", "two-valued sweep over compacts and opens", len(domain))
                if bad is None
                else ConditionVerdict(
                    "fail", "two-valued sweep over compacts and opens", len(domain), 0, bad
                )
            )

    return TmValidationReport(sp.name, tm.kind, conditions, informational, classification)


def _ref_disjoint_pair_sweep(mu, catalog: list[int], label: str) -> ConditionVerdict:
    checked = 0
    for i, a in enumerate(catalog):
        for b in catalog[i:]:
            if a & b:
                continue
            checked += 1
            lhs = mu(a | b)
            rhs = vadd(mu(a), mu(b))
            if lhs != rhs:
                return ConditionVerdict(
                    "fail", f"{label} sweep", checked, 0, _pair_witness(a, b, lhs, rhs)
                )
    return ConditionVerdict("pass", f"{label} sweep", checked)


def _ref_subadditivity_sweep(mu, catalog: list[int], label: str) -> ConditionVerdict:
    checked = 0
    for i, a in enumerate(catalog):
        for b in catalog[i:]:
            checked += 1
            lhs = mu(a | b)
            rhs = vadd(mu(a), mu(b))
            if not (lhs <= rhs):
                return ConditionVerdict(
                    "fail", f"subadditivity over {label}", checked, 0,
                    _pair_witness(a, b, lhs, rhs, "lhs=mu(A∪B) exceeds rhs=mu(A)+mu(B)"),
                )
    return ConditionVerdict("pass", f"subadditivity over {label}", checked)


def _ref_wheeler_conditions(sp, mu, closeds, opens) -> dict[str, ConditionVerdict]:
    out: dict[str, ConditionVerdict] = {}
    verdict = None
    checked = 0
    for c in closeds:
        for k in closeds:
            if c & ~k:
                continue
            checked += 1
            if not (mu(c) <= mu(k)):
                verdict = ConditionVerdict(
                    "fail", "nested closed pair sweep", checked, 0,
                    _pair_witness(c, k, mu(c), mu(k), "mu not monotone on closeds"),
                )
                break
        if verdict:
            break
    out["wheeler_monotone_closed"] = verdict or ConditionVerdict(
        "pass", "nested closed pair sweep", checked
    )
    total = mu(sp.x_mask)
    verdict = None
    for c in closeds:
        best: Value = Fraction(0)
        for k in closeds:
            if not k & c:
                v = mu(k)
                if best < v:
                    best = v
        if vadd(mu(c), best) != total:
            verdict = ConditionVerdict(
                "fail", "max disjoint closed complement sweep", len(closeds), 0,
                {
                    "closed": _cells(c),
                    "mu_plus_best_disjoint": format_value(vadd(mu(c), best)),
                    "mu_X": format_value(total),
                },
            )
            break
    out["wheeler_disjoint_exhaustion"] = verdict or ConditionVerdict(
        "pass", "max disjoint closed complement sweep", len(closeds)
    )
    verdict = None
    for u in opens:
        if vadd(mu(u), mu(sp.x_mask & ~u)) != total:
            verdict = ConditionVerdict(
                "fail", "open complement sweep", len(opens), 0,
                {
                    "open": _cells(u),
                    "mu_U_plus_mu_complement": format_value(vadd(mu(u), mu(sp.x_mask & ~u))),
                    "mu_X": format_value(total),
                },
            )
            break
    out["wheeler_open_complement"] = verdict or ConditionVerdict(
        "pass", "open complement sweep", len(opens)
    )
    return out


# ----- engine against reference -----------------------------------------------------


def assert_same_report(tm) -> dict:
    engine = validate_tm(tm).to_json()
    assert engine == reference_validate_tm(tm).to_json()
    return engine


def _oracle_accepts(sp: FiniteSpace) -> bool:
    try:
        oracle_catalog(sp, "opens")
    except OracleRefusal:
        return False
    return True


REGISTRY = [e for e in shipped_entries() if e.tm_checked and _oracle_accepts(e.space())]


@pytest.mark.parametrize("entry", REGISTRY, ids=lambda e: e.key)
def test_registry_pairs_match_reference(entry):
    report = assert_same_report(TopMeasure(entry.ssf()))
    if not entry.tm_expected:
        # the two-valued extensions: same failing pair, same pair index
        assert report["conditions"]["TM1"]["verdict"] == "fail"


SMALL = [build_interval(3), build_circle(4), build_line_window(4), build_sphere(2)]
WEIGHT = st.fractions(min_value=0, max_value=3, max_denominator=12)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_rational_vertex_weights_match_reference(data):
    sp = data.draw(st.sampled_from(SMALL), label="space")
    vertices = [c for c in FiniteSpace.cells_of(sp.vertex_mask()) if c != sp.infinity]
    weights = {v: data.draw(WEIGHT, label=f"w{v}") for v in vertices}
    assert_same_report(TopMeasure(make_restricted_measure(sp, weights)))


@pytest.mark.parametrize("threshold", [Fraction(1), Fraction(3, 2), Fraction(5, 2)])
@pytest.mark.parametrize(
    "sp", [build_line_window(4), build_punctured_disk(3)], ids=lambda s: s.name
)
def test_threshold_rule_with_infinite_values_matches_reference(sp, threshold):
    vertices = [c for c in FiniteSpace.cells_of(sp.vertex_mask()) if c != sp.infinity]
    weights = {v: Fraction(1 + i % 3, 2) for i, v in enumerate(vertices)}
    tm = make_rule_threshold_tm(sp, weights, threshold)
    assert tm.mu_mask(sp.x_mask) is INF
    assert_same_report(tm)


# Arbitrary evaluators reach every failing branch, with negative, infinite
# and mixed-denominator values next to each other.
POOL = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(2), INF]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arbitrary_evaluators_match_reference(data):
    sp = data.draw(st.sampled_from([build_interval(2), build_circle(3), build_line_window(3)]))
    masks = sorted(set(downset_catalog(sp)) | set(upset_catalog(sp)))
    values = dict(zip(masks, data.draw(st.lists(
        st.sampled_from(POOL), min_size=len(masks), max_size=len(masks)
    ))))
    assert_same_report(RawTopMeasure(sp, "drawn", values.__getitem__))


def test_constant_infinite_evaluator_matches_reference():
    report = assert_same_report(RawTopMeasure(build_circle(3), "constant inf", lambda m: INF))
    assert report["conditions"]["TM1"]["verdict"] == "pass"
