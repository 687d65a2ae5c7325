"""The extension engine: maximal compact subsets, the two construction paths,
and the measure objects built from solid-set functions."""

from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import pytest

from topomeasure.extend import (
    TopMeasure,
    grubb_mu_mask,
    k_max_mask,
    lambda1_mask,
    lambda2_mask,
    mu_closed_mask,
    mu_open_mask,
    validate_tm,
)
from topomeasure.registry import shipped_compact_entries, shipped_entries
from topomeasure.solid import (
    BudgetExceeded,
    compact_solid_catalog,
    downset_catalog,
    enumerate_bounded_solid_sets,
    upset_catalog,
)
from topomeasure.space import (
    FiniteSpace,
    Region,
    RegionError,
    build_circle,
    build_disk,
    build_line_window,
    build_sphere,
)
from topomeasure.ssf import (
    make_restricted_measure,
    make_threshold,
    make_two_point,
    uniform_vertex_weights,
)

COMPACT_ENTRIES = shipped_compact_entries()
SMALL_ENTRIES = [e for e in shipped_entries() if e.space().cell_count <= 17]


@pytest.mark.parametrize("entry", SMALL_ENTRIES, ids=lambda e: e.key)
def test_k_max_is_the_largest_compact_subset(entry):
    sp = entry.space()
    compacts = [m for m in downset_catalog(sp) if sp.is_bounded_mask(m)]
    for u in upset_catalog(sp):
        kmax = k_max_mask(sp, u)
        assert kmax & ~u == 0 and sp.is_compact_mask(kmax)
        for k in compacts:
            if k & ~u == 0:
                assert k & ~kmax == 0, "a compact subset escapes the maximal one"


@pytest.mark.parametrize("entry", SMALL_ENTRIES, ids=lambda e: e.key)
def test_extension_agrees_with_the_function_on_bounded_solids(entry):
    if not entry.tm_expected:
        pytest.skip("two-valued demo functions do not extend to measures here")
    lam = entry.ssf()
    sp = entry.space()
    for kind, r in enumerate_bounded_solid_sets(sp, cap=200_000):
        expected = lam.value(r.cells)
        if kind == "compact":
            assert mu_closed_mask(lam, r.cells) == expected
        else:
            assert mu_open_mask(lam, r.cells) == expected


@pytest.mark.parametrize("entry", SMALL_ENTRIES, ids=lambda e: e.key)
def test_closed_value_is_the_attained_infimum_over_open_supersets(entry):
    lam = entry.ssf()
    sp = entry.space()
    opens = upset_catalog(sp)
    for f in downset_catalog(sp):
        values = [mu_open_mask(lam, u) for u in opens if f & ~u == 0]
        assert mu_closed_mask(lam, f) == min(values)


@pytest.mark.parametrize("entry", SMALL_ENTRIES, ids=lambda e: e.key)
def test_open_value_is_the_attained_supremum_over_compact_subsets(entry):
    lam = entry.ssf()
    sp = entry.space()
    compacts = [m for m in downset_catalog(sp) if sp.is_bounded_mask(m)]
    for u in upset_catalog(sp):
        values = [mu_closed_mask(lam, k) for k in compacts if k & ~u == 0]
        assert mu_open_mask(lam, u) == max(values)


@pytest.mark.parametrize("entry", COMPACT_ENTRIES, ids=lambda e: e.key)
def test_compact_path_agrees_with_general_path_everywhere(entry):
    lam = entry.ssf()
    sp = entry.space()
    tm = TopMeasure(lam)
    checked = 0
    for m in downset_catalog(sp):
        assert grubb_mu_mask(lam, m) == tm.mu_mask(m)
        checked += 1
    for m in upset_catalog(sp):
        assert grubb_mu_mask(lam, m) == tm.mu_mask(m)
        checked += 1
    assert checked > 2


def test_lambda1_subtracts_bounded_holes():
    sp = build_circle(4)  # compact: every complement component is bounded
    lam = make_restricted_measure(sp, uniform_vertex_weights(sp))
    # A closed arc through 3 of the 4 vertices.  Its complement is the open
    # star of the remaining vertex (bounded, solid, weight 1), so the hull of
    # the arc is all of X and lambda1 = lam(X) - lam(star) = 4 - 1.
    arc = sp.closure_mask((1 << 4) | (1 << 5))  # edges 0-1 and 1-2 plus ends
    gap = sp.x_mask & ~arc
    assert gap == sp.up_closure_mask(1 << 3)
    assert lam.value(sp.x_mask) == 4 and lam.value(gap) == 1
    assert lambda1_mask(lam, arc) == Fraction(3)


def test_lambda2_sums_over_components():
    sp = build_circle(4)
    lam = make_restricted_measure(sp, uniform_vertex_weights(sp))
    two_points = sp.closure_mask((1 << 0) | (1 << 2))  # opposite vertices
    assert lambda2_mask(lam, two_points) == sum(
        lambda1_mask(lam, m) for m in sp.components_masks(two_points)
    )


def test_measure_object_api():
    entry = next(e for e in COMPACT_ENTRIES if e.key == "disk-4:uniform")
    lam = entry.ssf()
    sp = entry.space()
    tm = TopMeasure(lam)
    assert tm.engine_built and tm.kind.startswith("extension of")
    assert tm.mu(Region(sp, sp.x_mask)) == lam.value(sp.x_mask)
    with pytest.raises(RegionError):
        tm.mu_mask((1 << 5) | (1 << 1) | (1 << 13))  # neither open nor closed


def test_compact_path_refuses_noncompact_spaces():
    sp = build_line_window(4)
    lam = make_restricted_measure(sp, uniform_vertex_weights(sp))
    with pytest.raises(RegionError):
        grubb_mu_mask(lam, 0)


def test_simplicity_of_two_valued_extensions():
    entry = next(e for e in shipped_entries() if e.ssf_name == "aarnes")
    tm = TopMeasure(entry.ssf())
    assert tm.is_simple()
    uniform_entry = next(
        e for e in COMPACT_ENTRIES if e.key == "disk-4:uniform"
    )
    assert not TopMeasure(uniform_entry.ssf()).is_simple()


# Solid-set functions whose compact-path λ₂ᶜ is not monotone, so the compact
# path takes its literal sup over compact subsets.
NONMONOTONE = [
    (build, name)
    for build in (lambda: build_circle(4), lambda: build_disk(4), lambda: build_sphere(2))
    for name in ("threshold", "two-point")
]


def _nonmonotone_ssf(build, name):
    sp = build()
    weights = uniform_vertex_weights(sp)
    if name == "threshold":
        return make_threshold(sp, weights, Fraction(2))
    vertices = sorted(weights)
    return make_two_point(sp, vertices[0], vertices[-1], weights)


def _case_id(case) -> str:
    build, name = case
    return f"{build().name}:{name}"


def _literal_lambda2c(lam, closed: int) -> Fraction:
    sp = lam.space
    total = Fraction(0)
    for comp in sp.components_masks(closed):
        total += lam.value(sp.x_mask) - sum(
            (lam.value(m) for m in sp.components_masks(sp.x_mask & ~comp)), Fraction(0)
        )
    return total


@pytest.mark.parametrize("case", NONMONOTONE, ids=_case_id)
def test_compact_path_on_nonmonotone_functions_is_the_literal_sup(case):
    lam = _nonmonotone_ssf(*case)
    sp = lam.space
    closeds = downset_catalog(sp)
    l2c = {d: _literal_lambda2c(lam, d) for d in closeds}
    assert any(
        l2c[a] > l2c[b] for a in closeds for b in closeds if not a & ~b
    ), "λ₂ᶜ is monotone here, so the literal-sup branch is not reached"
    expected = {
        u: max(v for d, v in l2c.items() if not d & ~u) for u in upset_catalog(sp)
    }
    for u, value in expected.items():
        assert grubb_mu_mask(lam, u) == value
    for c in closeds:
        if c not in expected:  # a clopen set takes its open value
            assert grubb_mu_mask(lam, c) == lam.value(sp.x_mask) - expected[sp.x_mask & ~c]


@pytest.mark.parametrize("case", NONMONOTONE, ids=_case_id)
def test_measure_object_equals_the_plain_formulas(case):
    lam = _nonmonotone_ssf(*case)
    sp = lam.space
    tm = TopMeasure(lam)
    for f in downset_catalog(sp):
        assert tm.mu_mask(f) == mu_closed_mask(lam, f)
    for u in upset_catalog(sp):
        assert tm.mu_mask(u) == mu_open_mask(lam, u)


@pytest.mark.parametrize("case", NONMONOTONE[:2], ids=_case_id)
def test_function_memo_holds_only_function_values(case):
    lam = _nonmonotone_ssf(*case)
    sp = lam.space
    tm = TopMeasure(lam)
    regions = downset_catalog(sp) + upset_catalog(sp)
    for m in regions:
        tm.mu_mask(m)
        grubb_mu_mask(lam, m)
    validate_tm(tm)
    assert lam._memo and all(type(k) is int for k in lam._memo)


def test_catalog_stopped_at_its_cap_leaves_no_cyclic_garbage():
    sp = build_disk(4)  # a fresh space: its catalog is not cached yet
    gc.disable()
    try:
        gc.collect()
        with pytest.raises(BudgetExceeded):
            downset_catalog(sp, 50)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_measure_and_function_are_freed_by_reference_counting():
    lam = _nonmonotone_ssf(*NONMONOTONE[0])
    sp = lam.space
    gc.disable()
    try:
        tm = TopMeasure(lam)
        for m in downset_catalog(sp) + upset_catalog(sp):
            tm.mu_mask(m)
            grubb_mu_mask(lam, m)
        tm_ref, lam_ref = weakref.ref(tm), weakref.ref(lam)
        del tm
        assert tm_ref() is None
        del lam
        assert lam_ref() is None
    finally:
        gc.enable()
