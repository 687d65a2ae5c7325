"""Solid-set machinery: catalogs, classification, hulls, decompositions,
interpolation — each cross-checked against the brute-force oracle."""

from __future__ import annotations

import pytest

from topomeasure import oracle
from topomeasure.solid import (
    BudgetExceeded,
    bounded_open_solid_catalog,
    bounded_solid_catalog,
    classify,
    compact_solid_catalog,
    decompose_open_minus_compact,
    downset_catalog,
    enumerate_bounded_solid_sets,
    hull_mask,
    interpolate,
    is_solid_mask,
    solid_hull,
    upset_catalog,
)
from topomeasure.space import (
    FiniteSpace,
    Region,
    RegionError,
    build_circle,
    build_disk,
    build_interval,
    build_line_window,
    build_punctured_disk,
    build_sphere,
    region,
)

TINY = [
    build_interval(3),
    build_circle(3),
    build_line_window(3),
    build_punctured_disk(3),
    build_disk(3),
    build_sphere(2),
]


def subsets_of_x(sp: FiniteSpace):
    sub = sp.x_mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & sp.x_mask


@pytest.mark.parametrize("sp", TINY, ids=lambda s: s.name)
def test_catalogs_match_oracle(sp: FiniteSpace):
    budget = oracle.OracleBudget()
    assert upset_catalog(sp) == oracle.oracle_catalog(sp, "opens", budget)
    engine_compacts = [m for m in downset_catalog(sp) if sp.is_bounded_mask(m)]
    assert engine_compacts == oracle.oracle_catalog(sp, "compacts", budget)
    assert compact_solid_catalog(sp) == oracle.oracle_catalog(
        sp, "compact_solids", budget
    )
    assert bounded_open_solid_catalog(sp) == oracle.oracle_catalog(
        sp, "open_solids_bounded", budget
    )


@pytest.mark.parametrize("sp", TINY, ids=lambda s: s.name)
def test_solidity_and_hull_match_oracle(sp: FiniteSpace):
    for mask in subsets_of_x(sp):
        assert is_solid_mask(sp, mask) == oracle.brute_force_solid(sp, mask)
        assert hull_mask(sp, mask) == oracle.brute_force_hull(sp, mask)


@pytest.mark.parametrize("sp", TINY, ids=lambda s: s.name)
def test_classification_fields(sp: FiniteSpace):
    for mask in subsets_of_x(sp):
        c = classify(Region(sp, mask))
        assert c.open == sp.is_open_mask(mask)
        assert c.closed == sp.is_closed_mask(mask)
        assert c.bounded == sp.is_bounded_mask(mask)
        assert c.compact == (c.closed and c.bounded)
        assert c.connected == sp.connected(mask)
        assert c.semisolid == c.connected
        assert c.solid == oracle.brute_force_solid(sp, mask)
        comps = sp.components_masks(sp.x_mask & ~mask)
        assert c.complement_component_count == len(comps)
        assert c.unbounded_complement_count == sum(
            1 for m in comps if not sp.is_bounded_mask(m)
        )


def test_solid_hull_rejects_bad_inputs():
    sp = build_line_window(4)
    whole = Region(sp, sp.x_mask)
    with pytest.raises(RegionError, match="bounded"):
        solid_hull(whole)
    two_bits = region(sp, [1, 3])
    with pytest.raises(RegionError, match="connected"):
        solid_hull(two_bits)


def test_bounded_solid_stream_is_exact_and_budgeted():
    sp = build_circle(3)
    seen = list(enumerate_bounded_solid_sets(sp, cap=10_000))
    masks = sorted({r.cells for _, r in seen})
    assert masks == bounded_solid_catalog(sp)
    # every mask appears exactly once
    assert len({(k, r.cells) for k, r in seen}) == len(seen)
    with pytest.raises(BudgetExceeded):
        list(enumerate_bounded_solid_sets(sp, cap=3))
    with pytest.raises(BudgetExceeded):
        downset_catalog(build_sphere(2), cap=5)


@pytest.mark.parametrize(
    "catalog",
    [downset_catalog, upset_catalog, compact_solid_catalog,
     bounded_open_solid_catalog, bounded_solid_catalog],
    ids=lambda f: f.__name__,
)
def test_catalog_cache_is_shared_across_caps(catalog):
    sp = build_sphere(2)
    full = catalog(sp)
    n = len(downset_catalog(sp))
    assert catalog(sp, 200_000) is full
    assert catalog(sp, n) is full
    message = f"down-set catalog of {sp.name} exceeds cap {n - 1}"
    with pytest.raises(BudgetExceeded, match=message):
        catalog(sp, n - 1)
    # a capped first request caches the complete list for uncapped callers
    fresh = build_sphere(2)
    assert catalog(fresh, n) == full
    assert catalog(fresh) is catalog(fresh, n)


@pytest.mark.parametrize("sp", TINY, ids=lambda s: s.name)
def test_open_minus_compact_decomposition(sp: FiniteSpace):
    opens = upset_catalog(sp)
    compacts = [m for m in downset_catalog(sp) if sp.is_bounded_mask(m)]
    checked = 0
    for u in opens:
        for k in compacts:
            if k & ~u:
                continue
            pieces = decompose_open_minus_compact(
                Region(sp, u), Region(sp, k), allow_disjoint_union=True
            )
            union = 0
            for piece, cls in pieces:
                assert cls.open and cls.semisolid
                assert not union & piece.cells
                union |= piece.cells
            assert union == u & ~k
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("sp", TINY, ids=lambda s: s.name)
def test_interpolation_bracket(sp: FiniteSpace):
    opens = upset_catalog(sp)
    compacts = [m for m in downset_catalog(sp) if sp.is_bounded_mask(m)]
    for w in opens:
        for k in compacts:
            if k & ~w:
                continue
            got = interpolate(sp, k, w)
            if got is None:
                continue
            v, d = got
            assert not k & ~v and not v & ~d and not d & ~w
            assert sp.is_open_mask(v) and sp.is_bounded_mask(v) and sp.connected(v)
            assert sp.is_compact_mask(d) and sp.connected(d)


def test_interpolation_finds_known_bracket():
    sp = build_disk(3)
    apex = 1 << 0
    got = interpolate(sp, apex, sp.x_mask)
    assert got is not None
    v, d = got
    assert v == sp.up_closure_mask(apex)
    assert d == sp.closure_mask(v)
