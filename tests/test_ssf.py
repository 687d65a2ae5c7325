"""Solid-set function factories and the axiom validator.

Every shipped (space, function) pair must pass the validator with zero
unknown verdicts at shipped budgets, and the validator must catch a seeded
bug (a single perturbed value) — a mutation check that it actually bites.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from topomeasure.registry import shipped_entries
from topomeasure.solid import bounded_solid_catalog
from topomeasure.space import build_circle, build_disk, build_plane_window, region
from topomeasure.ssf import (
    SolidSetFunction,
    make_aarnes_circle,
    make_from_descriptor,
    make_point_majority,
    make_restricted_measure,
    make_threshold,
    make_two_point,
    uniform_vertex_weights,
    validate_ssf,
)

ENTRIES = shipped_entries()


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.key)
def test_shipped_pairs_pass_axiom_validation(entry):
    report = validate_ssf(entry.ssf())
    assert not report.unknown, f"{entry.key}: unknown verdicts at shipped budget"
    bad = {n: c for n, c in report.conditions.items() if c.verdict != "pass"}
    assert report.passed, f"{entry.key}: failed conditions {bad}"


def test_validator_catches_seeded_bug():
    sp = build_circle(4)
    good = make_restricted_measure(sp, uniform_vertex_weights(sp))
    solids = [m for m in bounded_solid_catalog(sp) if m and m != sp.x_mask]
    target = solids[len(solids) // 2]

    def perturbed(mask: int) -> Fraction:
        v = good.value(mask)
        return v + 7 if mask == target else v

    mutant = SolidSetFunction(sp, "uniform-with-seeded-bug", {}, perturbed)
    report = validate_ssf(mutant)
    assert not report.passed, "validator accepted a function with a seeded bug"


def test_point_majority_values_and_validation():
    sp = build_disk(4)
    lam = make_point_majority(sp, [1, 2, 3])
    # one marked vertex -> floor(1/2)=0 majorities; all three -> 1
    assert lam.evaluate(region(sp, [1])) == 0
    assert lam.evaluate(region(sp, range(sp.cell_count))) == 1  # the whole space
    assert lam.is_two_valued()
    with pytest.raises(ValueError):
        make_point_majority(sp, [1, 2])  # even count
    with pytest.raises(ValueError):
        make_point_majority(sp, [0, 5, 6])  # 5, 6 are edges, not vertices


def test_aarnes_circle_values():
    sp = build_disk(4)
    rim = sum(1 << c for c, t in sp.labels.items() if t == "rim" and sp.dim[c] == 0)
    lam = make_aarnes_circle(sp, rim, 0)
    assert lam.value(rim | sp.closure_mask(rim)) == 1  # contains all of B
    assert lam.value(1 << 0) == 0  # p alone misses B
    assert lam.value((1 << 0) | (1 << 1) | (1 << 5)) == 1  # p plus a piece of B


def test_two_point_rules_differ_only_on_pairs():
    sp = build_plane_window(4)
    w = uniform_vertex_weights(sp)
    p1 = next(c for c, t in sp.labels.items() if t == "p")
    p2 = p1 + 1  # neighboring vertex in the same column order
    local = make_two_point(sp, p1, p2, w, rule="doubled-local")
    literal = make_two_point(sp, p1, p2, w, rule="doubled-total")
    one = sp.closure_mask(sp.up_closure_mask(1 << p1))
    both = one | sp.closure_mask(sp.up_closure_mask(1 << p2))
    assert local.value(one) == literal.value(one)
    assert local.value(both) == 2 * sum(w[c] for c in w if both >> c & 1)
    assert literal.value(both) == 2 * sum(w.values())
    assert local.value(0) == literal.value(0) == 0


def test_threshold_gating():
    sp = build_plane_window(6)
    lam = make_threshold(sp, uniform_vertex_weights(sp), Fraction(1))
    star = sp.up_closure_mask(1 << next(c for c, t in sp.labels.items() if t == "p"))
    assert lam.value(star) == 0  # open, weight 1 <= threshold
    point = sp.closure_mask(1 << next(c for c, t in sp.labels.items() if t == "p"))
    assert lam.value(point) == 1  # compact, weight 1 is not strictly below


def test_descriptor_parsing():
    sp = build_disk(4)
    lam = make_from_descriptor(sp, "point-majority points=1,2,3")
    assert lam.kind == "point-majority"
    lam2 = make_from_descriptor(sp, "aarnes-circle B=@rim p=0")
    assert lam2.kind.startswith("aarnes")
    lam3 = make_from_descriptor(sp, "measure w=@uniform")
    assert lam3.value(sp.closure_mask(1 << 1)) == 1
    with pytest.raises(ValueError):
        make_from_descriptor(sp, "no-such-function x=1")
    with pytest.raises(ValueError):
        make_from_descriptor(sp, "point-majority")  # missing argument


def test_evaluate_rejects_non_solid_regions():
    sp = build_circle(4)
    lam = make_restricted_measure(sp, uniform_vertex_weights(sp))
    from topomeasure.space import RegionError

    with pytest.raises(RegionError):
        lam.evaluate(region(sp, [0, 2]))  # disconnected, not solid


def test_negative_value_raises_on_every_call():
    sp = build_disk(4)
    lam = make_restricted_measure(sp, {1: Fraction(-1)})
    for _ in range(2):
        with pytest.raises(ValueError, match="nonnegative"):
            lam.value(sp.closure_mask(1 << 1))  # the weighted vertex


@pytest.mark.parametrize("points", [[1, 1, 2, 3], [1, 1, 2]])
def test_point_majority_rejects_a_repeated_point(points):
    with pytest.raises(ValueError, match="marked point 1 is given more than once"):
        make_point_majority(build_disk(4), points)
