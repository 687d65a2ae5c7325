"""The local open-solid rule of the restricted measure.

With nonnegative weights, λ(U) on a bounded open solid U is the largest
λ₀(C) over the components C of K_max(U), where (s2) defines it as the max
of λ₀ over all compact solids inside U.  Here the engine is compared with
that literal definition: over the compact-solid catalog where it is small,
and over the closed subsets of K_max(U) on plane_window(4) and strip(4,2).
Mutated copies of the engine must fail the comparison, a negative weight
must fall back to the literal scan, queries must enumerate no catalog, and
every other enumeration must stop at its cap with BudgetExceeded.
"""

from __future__ import annotations

import inspect
import json
import random
import textwrap
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topomeasure import extend, solid, ssf
from topomeasure.cli import DEFAULT_PARAMS, main
from topomeasure.extend import TopMeasure, grubb_mu_mask, validate_tm
from topomeasure.registry import shipped_entries
from topomeasure.solid import (
    BudgetExceeded,
    bounded_open_solid_catalog,
    bounded_solid_catalog,
    compact_solid_catalog,
    downset_catalog,
    hull_mask,
    interpolate,
    is_solid_mask,
    k_max_mask,
    upset_catalog,
)
from topomeasure.space import BUILDERS, FiniteSpace
from topomeasure.ssf import (
    make_aarnes_circle,
    make_point_majority,
    make_restricted_measure,
    uniform_vertex_weights,
    validate_ssf,
)

# sphere(3) is left out: its catalog comparison alone takes about 9 s.
CATALOG_SPACES = [
    ("interval", (3,)), ("circle", (4,)), ("disk", (3,)), ("disk", (4,)),
    ("sphere", (2,)), ("annulus", (3,)), ("annulus", (4,)),
    ("line_window", (4,)), ("strip", (3, 1)), ("punctured_disk", (4,)),
]
LOCAL_SPACES = [("plane_window", (4,)), ("strip", (4, 2))]
CATALOG_KEYS = ("downsets", "upsets", "compact-solid", "open-solid-bounded", "bounded-solid")


@lru_cache(maxsize=None)
def space(name: str, params: tuple) -> FiniteSpace:
    return BUILDERS[name](*params)


def vertices(sp: FiniteSpace) -> list[int]:
    return [c for c in FiniteSpace.cells_of(sp.vertex_mask()) if c != sp.infinity]


def weight(weights: dict[int, Fraction], mask: int) -> Fraction:
    return sum((w for c, w in weights.items() if mask >> c & 1), Fraction(0))


def literal_max(weights: dict[int, Fraction], compacts) -> Fraction:
    """(s2) as written: the max of λ₀ over the given compact solids, and 0."""
    return max([Fraction(0)] + [weight(weights, k) for k in compacts])


@lru_cache(maxsize=None)
def catalog_instances(name: str, params: tuple) -> list[tuple[int, list[int]]]:
    """Every bounded open solid U that is not compact (a compact one is
    valued by λ₀ directly), with the compact solids inside it."""
    sp = space(name, params)
    compacts = compact_solid_catalog(sp)
    return [
        (u, [k for k in compacts if not k & ~u])
        for u in bounded_open_solid_catalog(sp)
        if not sp.is_compact_mask(u)
    ]


def mismatches(make, name: str, params: tuple, weights) -> int:
    """Open solids on which ``make(sp, weights)`` differs from (s2)."""
    lam = make(space(name, params), weights)
    return sum(
        lam.value(u) != literal_max(weights, inside)
        for u, inside in catalog_instances(name, params)
    )


def engine_mutant(old: str, new: str):
    """``make_restricted_measure`` with one line of its source replaced."""
    src = textwrap.dedent(inspect.getsource(ssf.make_restricted_measure))
    assert src.count(old) == 1
    namespace = dict(vars(ssf), hull_mask=hull_mask)
    exec(src.replace(old, new), namespace)
    return namespace["make_restricted_measure"]


def weights_strategy(sp: FiniteSpace):
    """Nonnegative rationals, zero included, on any cells of X (edges and
    faces too, not only vertices)."""
    return st.dictionaries(
        st.sampled_from(list(FiniteSpace.cells_of(sp.x_mask))),
        st.fractions(min_value=0, max_value=4, max_denominator=6),
        max_size=8,
    )


# ----- (a) the rule against the compact-solid catalog ------------------------


@pytest.mark.parametrize("name,params", CATALOG_SPACES)
def test_rule_equals_catalog_max_on_fixed_weights(name, params):
    sp = space(name, params)
    compacts = set(compact_solid_catalog(sp))
    for u, _ in catalog_instances(name, params):
        for c in sp.components_masks(k_max_mask(sp, u)):
            assert c in compacts, "a component of K_max(U) is not a compact solid"
    fixed = [uniform_vertex_weights(sp), {}, {c: Fraction(0) for c in vertices(sp)}]
    fixed += [{v: Fraction(1)} for v in vertices(sp)]
    for weights in fixed:
        assert mismatches(make_restricted_measure, name, params, weights) == 0


@pytest.mark.parametrize("name,params", CATALOG_SPACES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_rule_equals_catalog_max_on_random_weights(name, params, data):
    weights = data.draw(weights_strategy(space(name, params)))
    assert mismatches(make_restricted_measure, name, params, weights) == 0


# ----- (b) the rule against the closed subsets of K_max(U) -------------------


def closed_subsets(sp: FiniteSpace, k: int) -> list[int]:
    """Every closed subset of the closed set ``k``, cells decided from the
    bottom up (a cell joins only after all of its faces)."""
    cells = sorted(FiniteSpace.cells_of(k), key=lambda c: (sp.down[c].bit_count(), c))
    out = []

    def grow(i: int, current: int) -> None:
        if i == len(cells):
            out.append(current)
            return
        grow(i + 1, current)
        c = cells[i]
        if not sp.down[c] & ~(1 << c) & ~current:
            grow(i + 1, current | 1 << c)

    grow(0, 0)
    return out


def bounded_open_solids(sp: FiniteSpace) -> list[int]:
    """Every bounded open solid, from the open subsets of the bounded cells
    (cells decided from the top down), without a catalog of X."""
    bounded = sp.x_mask & ~sp.unbounded_mask
    cells = sorted(
        (c for c in FiniteSpace.cells_of(bounded) if not sp.up[c] & sp.x_mask & ~bounded),
        key=lambda c: (sp.up[c].bit_count(), c),
    )
    out = []

    def grow(i: int, current: int) -> None:
        if i == len(cells):
            if is_solid_mask(sp, current):
                out.append(current)
            return
        grow(i + 1, current)
        c = cells[i]
        if not sp.up[c] & sp.x_mask & ~(1 << c) & ~current:
            grow(i + 1, current | 1 << c)

    grow(0, 0)
    return out


def ring(sp: FiniteSpace, v: int):
    """The link of vertex v when it is bounded and has a bounded hole."""
    star = sp.up_closure_mask(1 << v)
    link = sp.closure_mask(star) & ~star
    if not link or not sp.is_bounded_mask(link):
        return None
    if not any(sp.is_bounded_mask(m) for m in sp.components_masks(sp.x_mask & ~link)):
        return None
    return link


def recorded(lam) -> set[int]:
    """The masks λ's evaluator is called with from now on."""
    seen: set[int] = set()
    fn = lam._fn

    def record(mask: int) -> Fraction:
        seen.add(mask)
        return fn(mask)

    lam._fn = record
    return seen


@pytest.mark.parametrize("name,params", LOCAL_SPACES)
def test_rule_equals_local_literal_max(name, params):
    sp = space(name, params)
    opens = [u for u in bounded_open_solids(sp) if not sp.is_compact_mask(u)]
    stars = [sp.up_closure_mask(1 << v) for v in vertices(sp)]
    stars = [s for s in stars if sp.is_bounded_mask(s) and is_solid_mask(sp, s)]
    rng = random.Random(7)
    weightings = [uniform_vertex_weights(sp)] + [
        {c: Fraction(rng.randint(0, 5), rng.randint(1, 4))
         for c in rng.sample(list(FiniteSpace.cells_of(sp.x_mask)), 12)}
        for _ in range(3)
    ]
    for weights in weightings:
        lam = make_restricted_measure(sp, weights)
        reached = recorded(lam)
        tm = TopMeasure(lam)
        for v in vertices(sp):
            m = ring(sp, v)
            if m is not None:
                tm.mu_mask(m)
        reached_opens = {m for m in reached if not sp.is_compact_mask(m)}
        assert reached_opens and reached_opens <= set(opens)
        assert stars and set(stars) <= set(opens)
        for u in opens:
            inside = [
                d for d in closed_subsets(sp, k_max_mask(sp, u))
                if sp.is_bounded_mask(d) and is_solid_mask(sp, d)
            ]
            assert lam.value(u) == literal_max(weights, inside)
    assert not any(key in sp._cache for key in CATALOG_KEYS)


# ----- (c) mutated engines fail (a) ---------------------------------------------

RULE_LINE = "pieces = sp.components_masks(k_max_mask(sp, mask))"


def test_summing_over_all_of_k_max_fails():
    mutant = engine_mutant(RULE_LINE, "pieces = [k_max_mask(sp, mask)]")
    sp = space("annulus", (3,))
    assert len(catalog_instances("annulus", (3,))) == 227
    assert mismatches(mutant, "annulus", (3,), uniform_vertex_weights(sp)) == 6


def test_hull_of_each_component_fails():
    mutant = engine_mutant(
        RULE_LINE,
        "pieces = [hull_mask(sp, c) for c in sp.components_masks(k_max_mask(sp, mask))]",
    )
    sp = space("circle", (4,))
    assert len(catalog_instances("circle", (4,))) == 16
    assert mismatches(mutant, "circle", (4,), uniform_vertex_weights(sp)) == 12


# ----- negative weights: the capped literal fallback ----------------------------


@pytest.mark.parametrize(
    "name,params,differs", [("disk", (4,), 12), ("circle", (4,), 4), ("annulus", (3,), 29)]
)
def test_negative_weight_falls_back_to_the_catalog(name, params, differs):
    sp = space(name, params)
    weights = uniform_vertex_weights(sp)
    weights[vertices(sp)[0]] = Fraction(-1, 2)
    assert mismatches(make_restricted_measure, name, params, weights) == 0
    # Without the guard the component rule is wrong here.
    unguarded = engine_mutant(
        "local = min(weights.values(), default=0) >= 0", "local = True"
    )
    assert mismatches(unguarded, name, params, weights) == differs


def test_negative_weight_fallback_is_capped(monkeypatch):
    sp = BUILDERS["disk"](4)
    monkeypatch.setattr(ssf, "CATALOG_CAP", 10)
    lam = make_restricted_measure(sp, {0: Fraction(-1, 2), 1: Fraction(1)})
    with pytest.raises(BudgetExceeded, match="exceeds cap 10"):
        lam.value(sp.up_closure_mask(1 << 1))


# ----- queries enumerate no catalog ------------------------------------------------


@pytest.mark.parametrize("name", sorted(DEFAULT_PARAMS))
def test_queries_enumerate_no_catalog(name):
    sp = BUILDERS[name](*DEFAULT_PARAMS[name])
    verts = vertices(sp)
    rng = random.Random(name)
    b = rng.sample(verts, 2)
    families = [
        make_restricted_measure(
            sp, {v: Fraction(rng.randint(0, 9), rng.randint(1, 9)) for v in verts}
        ),
        make_point_majority(sp, rng.sample(verts, 3)),
        make_aarnes_circle(
            sp, (1 << b[0]) | (1 << b[1]), rng.choice([v for v in verts if v not in b])
        ),
    ]
    regions = [m for m in (ring(sp, v) for v in verts) if m is not None]
    for v in rng.sample(verts, 3):
        star = sp.up_closure_mask(1 << v)
        regions += [star, sp.closure_mask(star), sp.closure_mask(1 << rng.choice(verts))]
    for lam in families:
        tm = TopMeasure(lam)
        for m in regions:
            tm.mu_mask(m)
    assert not any(key in sp._cache for key in CATALOG_KEYS)


def test_cli_eval_of_a_ring_on_strip_finishes(capsys):
    sp = BUILDERS["strip"](4, 2)
    m = ring(sp, 7)
    assert m is not None
    literal = ",".join(map(str, FiniteSpace.cells_of(m)))
    code = main(["eval", "--space", "strip(4,2)", "--ssf", "measure w=@uniform",
                 "--region", literal])
    assert code == 0
    mu = Fraction(json.loads(capsys.readouterr().out)["mu"])
    assert 0 <= mu <= len(vertices(sp))


@pytest.mark.parametrize(
    "entry", [e for e in shipped_entries() if e.builder != "annulus"], ids=lambda e: e.key
)
def test_lambda_is_only_asked_on_bounded_solids(entry):
    # The open-solid rule is proved on bounded open solids only.  (The
    # annulus(4) pairs are left out for time; the validators read λ there
    # through the same table of bounded solids.)
    sp = entry.space()
    lam = entry.ssf()
    seen = recorded(lam)
    tm = TopMeasure(lam)
    for m in set(downset_catalog(sp)) | set(upset_catalog(sp)):
        tm.mu_mask(m)
        if sp.infinity is None:
            grubb_mu_mask(lam, m)
    validate_ssf(lam)
    validate_tm(TopMeasure(lam))
    assert seen <= set(bounded_solid_catalog(sp))


# ----- the remaining enumerations are capped ------------------------------------


def test_two_valued_and_simple_checks_are_capped():
    sp = BUILDERS["disk"](4)
    lam = make_point_majority(sp, [1, 2, 3])
    with pytest.raises(BudgetExceeded, match="exceeds cap 5"):
        lam.is_two_valued(5)
    with pytest.raises(BudgetExceeded, match="exceeds cap 5"):
        TopMeasure(lam).is_simple(5)


def test_compact_path_table_is_capped(monkeypatch):
    sp = BUILDERS["circle"](4)
    monkeypatch.setattr(extend, "CATALOG_CAP", 5)
    lam = make_restricted_measure(sp, uniform_vertex_weights(sp))
    with pytest.raises(BudgetExceeded, match="exceeds cap 5"):
        grubb_mu_mask(lam, sp.x_mask)


def test_interpolation_fallback_is_capped(monkeypatch):
    sp = BUILDERS["circle"](4)
    apart = (1 << 0) | (1 << 2)  # opposite vertices: their open stars are apart
    assert not sp.connected(sp.up_closure_mask(apart))
    monkeypatch.setattr(solid, "CATALOG_CAP", 5)
    with pytest.raises(BudgetExceeded, match="exceeds cap 5"):
        interpolate(sp, apart, sp.x_mask)


def test_demo_and_oracle_check_scans_are_capped(monkeypatch, capsys):
    code = main(["oracle-check", "--space", "circle(4)", "--ssf", "measure w=@uniform",
                 "--budget", "5"])
    assert code == 3 and "exceeds cap 5" in capsys.readouterr().err
    monkeypatch.setattr(solid, "CATALOG_CAP", 5)
    assert main(["demo", "three-points-sphere"]) == 3
    assert "exceeds cap 5" in capsys.readouterr().err
