"""Finite combinatorial model of a locally compact space.

A space is a finite face poset carrying the topology whose open sets are
exactly the up-closed subsets (closed sets are the down-closed subsets).
An optional distinguished minimal cell ``infinity`` encodes the extra point
of the one-point compactification: the working space ``X`` consists of all
cells except ``infinity``, a region is *bounded* when its closure in the
compactified poset avoids ``infinity``, and *compact* means closed and
bounded.

Regions are immutable bit vectors over the cells of ``X``; all operations
are pure functions of ``(space, region)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class SpaceError(ValueError):
    """Invalid space description (parse error or invariant violation)."""


class RegionError(ValueError):
    """Invalid region for the given space."""


class FiniteSpace:
    """An immutable finite face poset with optional infinity cell.

    Attributes
    ----------
    name: text label.
    cell_count: total number of cells, including the infinity cell if present.
    covers: tuple of ``(lower, upper)`` cover pairs generating the order.
    dim: per-cell dimension metadata.
    infinity: the infinity cell id, or ``None`` for a compact space.
    labels: per-cell optional text labels (used by ``@label`` region literals).
    down / up: per-cell bit masks of the full down-set / up-set (self included,
        computed over *all* cells, including infinity).
    """

    __slots__ = (
        "name",
        "cell_count",
        "covers",
        "dim",
        "infinity",
        "labels",
        "down",
        "up",
        "x_mask",
        "full_mask",
        "unbounded_mask",
        "_cache",
    )

    def __init__(
        self,
        name: str,
        cell_count: int,
        covers: Sequence[tuple[int, int]],
        dim: Optional[Sequence[int]] = None,
        infinity: Optional[int] = None,
        labels: Optional[dict[int, str]] = None,
    ):
        if cell_count <= 0:
            raise SpaceError("a space needs at least one cell")
        self.name = name
        self.cell_count = cell_count
        self.covers = tuple(sorted(set((int(a), int(b)) for a, b in covers)))
        self.dim = tuple(dim) if dim is not None else tuple(0 for _ in range(cell_count))
        if len(self.dim) != cell_count:
            raise SpaceError("dim metadata must list one entry per cell")
        self.infinity = infinity
        self.labels = dict(labels) if labels else {}
        self._cache: dict = {}
        self._validate_ids()
        self.down, self.up = self._transitive_closure()
        self.full_mask = (1 << cell_count) - 1
        if infinity is None:
            self.x_mask = self.full_mask
            self.unbounded_mask = 0
        else:
            self.x_mask = self.full_mask & ~(1 << infinity)
            # cells whose closure (in the compactified poset) reaches infinity
            self.unbounded_mask = (self.up[infinity] & ~(1 << infinity)) & self.x_mask
        self._validate_structure()

    # ----- construction-time checks -------------------------------------

    def _validate_ids(self) -> None:
        n = self.cell_count
        for lo, hi in self.covers:
            if not (0 <= lo < n and 0 <= hi < n):
                raise SpaceError(f"cover ({lo}, {hi}) references a cell outside 0..{n - 1}")
            if lo == hi:
                raise SpaceError(f"cover ({lo}, {hi}) relates a cell to itself")
        if self.infinity is not None and not (0 <= self.infinity < n):
            raise SpaceError(f"infinity cell {self.infinity} outside 0..{n - 1}")
        for cell in self.labels:
            if not (0 <= cell < n):
                raise SpaceError(f"label references missing cell {cell}")

    def _transitive_closure(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        n = self.cell_count
        below: list[list[int]] = [[] for _ in range(n)]
        above: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for lo, hi in self.covers:
            below[hi].append(lo)
            above[lo].append(hi)
            indeg[hi] += 1
        # Kahn topological order; a leftover cell means an order cycle.
        order: list[int] = [c for c in range(n) if indeg[c] == 0]
        head = 0
        indeg_work = indeg[:]
        while head < len(order):
            cell = order[head]
            head += 1
            for nxt in above[cell]:
                indeg_work[nxt] -= 1
                if indeg_work[nxt] == 0:
                    order.append(nxt)
        if len(order) != n:
            cyclic = sorted(set(range(n)) - set(order))
            raise SpaceError(f"order cycle through cells {cyclic}")
        down = [0] * n
        up = [0] * n
        for cell in order:
            m = 1 << cell
            for lo in below[cell]:
                m |= down[lo]
            down[cell] = m
        for cell in reversed(order):
            m = 1 << cell
            for hi in above[cell]:
                m |= up[hi]
            up[cell] = m
        return tuple(down), tuple(up)

    def _validate_structure(self) -> None:
        if self.infinity is not None:
            w = self.infinity
            if self.down[w] != (1 << w):
                offenders = sorted(self.cells_of(self.down[w] & ~(1 << w)))
                raise SpaceError(
                    f"infinity cell {w} is not minimal (cells {offenders} lie below it)"
                )
            if self.x_mask == 0:
                raise SpaceError("a space needs at least one cell besides infinity")
        if not self.connected(self.x_mask):
            parts = [sorted(self.cells_of(c)) for c in self.components_masks(self.x_mask)]
            raise SpaceError(f"space is disconnected: components {parts}")
        for cell in self.cells_of(self.x_mask):
            if not self.connected(self.up[cell] & self.x_mask):
                raise SpaceError(f"up-set of cell {cell} is disconnected")

    # ----- mask helpers ---------------------------------------------------

    @staticmethod
    def cells_of(mask: int) -> Iterator[int]:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def closure_mask(self, mask: int) -> int:
        """Smallest down-closed (within X) superset: down-closure minus infinity."""
        out = 0
        for cell in self.cells_of(mask):
            out |= self.down[cell]
        return out & self.x_mask

    def up_closure_mask(self, mask: int) -> int:
        """Smallest open superset (the union of up-sets; unique in this topology)."""
        out = 0
        for cell in self.cells_of(mask):
            out |= self.up[cell]
        return out & self.x_mask

    def interior_mask(self, mask: int) -> int:
        out = 0
        for cell in self.cells_of(mask):
            if self.up[cell] & self.x_mask & ~mask == 0:
                out |= 1 << cell
        return out

    def is_open_mask(self, mask: int) -> bool:
        for cell in self.cells_of(mask):
            if self.up[cell] & self.x_mask & ~mask:
                return False
        return True

    def is_closed_mask(self, mask: int) -> bool:
        for cell in self.cells_of(mask):
            if self.down[cell] & self.x_mask & ~mask:
                return False
        return True

    def is_bounded_mask(self, mask: int) -> bool:
        return mask & self.unbounded_mask == 0

    def is_compact_mask(self, mask: int) -> bool:
        return self.is_bounded_mask(mask) and self.is_closed_mask(mask)

    def connected(self, mask: int) -> bool:
        """Connectivity of the comparability graph induced on ``mask``.

        The empty region counts as connected.
        """
        if mask == 0:
            return True
        seed = mask & -mask
        seen = seed
        frontier = seed
        while frontier:
            nxt = 0
            for cell in self.cells_of(frontier):
                nxt |= (self.up[cell] | self.down[cell]) & mask
            frontier = nxt & ~seen
            seen |= frontier
        return seen == mask

    def components_masks(self, mask: int) -> list[int]:
        """Connected components, ordered by least cell id."""
        out = []
        remaining = mask
        while remaining:
            seed = remaining & -remaining
            seen = seed
            frontier = seed
            while frontier:
                nxt = 0
                for cell in self.cells_of(frontier):
                    nxt |= (self.up[cell] | self.down[cell]) & mask
                frontier = nxt & ~seen
                seen |= frontier
            out.append(seen)
            remaining &= ~seen
        return out

    def vertex_mask(self) -> int:
        """Cells that are minimal in the compactified poset (point-like cells)."""
        out = 0
        for cell in self.cells_of(self.x_mask):
            if self.down[cell] == 1 << cell:
                out |= 1 << cell
        return out

    # ----- misc -----------------------------------------------------------

    def compactified(self) -> "FiniteSpace":
        """The same poset viewed as a compact space (infinity becomes an
        ordinary cell).  Identity for already-compact spaces."""
        if self.infinity is None:
            return self
        key = "compactified"
        if key not in self._cache:
            self._cache[key] = FiniteSpace(
                name=self.name + "-compactified",
                cell_count=self.cell_count,
                covers=self.covers,
                dim=self.dim,
                infinity=None,
                labels=self.labels,
            )
        return self._cache[key]

    def __repr__(self) -> str:
        tail = "" if self.infinity is None else f", infinity={self.infinity}"
        return f"FiniteSpace({self.name!r}, cells={self.cell_count}{tail})"


@dataclass(frozen=True)
class Region:
    """An immutable subset of the cells of X (never contains infinity)."""

    space: FiniteSpace
    cells: int

    def __post_init__(self):
        if self.cells & ~self.space.x_mask:
            bad = sorted(FiniteSpace.cells_of(self.cells & ~self.space.x_mask))
            raise RegionError(f"region contains cells outside X: {bad}")

    def ids(self) -> tuple[int, ...]:
        return tuple(FiniteSpace.cells_of(self.cells))

    def __contains__(self, cell: int) -> bool:
        return bool(self.cells >> cell & 1)

    def __repr__(self) -> str:
        return f"Region({self.space.name}: {','.join(map(str, self.ids())) or 'empty'})"


def region(space: FiniteSpace, cells: Iterable[int]) -> Region:
    mask = 0
    for cell in cells:
        if not (0 <= cell < space.cell_count):
            raise RegionError(f"cell {cell} outside 0..{space.cell_count - 1}")
        mask |= 1 << cell
    return Region(space, mask)


# ----- text format ---------------------------------------------------------


def load_space(text: str) -> FiniteSpace:
    """Parse a space-description document.

    Format (one statement per line; ``#`` starts a comment)::

        space <name>
        infinity <cell-id>
        cell <id> dim <d> [label <text>]
        cover <lower> <upper>
    """
    name = None
    infinity = None
    dims: dict[int, int] = {}
    labels: dict[int, str] = {}
    covers: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "space":
                if len(parts) != 2:
                    raise SpaceError("expected: space <name>")
                name = parts[1]
            elif kind == "infinity":
                if len(parts) != 2:
                    raise SpaceError("expected: infinity <cell-id>")
                infinity = int(parts[1])
            elif kind == "cell":
                if len(parts) < 4 or parts[2] != "dim":
                    raise SpaceError("expected: cell <id> dim <d> [label <text>]")
                cid = int(parts[1])
                if cid in dims:
                    raise SpaceError(f"cell {cid} declared twice")
                dims[cid] = int(parts[3])
                if len(parts) > 4:
                    if parts[4] != "label" or len(parts) < 6:
                        raise SpaceError("expected: cell <id> dim <d> label <text>")
                    labels[cid] = " ".join(parts[5:])
            elif kind == "cover":
                if len(parts) != 3:
                    raise SpaceError("expected: cover <lower> <upper>")
                covers.append((int(parts[1]), int(parts[2])))
            else:
                raise SpaceError(f"unknown statement {kind!r}")
        except (ValueError, SpaceError) as exc:
            if isinstance(exc, SpaceError):
                raise SpaceError(f"line {lineno}: {exc}") from None
            raise SpaceError(f"line {lineno}: malformed number in {line!r}") from None
    if name is None:
        raise SpaceError("missing 'space <name>' header line")
    if not dims:
        raise SpaceError("no cells declared")
    cell_count = max(dims) + 1
    missing = [c for c in range(cell_count) if c not in dims]
    if missing:
        raise SpaceError(f"cell ids must be contiguous from 0; missing {missing}")
    dim = [dims[c] for c in range(cell_count)]
    return FiniteSpace(name, cell_count, covers, dim=dim, infinity=infinity, labels=labels)


def dump_space(space: FiniteSpace) -> str:
    """Canonical serialization; ``load_space(dump_space(s))`` is byte-stable."""
    lines = [f"space {space.name}"]
    if space.infinity is not None:
        lines.append(f"infinity {space.infinity}")
    for cell in range(space.cell_count):
        line = f"cell {cell} dim {space.dim[cell]}"
        if cell in space.labels:
            line += f" label {space.labels[cell]}"
        lines.append(line)
    for lo, hi in space.covers:
        lines.append(f"cover {lo} {hi}")
    return "\n".join(lines) + "\n"


def parse_region_literal(space: FiniteSpace, literal: str) -> Region:
    """Parse a region literal: comma-separated cell ids and/or ``@label`` tokens.

    ``@all`` denotes every cell of X; ``@<label>`` collects the cells whose
    label equals ``<label>``.
    """
    mask = 0
    literal = literal.strip()
    if not literal:
        return Region(space, 0)
    for token in literal.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith("@"):
            label = token[1:]
            if label == "all":
                mask |= space.x_mask
                continue
            hits = [c for c, text in space.labels.items() if text == label]
            if not hits:
                raise RegionError(f"unknown label token {token!r}")
            for c in hits:
                mask |= 1 << c
        else:
            try:
                cell = int(token)
            except ValueError:
                raise RegionError(f"malformed region token {token!r}") from None
            if not (0 <= cell < space.cell_count):
                raise RegionError(f"cell {cell} outside 0..{space.cell_count - 1}")
            mask |= 1 << cell
    if space.infinity is not None:
        mask &= space.x_mask
    return Region(space, mask)


def format_region(r: Region) -> str:
    return ",".join(map(str, r.ids()))


# ----- builders -------------------------------------------------------------
#
# Cell-id layouts are frozen; tests and demo tables rely on them.


def build_interval(n: int) -> FiniteSpace:
    """Closed-interval complex: vertices 0..n, edges n+1..2n (edge n+j joins
    vertices j-1 and j).  Compact; 2n+1 cells."""
    if n < 1:
        raise SpaceError("interval resolution must be >= 1")
    covers = []
    for j in range(1, n + 1):
        e = n + j
        covers += [(j - 1, e), (j, e)]
    dim = [0] * (n + 1) + [1] * n
    return FiniteSpace(f"interval-{n}", 2 * n + 1, covers, dim=dim)


def _circle_cells(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    covers = []
    for i in range(n):
        e = n + i
        covers += [(i, e), ((i + 1) % n, e)]
    return covers, [0] * n + [1] * n


def build_circle(n: int) -> FiniteSpace:
    """Circle complex: vertices 0..n-1, edges n..2n-1 (edge n+i joins vertices
    i and i+1 mod n).  Compact; 2n cells."""
    if n < 3:
        raise SpaceError("circle resolution must be >= 3")
    covers, dim = _circle_cells(n)
    return FiniteSpace(f"circle-{n}", 2 * n, covers, dim=dim)


def build_line_window(n: int) -> FiniteSpace:
    """Line model: circle complex with vertex 0 as the infinity cell, so X is
    an open chain of 2n-1 cells whose two end edges are unbounded."""
    if n < 3:
        raise SpaceError("line-window resolution must be >= 3")
    covers, dim = _circle_cells(n)
    return FiniteSpace(f"line-window-{n}", 2 * n, covers, dim=dim, infinity=0)


def build_disk(r: int) -> FiniteSpace:
    """Cone-disk complex with ``r`` rim sectors (4r+1 cells).

    Layout: apex vertex 0 (label ``p``); rim vertices 1..r (label ``rim``);
    spokes r+1..2r (spoke r+1+i joins apex and rim vertex 1+i);
    rim edges 2r+1..3r (edge 2r+1+i joins rim vertices i, i+1 mod r);
    triangles 3r+1..4r (triangle 3r+1+i over spokes i, i+1 and rim edge i).
    """
    if r < 3:
        raise SpaceError("disk resolution must be >= 3 rim sectors")
    covers = []
    for i in range(r):
        s = r + 1 + i
        e = 2 * r + 1 + i
        t = 3 * r + 1 + i
        covers += [(0, s), (1 + i, s)]
        covers += [(1 + i, e), (1 + (i + 1) % r, e)]
        covers += [(s, t), (r + 1 + (i + 1) % r, t), (e, t)]
    dim = [0] * (r + 1) + [1] * (2 * r) + [2] * r
    labels = {0: "p"}
    for i in range(r):
        labels[1 + i] = "rim"
    return FiniteSpace(f"disk-{r}", 4 * r + 1, covers, dim=dim, labels=labels)


def build_punctured_disk(r: int) -> FiniteSpace:
    """The disk complex with the apex as infinity cell: a disk with its center
    removed.  X has 4r cells; spokes and triangles are unbounded."""
    disk = build_disk(r)
    return FiniteSpace(
        f"punctured-disk-{r}",
        disk.cell_count,
        disk.covers,
        dim=disk.dim,
        infinity=0,
        labels=disk.labels,
    )


def build_sphere(r: int) -> FiniteSpace:
    """The r-sphere as the boundary complex of the (r+1)-simplex.

    Cells are the nonempty proper subsets of {0..r+1}, ordered by size then
    lexicographically, so vertices get ids 0..r+1.
    """
    if r < 1:
        raise SpaceError("sphere dimension must be >= 1")
    from itertools import combinations

    nv = r + 2
    subsets = [
        frozenset(c) for k in range(1, nv) for c in combinations(range(nv), k)
    ]
    index = {s: i for i, s in enumerate(subsets)}
    covers = []
    for s in subsets:
        if len(s) >= 2:
            for x in sorted(s):
                covers.append((index[s - {x}], index[s]))
    dim = [len(s) - 1 for s in subsets]
    return FiniteSpace(f"sphere-{r}", len(subsets), covers, dim=dim)


def build_annulus(r: int) -> FiniteSpace:
    """Quad annulus with ``r`` sectors (6r cells).

    Layout: inner vertices 0..r-1, outer vertices r..2r-1, inner arcs
    2r..3r-1, outer arcs 3r..4r-1, radial edges 4r..5r-1 (radial 4r+i joins
    inner/outer vertex i), quads 5r..6r-1 (quad 5r+i over inner arc i, outer
    arc i, radials i and i+1 mod r).
    """
    if r < 3:
        raise SpaceError("annulus resolution must be >= 3")
    covers = []
    for i in range(r):
        ia = 2 * r + i
        oa = 3 * r + i
        rad = 4 * r + i
        q = 5 * r + i
        covers += [(i, ia), ((i + 1) % r, ia)]
        covers += [(r + i, oa), (r + (i + 1) % r, oa)]
        covers += [(i, rad), (r + i, rad)]
        covers += [(ia, q), (oa, q), (rad, q), (4 * r + (i + 1) % r, q)]
    dim = [0] * (2 * r) + [1] * (3 * r) + [2] * r
    return FiniteSpace(f"annulus-{r}", 6 * r, covers, dim=dim)


def _grid_cells(w: int, h: int):
    """Shared grid layout for the plane-window and strip builders.

    Returns (cells dict name->id, covers, dim).  Cells: vertices ``(x, y)``
    for x in 0..w, y in 0..h; horizontal edges h(x, y) joining (x, y)-(x+1, y);
    vertical edges v(x, y) joining (x, y)-(x, y+1); quads q(x, y).
    """
    ids: dict[tuple, int] = {}

    def cid(key) -> int:
        return ids.setdefault(key, len(ids))

    dim: list[int] = []
    for x in range(w + 1):
        for y in range(h + 1):
            cid(("v", x, y))
            dim.append(0)
    covers = []
    for x in range(w):
        for y in range(h + 1):
            e = cid(("h", x, y))
            dim.append(1)
            covers += [(ids[("v", x, y)], e), (ids[("v", x + 1, y)], e)]
    for x in range(w + 1):
        for y in range(h):
            e = cid(("ve", x, y))
            dim.append(1)
            covers += [(ids[("v", x, y)], e), (ids[("v", x, y + 1)], e)]
    for x in range(w):
        for y in range(h):
            q = cid(("q", x, y))
            dim.append(2)
            covers += [
                (ids[("h", x, y)], q),
                (ids[("h", x, y + 1)], q),
                (ids[("ve", x, y)], q),
                (ids[("ve", x + 1, y)], q),
            ]
    return ids, covers, dim


def build_plane_window(r: int) -> FiniteSpace:
    """Plane model: an (r x r)-quad grid window with the infinity cell below
    every frame vertex, so the frame of the grid is unbounded.

    Labels: ``p`` on the central vertex (r//2, r//2); ``l`` on the horizontal
    line subcomplex at height 1 (its vertices and horizontal edges), which is
    unbounded because it reaches the frame.
    """
    if r < 4:
        raise SpaceError("plane-window resolution must be >= 4")
    ids, covers, dim = _grid_cells(r, r)
    omega = len(dim)
    dim = dim + [0]
    for x in range(r + 1):
        for y in range(r + 1):
            if x in (0, r) or y in (0, r):
                covers.append((omega, ids[("v", x, y)]))
    labels = {ids[("v", r // 2, r // 2)]: "p"}
    for x in range(r + 1):
        labels[ids[("v", x, 1)]] = "l"
    for x in range(r):
        labels[ids[("h", x, 1)]] = "l"
    return FiniteSpace(
        f"plane-window-{r}", omega + 1, covers, dim=dim, infinity=omega, labels=labels
    )


def build_strip(w: int, h: int) -> FiniteSpace:
    """Infinite-strip model: a (w x h)-quad grid whose left and right vertex
    columns sit above the infinity cell.  Its one-point compactification glues
    the two ends together, so it is loop-like (genus >= 1)."""
    if w < 3 or h < 1:
        raise SpaceError("strip needs width >= 3 and height >= 1")
    ids, covers, dim = _grid_cells(w, h)
    omega = len(dim)
    dim = dim + [0]
    for x in (0, w):
        for y in range(h + 1):
            covers.append((omega, ids[("v", x, y)]))
    return FiniteSpace(f"strip-{w}x{h}", omega + 1, covers, dim=dim, infinity=omega)


BUILDERS = {
    "interval": build_interval,
    "circle": build_circle,
    "disk": build_disk,
    "sphere": build_sphere,
    "annulus": build_annulus,
    "line_window": build_line_window,
    "plane_window": build_plane_window,
    "punctured_disk": build_punctured_disk,
    "strip": build_strip,
}


def grid_cell_id(space: FiniteSpace, kind: str, x: int, y: int) -> int:
    """Cell id lookup for the grid-based builders (kind in v, h, ve, q)."""
    if space.name.startswith("plane-window-"):
        w = h = int(space.name.rsplit("-", 1)[1])
    elif space.name.startswith("strip-"):
        w, h = map(int, space.name.split("-")[1].split("x"))
    else:
        raise SpaceError(f"{space.name} is not a grid-based space")
    ids, _, _ = _grid_cells(w, h)
    return ids[(kind, x, y)]
