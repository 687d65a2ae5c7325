"""Seeded job lists for the three benchmark workloads.

A job is one thing a user does: one ``topomeasure`` CLI command (run
in-process through ``cli.main``) or one library cross-check that has no
subcommand.  Each job carries the exit codes it may end with and an
``expect`` record that the correctness gate (``gate.py``) checks after the
timed passes.  The seed changes only the generated inputs (weights, vertices,
two-valued parameters) and the job order; the shape of each list, and so its
cost, stays the same from seed to seed.

Spaces built here (through ``BUILDERS``) only serve to read vertex ids and
cell masks; every job builds its own space again, cold, as a CLI user would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

# Per-job deadlines (seconds).  Query jobs get twice the 1 s limit that
# bounds any single mu/lambda query, so a slow-but-finishing query is told
# apart from one that has to be stopped.
VALIDATE_DEADLINE = 30.0
PARTITION_DEADLINE = 30.0
QUERY_DEADLINE = 2.0
QUERY_LIMIT = 1.0

# Demos whose published claims cannot hold on a finite model exit 1; every
# other demo in ``demos.DEMOS`` exits 0.
DEMOS_FAILING_BY_DESIGN = ("punctured-disk", "line-plane")
GOLDEN_DEMOS = ("aarnes-disk", "threshold-plane")

# Genus of the compact builders (the topological genus of the modelled
# surface or curve); an exit-3 report may only give a lower bound.
GENUS = {
    "interval(3)": 0,
    "circle(4)": 1,
    "disk(4)": 0,
    "sphere(2)": 0,
    "annulus(3)": 1,
    "annulus(4)": 1,
}

PARTITION_SPACES = (
    "circle(4)",
    "sphere(2)",
    "disk(4)",
    "annulus(3)",
    "annulus(4)",
    "line_window(4)",
    "punctured_disk(4)",
)


@dataclass
class Job:
    id: str
    argv: Optional[list[str]]  # None for the grubb cross-check
    allowed: tuple[int, ...]
    expect: dict = field(default_factory=dict)
    deadline: float = VALIDATE_DEADLINE
    space: str = ""
    ssf: str = ""


# ----- helpers -------------------------------------------------------------------


def spec(builder: str, params: tuple) -> str:
    return f"{builder}({','.join(map(str, params))})"


class Spaces:
    """Setup-time spaces, one per spec, for reading cell structure only (the
    job generator and the correctness gate share them)."""

    def __init__(self, prog):
        self.prog = prog
        self._by_spec: dict = {}

    def get(self, text: str):
        sp = self._by_spec.get(text)
        if sp is None:
            sp = self._by_spec[text] = self.prog.cli.resolve_space(text)
        return sp

    def vertices(self, text: str) -> list[int]:
        sp = self.get(text)
        cells = self.prog.space.FiniteSpace.cells_of(sp.vertex_mask())
        return [c for c in cells if c != sp.infinity]


def cells_literal(sp, mask: int) -> str:
    return ",".join(str(c) for c in range(sp.cell_count) if mask >> c & 1)


def seeded_weights(rng: random.Random, vertices: list[int]) -> str:
    """Random rational weights on every vertex.  Denominators above 1 make
    the exact arithmetic do real work (uniform and point-mass weights are
    all integers)."""
    parts = []
    for v in vertices:
        w = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        parts.append(f"{v}:{w}")
    return "measure w=" + ",".join(parts)


def registry_descriptor(entry, sp, vertices: list[int]) -> str:
    """The CLI descriptor that builds the same function as ``entry.ssf()``."""
    name = entry.ssf_name
    if name == "uniform":
        return "measure w=@uniform"
    if name == "pointmass":
        return f"measure w={vertices[len(vertices) // 2]}:1"
    if name == "zero":
        return "measure w="
    if name == "point-majority":
        return "point-majority points=" + ",".join(map(str, vertices[:3]))
    if name == "aarnes":
        rim = [c for c, t in sorted(sp.labels.items()) if t == "rim" and sp.dim[c] == 0]
        p = sp.infinity if sp.infinity is not None else 0
        return f"aarnes-circle B={','.join(map(str, rim))} p={p}"
    raise ValueError(f"unknown registry function {name!r}")


def star(sp, v: int) -> int:
    return sp.up_closure_mask(1 << v) & sp.x_mask


def ring(sp, v: int) -> Optional[int]:
    """The link of vertex v (closed star minus open star) when it is bounded
    and has a bounded hole; None otherwise."""
    s = star(sp, v)
    link = sp.closure_mask(s) & ~s & sp.x_mask
    if not link or not sp.is_bounded_mask(link):
        return None
    if sp.infinity is not None and not any(
        sp.is_bounded_mask(m) for m in sp.components_masks(sp.x_mask & ~link)
    ):
        return None
    return link


# ----- workloads ---------------------------------------------------------------


def validate_jobs(prog, rng: random.Random, spaces: Spaces) -> list[Job]:
    jobs: list[Job] = []
    cli = prog.cli
    dl = VALIDATE_DEADLINE
    measure_specs = []
    for entry in prog.registry.shipped_entries():
        sp_text = spec(entry.builder, entry.params)
        if entry.builder == "annulus":
            # annulus(4) validation is partition-bound: the partition
            # workload runs it.
            continue
        sp = spaces.get(sp_text)
        desc = registry_descriptor(entry, sp, spaces.vertices(sp_text))
        is_measure = entry.ssf_name in ("uniform", "pointmass", "zero")
        if is_measure and sp_text not in measure_specs:
            measure_specs.append(sp_text)
        jobs.append(Job(
            f"ssf {entry.key}", ["validate-ssf", "--space", sp_text, "--ssf", desc],
            (cli.EXIT_OK, cli.EXIT_UNKNOWN), {"type": "ssf-pass"}, dl, sp_text,
        ))
        if entry.tm_checked:
            if entry.tm_expected:
                allowed, expect = (cli.EXIT_OK, cli.EXIT_UNKNOWN), {"type": "tm-measure"}
            else:
                allowed, expect = (cli.EXIT_FAIL, cli.EXIT_UNKNOWN), {"type": "tm-additivity-fails"}
            jobs.append(Job(
                f"tm {entry.key}", ["validate-tm", "--space", sp_text, "--ssf", desc],
                allowed, expect, dl, sp_text,
            ))
        if sp.infinity is None:
            jobs.append(Job(
                f"grubb {entry.key}", None, (cli.EXIT_OK,), {"type": "grubb-agrees"},
                dl, sp_text, desc,
            ))
    for sp_text in measure_specs:
        sp = spaces.get(sp_text)
        desc = seeded_weights(rng, spaces.vertices(sp_text))
        key = f"{sp_text}:seeded"
        jobs.append(Job(
            f"ssf {key}", ["validate-ssf", "--space", sp_text, "--ssf", desc],
            (cli.EXIT_OK, cli.EXIT_UNKNOWN), {"type": "ssf-pass"}, dl, sp_text,
        ))
        jobs.append(Job(
            f"tm {key}", ["validate-tm", "--space", sp_text, "--ssf", desc],
            (cli.EXIT_OK, cli.EXIT_UNKNOWN), {"type": "tm-measure"}, dl, sp_text,
        ))
        if sp.cell_count <= prog.oracle.OracleBudget().max_cells:
            jobs.append(Job(
                f"oracle {key}", ["oracle-check", "--space", sp_text, "--ssf", desc],
                (cli.EXIT_OK,), {"type": "oracle-agrees"}, dl, sp_text,
            ))
    for name in sorted(prog.demos.DEMOS):
        code = cli.EXIT_FAIL if name in DEMOS_FAILING_BY_DESIGN else cli.EXIT_OK
        expect = {"type": "demo"}
        if name in GOLDEN_DEMOS:
            expect["golden"] = f"{name}.json"
        jobs.append(Job(f"demo {name}", ["demo", name], (code,), expect, dl))
    return jobs


def partition_jobs(prog, rng: random.Random, spaces: Spaces) -> list[Job]:
    jobs: list[Job] = []
    cli = prog.cli
    dl = PARTITION_DEADLINE
    annulus = "annulus(4)"
    for v in sorted(rng.sample(spaces.vertices(annulus), 2)):
        jobs.append(Job(
            f"ssf {annulus}:point-{v}",
            ["validate-ssf", "--space", annulus, "--ssf", f"measure w={v}:1"],
            (cli.EXIT_OK, cli.EXIT_UNKNOWN), {"type": "ssf-pass", "same-checked": annulus},
            dl, annulus,
        ))
    for sp_text, g in GENUS.items():
        jobs.append(Job(
            f"genus {sp_text}", ["genus", "--space", sp_text],
            (cli.EXIT_OK, cli.EXIT_UNKNOWN), {"type": "genus", "genus": g}, dl, sp_text,
        ))
    for sp_text in PARTITION_SPACES:
        sp = spaces.get(sp_text)
        targets = []
        for v in spaces.vertices(sp_text):
            open_star = star(sp, v)
            for kind, m in (("closed-star", sp.closure_mask(open_star) & sp.x_mask),
                            ("open-star", open_star)):
                if m != sp.x_mask and sp.is_bounded_mask(m) and prog.solid.is_solid_mask(sp, m):
                    targets.append((f"{kind}-{v}", m))
        if sp.infinity is None:
            targets.append(("X", sp.x_mask))
        for name, m in targets:
            jobs.append(Job(
                f"partitions {sp_text}:{name}",
                ["partitions", "--space", sp_text, "--region", cells_literal(sp, m)],
                (cli.EXIT_OK, cli.EXIT_UNKNOWN), {"type": "partitions", "target": m}, dl, sp_text,
            ))
    return jobs


def query_jobs(prog, rng: random.Random, spaces: Spaces) -> list[Job]:
    jobs: list[Job] = []
    for name, params in prog.cli.DEFAULT_PARAMS.items():
        sp_text = spec(name, params)
        sp = spaces.get(sp_text)
        verts = spaces.vertices(sp_text)
        measure = seeded_weights(rng, verts)
        pts = rng.sample(verts, 3)
        b = rng.sample(verts, 2)
        p = rng.choice([v for v in verts if v not in b])
        descriptors = {
            "measure": measure,
            "point-majority": "point-majority points=" + ",".join(map(str, pts)),
            "aarnes-circle": f"aarnes-circle B={b[0]},{b[1]} p={p}",
        }
        for dname, desc in descriptors.items():
            v1, v2, v3 = rng.sample(verts, 3)
            regions = (
                ("open", star(sp, v1)),
                ("closed", sp.closure_mask(star(sp, v2)) & sp.x_mask),
            )
            for rname, m in regions:
                jobs.append(_query_job(prog, "eval", sp, sp_text, dname, desc, rname, m))
            closed_cell = sp.closure_mask(1 << v3) & sp.x_mask
            jobs.append(_query_job(
                prog, "extend", sp, sp_text, dname, desc, "closed", closed_cell,
            ))
        two_valued = ("point-majority", "aarnes-circle")
        for i, v in enumerate(verts):
            m = ring(sp, v)
            if m is None:
                continue
            jobs.append(_query_job(prog, "eval", sp, sp_text, "measure", measure, f"ring-{v}", m))
            dname = two_valued[(i + rng.randrange(2)) % 2]
            jobs.append(_query_job(
                prog, "eval", sp, sp_text, dname, descriptors[dname], f"ring-{v}", m,
            ))
    return jobs


def _query_job(prog, cmd, sp, sp_text, dname, desc, rname, mask) -> Job:
    literal = cells_literal(sp, mask)
    return Job(
        f"{cmd} {sp_text}:{dname}:{rname}",
        [cmd, "--space", sp_text, "--ssf", desc, "--region", literal],
        (prog.cli.EXIT_OK,),
        {"type": "query", "family": dname, "region": mask},
        QUERY_DEADLINE,
        sp_text,
    )


WORKLOADS = {
    "validate": validate_jobs,
    "partition": partition_jobs,
    "query": query_jobs,
}


def make_jobs(prog, workload: str, seed: int, spaces: Spaces) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    job_list = WORKLOADS[workload](prog, rng, spaces)
    # A seeded order spreads each kind of job over the pass, so a spell of
    # slow host time does not land on one kind only.
    rng.shuffle(job_list)
    return job_list
