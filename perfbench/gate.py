"""Correctness gate: checks every job's outcome after the timed passes.

A job fails when it raised an undeclared error, was stopped at its
deadline, ended with an exit code it may not end with, or printed a wrong
report.  Reports are checked against the brute-force oracle where the oracle
accepts the space, and against stated invariants elsewhere:

* restricted measures pass every function and measure axiom and classify
  ``measure-extendable``; the two-valued demo functions fail additivity;
* the compact path ``grubb_mu`` equals the general path;
* genus reports match the modelled surface (a budget-limited report may
  only give a lower bound); listed partitions cover their target with
  disjoint solid parts;
* the golden demo reports match ``tests/golden/`` byte for byte.

An exit-3 ``unknown`` is a declared outcome, not a failure.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

from jobs import Job, Spaces


class Gate:
    def __init__(self, prog, spaces: Spaces, root: Path):
        self.prog = prog
        self.spaces = spaces
        self.golden_dir = root / "tests" / "golden"
        self._oracle: dict = {}
        self._checked_by_group: dict = {}

    # -- entry point -------------------------------------------------------

    def check(self, job: Job, res) -> Optional[str]:
        """None when the job's outcome is correct, else what is wrong."""
        if res.stopped:
            return f"stopped at its {job.deadline:g} s deadline"
        if res.error is not None:
            return f"undeclared error {res.error}"
        if res.rc not in job.allowed:
            return f"exit {res.rc}, expected one of {job.allowed}"
        try:
            return getattr(self, "_" + job.expect["type"].replace("-", "_"))(job, res)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {type(exc).__name__}: {exc}"

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _verdicts(report: dict, *blocks: str) -> dict[str, str]:
        return {
            name: entry["verdict"]
            for block in blocks
            for name, entry in report.get(block, {}).items()
        }

    def _no_fail(self, res, *blocks) -> Optional[str]:
        verdicts = self._verdicts(json.loads(res.out), *blocks)
        bad = sorted(k for k, v in verdicts.items() if v == "fail")
        if bad:
            return f"conditions fail: {bad}"
        if res.rc == self.prog.cli.EXIT_OK and any(v != "pass" for v in verdicts.values()):
            return "exit 0 with conditions that did not pass"
        if res.rc == self.prog.cli.EXIT_UNKNOWN and "unknown" not in verdicts.values():
            return "exit 3 without an unknown condition"
        return None

    # -- report checks ---------------------------------------------------------

    def _ssf_pass(self, job: Job, res) -> Optional[str]:
        problem = self._no_fail(res, "conditions")
        group = job.expect.get("same-checked")
        if problem is None and group is not None and res.rc == self.prog.cli.EXIT_OK:
            checked = {
                k: v["checked"] for k, v in json.loads(res.out)["conditions"].items()
            }
            first = self._checked_by_group.setdefault(group, checked)
            if checked != first:
                return f"checked counts {checked} differ from {first}"
        return problem

    def _tm_measure(self, job: Job, res) -> Optional[str]:
        problem = self._no_fail(res, "conditions", "informational")
        if problem is None and res.rc == self.prog.cli.EXIT_OK:
            cls = json.loads(res.out)["classification"]
            if cls != "measure-extendable":
                return f"restricted measure classified {cls!r}"
        return problem

    def _tm_additivity_fails(self, job: Job, res) -> Optional[str]:
        if res.rc == self.prog.cli.EXIT_UNKNOWN:
            return None
        tm1 = json.loads(res.out)["conditions"]["TM1"]
        if tm1["verdict"] != "fail" or "counterexample" not in tm1:
            return "two-valued extension passed TM1 without an additivity witness"
        return None

    def _grubb_agrees(self, job: Job, res) -> Optional[str]:
        out = json.loads(res.out)
        if out["regions"] == 0 or out["mismatches"]:
            return f"compact path differs on {out['mismatches']} of {out['regions']} regions"
        return None

    def _oracle_agrees(self, job: Job, res) -> Optional[str]:
        out = json.loads(res.out)
        bad = sorted(k for k, v in out["axioms"].items() if not v["passed"])
        if bad or out["value_mismatches"] or not out["regions_compared"]:
            return f"oracle disagrees: axioms {bad}, {out['value_mismatches']} mismatches"
        return None

    def _demo(self, job: Job, res) -> Optional[str]:
        report = json.loads(res.out)
        if report["passed"] != (res.rc == self.prog.cli.EXIT_OK):
            return "demo verdict disagrees with its exit code"
        golden = job.expect.get("golden")
        if golden is not None and res.out != (self.golden_dir / golden).read_text():
            return f"report differs from tests/golden/{golden}"
        return None

    def _genus(self, job: Job, res) -> Optional[str]:
        out = json.loads(res.out)
        want = job.expect["genus"]
        if res.rc == self.prog.cli.EXIT_OK and not (out["exact"] and out["genus"] == want):
            return f"genus {out['genus']} (exact={out['exact']}), expected {want}"
        if res.rc == self.prog.cli.EXIT_UNKNOWN and (out["exact"] or out["genus"] > want):
            return f"unknown genus bound {out['genus']} exceeds {want}"
        return None

    def _partitions(self, job: Job, res) -> Optional[str]:
        if res.rc == self.prog.cli.EXIT_UNKNOWN:
            return None
        out = json.loads(res.out)
        sp = self.spaces.get(job.space)
        target = job.expect["target"]
        if out["count_listed"] != len(out["partitions"]) or not out["partitions"]:
            return "partition listing is empty or miscounted"
        for p in out["partitions"]:
            masks = [self._mask(part) for part in p["parts"]]
            union = 0
            for m in masks:
                if not m or m & union:
                    return f"parts {p['parts']} are empty or overlap"
                union |= m
            if union != target:
                return f"parts {p['parts']} do not cover the target"
            if not all(self._solid(sp, m) for m in masks):
                return f"parts {p['parts']} are not all solid"
        return None

    def _query(self, job: Job, res) -> Optional[str]:
        out = json.loads(res.out)
        parse = self.prog.values.parse_value
        value = parse(out["mu"] if "mu" in out else out["mu(region)"])
        family = job.expect["family"]
        if family != "measure" and value not in (0, 1):
            return f"two-valued extension gave {value}"
        want = self._oracle_mu(job, job.expect["region"])
        if want is not None:
            if value != want:
                return f"mu = {value}, oracle says {want}"
        elif family == "measure":
            total = self._total_weight(job)
            if not 0 <= value <= total:
                return f"mu = {value} outside [0, {total}]"
        if "mu(X)" in out and family == "measure":
            if parse(out["mu(X)"]) != self._total_weight(job):
                return f"mu(X) = {out['mu(X)']} differs from the total weight"
        return None

    # -- independent evaluations -----------------------------------------------

    def _mask(self, literal: str) -> int:
        mask = 0
        for tok in literal.split(","):
            if tok:
                mask |= 1 << int(tok)
        return mask

    def _solid(self, sp, mask: int) -> bool:
        if sp.cell_count <= self.prog.oracle.OracleBudget().max_cells:
            return self.prog.oracle.brute_force_solid(sp, mask)
        return self.prog.solid.is_solid_mask(sp, mask)

    def _ssf_arg(self, job: Job) -> str:
        return job.argv[job.argv.index("--ssf") + 1]

    def _total_weight(self, job: Job) -> Fraction:
        desc = self._ssf_arg(job)
        weights = desc.split("w=", 1)[1]
        return sum((Fraction(p.split(":")[1]) for p in weights.split(",") if p), Fraction(0))

    def _oracle_mu(self, job: Job, mask: int):
        """The brute-force value, or None where the oracle refuses the space."""
        key = (job.space, self._ssf_arg(job))
        hit = self._oracle.get(key)
        if hit is None:
            sp = self.spaces.get(job.space)
            lam = self.prog.ssf.make_from_descriptor(sp, key[1])
            hit = self._oracle[key] = (sp, lam, {}, {})
        sp, lam, cache, values = hit
        if mask not in values:
            region = self.prog.space.Region(sp, mask)
            try:
                values[mask] = self.prog.oracle.brute_force_mu(lam.evaluate, region, cache=cache)
            except self.prog.oracle.OracleRefusal:
                values[mask] = None
        return values[mask]


def exit_codes(results) -> str:
    """One character per job: its exit code, D when stopped at the deadline,
    E for an undeclared error."""
    return "".join("D" if r.stopped else "E" if r.error else str(r.rc) for r in results)


def deterministic_counts(prog, spaces: Spaces, jobs: list[Job], results) -> dict:
    """Counts that depend only on the inputs, never on timing: exit codes,
    summed ``checked``, partitions listed, genus values and catalog sizes."""
    checked = {"ssf": 0, "tm": 0}
    listed = 0
    genus = {}
    for job, res in zip(jobs, results):
        if res.stopped or res.error or not res.out.startswith("{"):
            continue
        out = json.loads(res.out)
        if job.argv and job.argv[0] in ("validate-ssf", "validate-tm"):
            key = "ssf" if job.argv[0] == "validate-ssf" else "tm"
            for block in ("conditions", "informational"):
                checked[key] += sum(v["checked"] for v in out.get(block, {}).values())
        elif job.argv and job.argv[0] == "partitions":
            listed += out["count_listed"]
        elif job.argv and job.argv[0] == "genus":
            genus[job.space] = [out["genus"], out["exact"]]
    return {
        "jobs": len(jobs),
        "exit_codes": exit_codes(results),
        "checked": checked,
        "partitions_listed": listed,
        "genus": genus,
        "closed_sets": catalog_sizes(prog, spaces, sorted({j.space for j in jobs if j.space})),
    }


CATALOG_CAP = 20_000


def catalog_sizes(prog, spaces: Spaces, specs: list[str]) -> dict[str, object]:
    sizes: dict[str, object] = {}
    for text in specs:
        sp = spaces.get(text)
        try:
            sizes[text] = len(prog.solid.downset_catalog(sp, CATALOG_CAP))
        except prog.solid.BudgetExceeded:
            sizes[text] = f">{CATALOG_CAP}"
    return sizes
