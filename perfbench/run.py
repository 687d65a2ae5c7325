"""End-to-end benchmark of topomeasure: seeded job streams run in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload validate|partition|query|all \
        --seed N --seconds S --trace 0|1

A workload is a seeded list of user jobs (see ``jobs.py``), run one at a
time in a closed loop from one process and one thread: the next job starts
when the previous one ends.  The list is run as whole passes, and another
pass starts only while it would still end within ``--seconds`` at the pace
of the slowest pass so far.  Several times in each pass, evenly spread, the
program is imported again and the job list generated again; these set-up
rounds give ``setup_s``, and the jobs after a round run on the program it
imported, so every pass is as cold as the first.  After every job and
set-up round the run times a fixed kernel (``hostspeed.py``), and every
time it reports is scaled by the host speed this gives, so that the drift
of a shared host does not show as a change of the program.  Each job gets
a deadline and is stopped there by an interrupt the program cannot catch.
The correctness gate (``gate.py``) runs after the timed passes.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by traced passes (``tracing.py``)
and the last line holds the per-layer metrics, per pass.  Everything before
the last line is a readable report, including a block of deterministic
counts that repeats exactly from run to run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import jobs as joblib  # noqa: E402
import tracing as tracelib  # noqa: E402
from gate import Gate, deterministic_counts, exit_codes  # noqa: E402

MODULES = ("values", "space", "solid", "partition", "ssf", "extend", "oracle",
           "registry", "demos", "cli")
# Set-up rounds spread over each pass; setup_s is the median over all of
# them, so it samples the whole run, as the jobs do, not one moment of it.
SETUP_ROUNDS = 8
# Imports read bytecode from here (written by an untimed first import), so
# set-up time never depends on PYTHONDONTWRITEBYTECODE or on what earlier
# runs left next to the sources.
BYTECODE_DIR = HERE / "out" / "pycache"
# Jobs start only while this much of the run is left, so that a program
# whose jobs all run into their deadlines still ends well within 180 s.
RUN_LIMIT_S = 140.0


class JobDeadline(BaseException):
    """Raised from the alarm handler; derived from BaseException so that the
    ``except`` clauses of ``cli.main`` cannot swallow it."""


_armed = False


def _on_alarm(signum, frame):
    global _armed
    if _armed:
        _armed = False
        raise JobDeadline()


@dataclass
class Timings:
    # One (measured seconds, factor to reference seconds) per set-up round.
    setup: list[tuple[float, float]] = field(default_factory=list)
    host: hostspeed.HostSpeed = field(default_factory=hostspeed.HostSpeed)


@dataclass
class Result:
    rc: Optional[int]
    out: str
    latency: float
    stopped: bool = False
    error: Optional[str] = None
    scale: float = 1.0  # factor from measured to reference seconds


# ----- the program ---------------------------------------------------------------


def load_program() -> SimpleNamespace:
    """Import topomeasure from this checkout (never from site-packages)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "topomeasure" or m.startswith("topomeasure.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"topomeasure.{m}") for m in MODULES}
    for mod in mods.values():
        if Path(mod.__file__).resolve().parent != SRC / "topomeasure":
            raise ImportError(f"{mod.__name__} was imported from {mod.__file__}")
    return SimpleNamespace(**mods)


def use_own_bytecode() -> None:
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(BYTECODE_DIR)
    load_program()


def setup(workload: str, seed: int, timings: Timings):
    """One set-up round: import plus seeded job generation.  Returns the
    program, spaces and job list."""
    t0 = perf_counter()
    prog = load_program()
    spaces = joblib.Spaces(prog)
    job_list = joblib.make_jobs(prog, workload, seed, spaces)
    measured = perf_counter() - t0
    timings.setup.append((measured, timings.host.sample()))
    # Free the earlier rounds' modules, so that peak memory does not grow
    # with the number of rounds.
    gc.collect()
    return prog, spaces, job_list


def grubb_crosscheck(prog, sp_text: str, desc: str) -> dict:
    """Compact path against the general path on every open and closed region."""
    sp = prog.cli.resolve_space(sp_text)
    lam = prog.ssf.make_from_descriptor(sp, desc)
    tm = prog.extend.TopMeasure(lam)
    regions = prog.solid.downset_catalog(sp) + prog.solid.upset_catalog(sp)
    mismatches = sum(
        1 for m in regions if prog.extend.grubb_mu_mask(lam, m) != tm.mu_mask(m)
    )
    return {"regions": len(regions), "mismatches": mismatches}


# ----- running jobs ----------------------------------------------------------------


def run_job(prog, job: joblib.Job, deadline: float) -> Result:
    global _armed
    out, err = io.StringIO(), io.StringIO()
    rc, error, stopped = None, None, False
    t0 = perf_counter()
    try:
        _armed = True
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if job.argv is not None:
                    rc = prog.cli.main(list(job.argv))
                else:
                    json.dump(grubb_crosscheck(prog, job.space, job.ssf), out)
                    rc = prog.cli.EXIT_OK
        finally:
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobDeadline:
        stopped = True
    except Exception as exc:  # an error the program did not declare
        error = f"{type(exc).__name__}: {exc}"
        print(f"job {job.id!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
    latency = perf_counter() - t0
    return Result(rc, out.getvalue(), latency, stopped, error)


def run_pass(args, timings: Timings, end_by: float, tracer=None):
    """One pass.  SETUP_ROUNDS set-up rounds are spread evenly over it, the
    first before the first job; the jobs after a round run on the program it
    imported.  Set-up time is not part of the pass's wall time.  The pass
    stops early, with fewer results than jobs, when the run limit ``end_by``
    comes near.  Returns the results, the wall time, and the last round's
    program, spaces and job list."""
    results, wall = [], 0.0
    i, step, uninstall = 0, 1, None
    while i == 0 or i < len(job_list):
        if i % step == 0:
            if uninstall is not None:
                uninstall()  # set-up and the gate must not count as traced work
            prog, spaces, job_list = setup(args.workload, args.seed, timings)
            step = math.ceil(len(job_list) / SETUP_ROUNDS)
            if tracer is not None:
                uninstall = tracelib.install(prog, tracer)
        t0 = perf_counter()
        left = end_by - t0
        if left < 1.0:
            break
        if tracer is not None:
            tracer.begin_job(i)
        res = run_job(prog, job_list[i], min(job_list[i].deadline, left))
        if tracer is not None:
            tracer.end_job()
        wall += perf_counter() - t0
        res.scale = timings.host.sample()
        results.append(res)
        i += 1
    if uninstall is not None:
        uninstall()
    return results, wall, (prog, spaces, job_list)


def run_passes(args, timings: Timings, seconds: float, end_by: float,
               tracer=None):
    """Whole passes while the next one, if no slower than the slowest so
    far, still ends within ``seconds`` (always at least one).  Returns the
    passes, their wall times, and the last program, spaces and job list."""
    passes, walls = [], []
    while not walls or sum(walls) + max(walls) <= seconds:
        results, wall, last = run_pass(args, timings, end_by, tracer)
        passes.append(results)
        walls.append(wall)
        if len(results) < len(last[2]):
            break
    return passes, walls, last


# ----- metrics -----------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond): the highest whole percentile
    that leaves at least ten samples above it (nearest-rank)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1], 0
    pct = 100 * (n - 10) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, xs[rank - 1], n - rank


def end_to_end(prog, passes, walls, failures, timings: Timings, peak_rss_mb):
    """Throughput over all passes; latency percentiles per pass, reported as
    the median over passes (so the pass count does not change them).  Times
    are in reference seconds (``hostspeed``), except the time of jobs stopped
    at their deadline, which is wall time whatever the host's speed."""
    f = timings.host.factor()

    def latency(r: Result) -> float:
        return r.latency if r.stopped else r.latency * r.scale

    results = [r for p in passes for r in p]
    attempted = len(results)
    failed = sum(len(fl) for fl in failures)
    stopped_s = sum(r.latency for r in results if r.stopped)
    tails = [tail([latency(r) for r in p]) for p in passes]
    return {
        "attempted": attempted,
        "failed": failed,
        "factor": f,
        "stopped_s": stopped_s,
        "tail_percentile": tails[0][0],
        "tail_beyond": tails[0][2],
        "metrics": {
            "setup_s": (statistics.median(t * scale for t, scale in timings.setup), "s"),
            "jobs_per_s": (
                (attempted - failed) / ((sum(walls) - stopped_s) * f + stopped_s), "1/s"),
            "job_p50_s": (statistics.median(
                statistics.median(latency(r) for r in p) for p in passes), "s"),
            "job_tail_s": (statistics.median(t[1] for t in tails), "s"),
            "over_limit_ratio": (
                sum(latency(r) > joblib.QUERY_LIMIT for r in results) / attempted, "ratio"),
            "failed_ratio": (failed / attempted, "ratio"),
            "unknown_ratio": (
                sum(r.rc == prog.cli.EXIT_UNKNOWN and not r.stopped for r in results)
                / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


# End-to-end metrics on the last line.  The others stay in the report: the
# ratios are 0 on some workloads, and job_tail_s, one order statistic per
# pass, varies between runs by more than the largest bound (0.25) when the
# host's speed drifts.
RESULT_METRICS = ("setup_s", "jobs_per_s", "job_p50_s", "peak_rss_mb")


def gate_passes(prog, spaces, job_list, passes):
    """Per pass: job id -> (what is wrong, whether it was only the deadline)."""
    gate = Gate(prog, spaces, ROOT)
    failures = []
    for results in passes:
        bad = {}
        for job, res in zip(job_list, results):
            problem = gate.check(job, res)
            if problem is not None:
                bad[job.id] = (problem, res.stopped)
        failures.append(bad)
    return failures


# ----- main --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(joblib.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "topomeasure" / "cli.py").is_file():
        print(f"error: no topomeasure sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    end_by = perf_counter() + RUN_LIMIT_S
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))
    signal.signal(signal.SIGALRM, _on_alarm)

    use_own_bytecode()
    timings = Timings()
    tracer = None
    if args.trace:
        _, ref_walls, _ = run_passes(args, timings, 0, end_by)
        tracer = tracelib.Tracer()
    passes, walls, (prog, spaces, job_list) = run_passes(
        args, timings, args.seconds, end_by, tracer)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = gate_passes(prog, spaces, job_list, passes)
    e2e = end_to_end(prog, passes, walls, failures, timings, peak_rss_mb)
    f = e2e["factor"]
    print(f"workload {args.workload}: seed {args.seed}, {len(job_list)} jobs per pass, "
          f"setup {statistics.median(t for t, _ in timings.setup):.4f} s measured (median of "
          f"{len(timings.setup)} rounds)")
    print(f"host speed: kernel mean {timings.host.mean_s() * 1e3:.3f} ms "
          f"({len(timings.host.stretches)} samples) against {hostspeed.REF_KERNEL_S * 1e3:.3f} ms "
          f"for reference; wall times below are measured times x {f:.4f}, each job "
          f"and set-up time is scaled by the samples just before and after it")
    counts = deterministic_counts(prog, spaces, job_list, passes[0])
    nondeterministic = any(exit_codes(p) != counts["exit_codes"] for p in passes[1:])

    print(f"{'traced ' if tracer else ''}passes {len(passes)}, measured wall: "
          + ", ".join(f"{w:.3f} s" for w in walls))
    for name, (value, unit) in e2e["metrics"].items():
        extra = ""
        if name == "job_tail_s":
            extra = (f"  (p{e2e['tail_percentile']} of the {len(job_list)} jobs of a "
                     f"pass, {e2e['tail_beyond']} beyond; median over passes)")
        if name == "jobs_per_s" and e2e["stopped_s"]:
            extra = (f"  ({e2e['stopped_s']:.3f} s of the {sum(walls):.3f} s wall "
                     f"were jobs stopped at their deadline)")
        print(f"  {name:<17} {value:12.6f} {unit}{extra}")
    for i, bad in enumerate(failures):
        for job_id, (problem, _) in bad.items():
            print(f"  FAILED pass {i + 1} {job_id}: {problem}")
    print("deterministic " + json.dumps(counts, sort_keys=True))
    if nondeterministic:
        print("  FAILED exit codes differ between passes")
    truncated = any(len(p) < len(job_list) for p in passes)
    if truncated:
        print(f"  FAILED the {RUN_LIMIT_S:g} s run limit came before the end of a pass")

    # Jobs stopped at their deadline are failed but not wrong.
    correct = not nondeterministic and not truncated and all(
        stopped for bad in failures for _, stopped in bad.values()
    )
    if tracer is None:
        metrics = {k: e2e["metrics"][k] for k in RESULT_METRICS}
    else:
        per_pass = sum(walls) / len(walls)
        ref = sum(ref_walls) / len(ref_walls)
        layer = tracelib.per_layer_metrics(tracer, len(passes))
        layer["trace.overhead_ratio"] = per_pass / ref - 1.0
        layer = {k: v * f if k.endswith("_s") else v for k, v in layer.items()}
        print(f"tracing overhead: {per_pass - ref:+.3f} s per pass "
              f"({per_pass:.3f} traced vs {ref:.3f} untraced), "
              f"{len(tracer.spans)} spans, "
              f"{sum(1 for k in tracer.kinds.values() if k == 'timed')} timed and "
              f"{sum(1 for k in tracer.kinds.values() if k == 'counted')} counted functions")
        print("per-layer metrics (per pass; times with their share of traced pass time):")
        for name, value in layer.items():
            share = f"  {value / (per_pass * f):6.1%}" if name.endswith("_s") else ""
            print(f"  {name:<30} {value:16.6f}{share}")
        print("largest self times by function (per pass):")
        top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:8]
        for name, value in top:
            value /= len(passes)
            print(f"  {name:<45} {value * f:10.4f} s  {value / per_pass:6.1%}")
        write_spans(tracer, args.workload, args.seed)
        metrics = {k: (v, _unit(k)) for k, v in layer.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": e2e["attempted"],
        "failed": e2e["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own (peak memory is per process)."""
    worst = 0
    for workload in joblib.WORKLOADS:
        print(f"=== {workload}", flush=True)
        done = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        worst = max(worst, done.returncode)
    return worst


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def write_spans(tracer, workload: str, seed: int) -> None:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as fh:
        for sid, parent, job, name, t0, t1 in tracer.spans:
            fh.write(json.dumps([sid, parent, job, name, round(t0, 7), round(t1, 7)]) + "\n")
    print(f"spans written to {path.relative_to(ROOT)} (id, parent, job, name, start, end)")


if __name__ == "__main__":
    sys.exit(main())
