"""Per-layer tracing by wrapping the program's public functions from outside.

Every public function and public method of the layer modules is replaced by
a wrapper, on every name that binds it (``from .solid import ...`` copies
included) and in the ``BUILDERS`` and ``DEMOS`` tables.  Most wrappers
record a span: name, job, parent span, start and end; a layer's self time is
its spans' time minus the time of the spans they caused.  Functions that run
hundreds of thousands of times per job (``HOT``) are only counted, never
timed, so that tracing does not swamp what it measures.

The layer names are the module names.  No program file is changed.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("space", "solid", "ssf", "extend", "values", "partition", "oracle", "demos", "cli")

# Counted, not timed: per-call work far below the cost of a timed span.
HOT = {
    "space.FiniteSpace.connected",
    "space.FiniteSpace.is_bounded_mask",
    "space.FiniteSpace.is_open_mask",
    "space.FiniteSpace.is_closed_mask",
    "space.FiniteSpace.is_compact_mask",
    "space.FiniteSpace.closure_mask",
    "space.FiniteSpace.up_closure_mask",
    "space.FiniteSpace.interior_mask",
    "space.FiniteSpace.components_masks",
    "space.FiniteSpace.cells_of",
    "space.FiniteSpace.vertex_mask",
    "space.Region.ids",
    "solid.is_solid_mask",
    "solid.hull_mask",
    "ssf.SolidSetFunction.value",
    "extend.TopMeasure.mu_mask",
    "extend.RawTopMeasure.mu_mask",
    "extend.TopMeasure.mu",
    "extend.RawTopMeasure.mu",
    "oracle.brute_closure",
    "oracle.brute_is_closed",
    "oracle.brute_is_open",
    "oracle.brute_is_bounded",
    "oracle.brute_is_compact",
    "oracle.brute_is_connected",
    "oracle.brute_force_components",
    "oracle.brute_force_solid",
    "oracle.brute_force_hull",
}
HOT_PREFIXES = ("values.",)

CATALOGS = {
    "solid.downset_catalog",
    "solid.upset_catalog",
    "solid.compact_solid_catalog",
    "solid.bounded_open_solid_catalog",
    "solid.bounded_solid_catalog",
}

# Named inclusive timers: metric -> functions whose outermost calls it sums.
TIMERS = {
    "extend.validate_tm_s": {"extend.validate_tm"},
    "ssf.validate_s": {"ssf.validate_ssf"},
    "partition.enumerate_s": {"partition.enumerate_solid_partitions"},
    "partition.genus_s": {"partition.genus"},
    "solid.catalog_s": CATALOGS,
    "oracle.brute_mu_s": {"oracle.brute_force_mu"},
    "oracle.axiom_check_s": {"oracle.exhaustive_axiom_check"},
    "demos.run_s": {"demos.run_demo"},
    "extend.grubb_s": {"extend.grubb_mu_mask", "extend.grubb_mu"},
}
# Two more are set up by ``install``: builder functions and ``load_space``
# (space.build_s), and the other timed space functions (space.primitive_s).

# Binding sites that are not layers but hold layer functions.
EXTRA_BINDING_MODULES = ("registry",)


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.cells: dict[str, list[int]] = {}
        self.self_s: defaultdict = defaultdict(float)
        self.timer_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.depth: Counter = Counter()
        self.entered: dict = {}
        self.group_of: dict[str, tuple[str, ...]] = defaultdict(tuple)
        self.job = -1
        self.next_id = 0
        self.seen_lists: dict[int, list] = {}
        self.kinds: dict[str, str] = {}  # wrapped name -> "timed" | "counted"

    # -- job boundaries ----------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job
        self.stack.clear()
        self.depth.clear()
        self.entered.clear()
        self.seen_lists.clear()

    def end_job(self) -> None:
        # A job stopped at its deadline may leave frames behind.
        self.stack.clear()
        self.depth.clear()
        self.entered.clear()
        self.seen_lists.clear()

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self, name: str, t0: float) -> list:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [sid, name, 0.0, parent]
        self.stack.append(frame)
        for g in self.group_of[name]:
            if self.depth[g] == 0:
                self.entered[g] = t0
            self.depth[g] += 1
        return frame

    def _leave(self, frame: list, t0: float, t1: float) -> None:
        if self.stack and self.stack[-1] is frame:
            self.stack.pop()
        d = t1 - t0
        name = frame[1]
        self.self_s[name] += d - frame[2]
        if self.stack:
            self.stack[-1][2] += d
        for g in self.group_of[name]:
            self.depth[g] -= 1
            if self.depth[g] == 0:
                self.timer_s[g] += t1 - self.entered.pop(g, t0)
        self.spans.append((frame[0], frame[3], self.job, name, t0, t1))

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn, post=None):
        enter, leave = self._enter, self._leave
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            t0 = perf_counter()
            frame = enter(name, t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(frame, t0, perf_counter())
            if post is not None:
                post(out)
            return out

        return _named(wrapper, fn)

    def timed_generator(self, name: str, fn):
        """Generators are timed while they run: each resume is a span of its
        own, and yields are counted."""
        enter, leave = self._enter, self._leave
        counts = self.counts
        yields = name + ".yields"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    t0 = perf_counter()
                    frame = enter(name, t0)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, t0, perf_counter())
                    counts[yields] += 1
                    yield item
            finally:
                gen.close()

        return _named(wrapper, fn)

    def counted(self, name: str, fn):
        # Positional arguments and a list cell keep this wrapper about three
        # times cheaper than the general one; hot functions take no keywords.
        cell = self.cells.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return _named(wrapper, fn)

    def all_counts(self) -> Counter:
        out = Counter(self.counts)
        for name, cell in self.cells.items():
            out[name] += cell[0]
        return out

    # -- metric hooks --------------------------------------------------------

    def catalog_post(self, out) -> None:
        if id(out) not in self.seen_lists:
            self.seen_lists[id(out)] = out  # keeps the id valid for the job
            self.counts["catalog.builds"] += 1
            self.counts["catalog.members_built"] += len(out)

    def genus_post(self, out) -> None:
        self.counts["genus.exact"] += bool(out.exact)

    def ssf_post(self, out) -> None:
        self.counts["ssf.checked"] += sum(c.checked for c in out.conditions.values())

    def tm_post(self, out) -> None:
        self.counts["tm.pairs_checked"] += sum(
            c.checked for d in (out.conditions, out.informational) for c in d.values()
        )


def _named(wrapper, fn):
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _public_callables(prog, layer):
    """(qualified name, owner, attribute, function, is_static) for every
    public function and public method defined in the layer's module."""
    mod = getattr(prog, layer)
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", mod, name, obj, False
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for mname, mobj in sorted(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                if isinstance(mobj, staticmethod):
                    yield f"{layer}.{name}.{mname}", obj, mname, mobj.__func__, True
                elif inspect.isfunction(mobj):
                    yield f"{layer}.{name}.{mname}", obj, mname, mobj, False


def install(prog, tracer: Tracer):
    """Wrap every public function of every layer, recording in
    ``tracer.kinds`` how each is wrapped.  Returns a function that puts the
    originals back."""
    replaced: dict = {}
    kinds = tracer.kinds
    undo: list = []  # (owner, attribute, original)
    builders = {f"space.{fn.__name__}" for fn in prog.space.BUILDERS.values()}
    for layer in LAYERS:
        for qname, owner, attr, fn, static in list(_public_callables(prog, layer)):
            if qname in HOT or qname.startswith(HOT_PREFIXES):
                wrapper = _hot_wrapper(tracer, qname, fn)
                kinds[qname] = "counted"
            elif inspect.isgeneratorfunction(fn):
                wrapper = tracer.timed_generator(qname, fn)
                kinds[qname] = "timed"
            else:
                wrapper = tracer.timed(qname, fn, _post_hook(tracer, qname))
                kinds[qname] = "timed"
            groups = [m for m, names in TIMERS.items() if qname in names]
            if qname in builders or qname == "space.load_space":
                groups.append("space.build_s")
            elif layer == "space" and kinds[qname] == "timed":
                groups.append("space.primitive_s")
            tracer.group_of[qname] = tuple(groups)
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
            replaced[fn] = wrapper
    # Rebind every copy made by ``from .x import name`` and the tables.
    for modname in LAYERS + EXTRA_BINDING_MODULES:
        mod = getattr(prog, modname)
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                undo.append((mod, name, obj))
                setattr(mod, name, replaced[obj])
    tables = []
    for table in (prog.space.BUILDERS, prog.demos.DEMOS):
        for key, fn in list(table.items()):
            if fn in replaced:
                tables.append((table, key, fn))
                table[key] = replaced[fn]

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        for table, key, fn in tables:
            table[key] = fn

    return uninstall


def _post_hook(tracer: Tracer, qname: str):
    if qname in CATALOGS:
        return tracer.catalog_post
    return {
        "partition.genus": tracer.genus_post,
        "ssf.validate_ssf": tracer.ssf_post,
        "extend.validate_tm": tracer.tm_post,
    }.get(qname)


def _hot_wrapper(tracer: Tracer, qname: str, fn):
    if qname != "ssf.SolidSetFunction.value":
        return tracer.counted(qname, fn)
    calls = tracer.cells.setdefault(qname, [0])
    misses = tracer.cells.setdefault("ssf.fn_evals", [0])

    def value(self, mask):
        calls[0] += 1
        if mask not in self._memo:
            misses[0] += 1
        return fn(self, mask)

    return _named(value, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics, per pass of the job list."""
    c, t = tracer.all_counts(), tracer.timer_s
    n = max(passes, 1)
    layer_self = defaultdict(float)
    for name, s in tracer.self_s.items():
        layer_self[name.split(".", 1)[0]] += s
    catalog_calls = sum(c[k] for k in CATALOGS)
    out = {
        "extend.validate_tm_s": t["extend.validate_tm_s"] / n,
        "extend.pairs_checked": c["tm.pairs_checked"] / n,
        "extend.mu_calls": (c["extend.TopMeasure.mu_mask"] + c["extend.RawTopMeasure.mu_mask"]) / n,
        "extend.mu_evals": c["extend.mu_open_mask"] / n,
        "extend.grubb_s": t["extend.grubb_s"] / n,
        "values.vadd_calls": c["values.vadd"] / n,
        "partition.enumerate_s": t["partition.enumerate_s"] / n,
        "partition.partitions_yielded": c["partition.enumerate_solid_partitions.yields"] / n,
        "partition.genus_s": t["partition.genus_s"] / n,
        "partition.genus_exact_ratio": _ratio(c["genus.exact"], c["partition.genus"]),
        "partition.irreducible_calls": c["partition.is_irreducible"] / n,
        "solid.catalog_s": t["solid.catalog_s"] / n,
        "solid.catalog_calls": catalog_calls / n,
        "solid.catalog_builds": c["catalog.builds"] / n,
        "solid.catalog_members_built": c["catalog.members_built"] / n,
        "solid.catalog_reuse_ratio":
            1.0 - c["catalog.builds"] / catalog_calls if catalog_calls else 0.0,
        "solid.hull_calls": (c["solid.hull_mask"] + c["solid.solid_hull"]) / n,
        "ssf.validate_s": t["ssf.validate_s"] / n,
        "ssf.value_calls": c["ssf.SolidSetFunction.value"] / n,
        "ssf.fn_evals": c["ssf.fn_evals"] / n,
        "ssf.checked": c["ssf.checked"] / n,
        "space.build_s": t["space.build_s"] / n,
        "space.connected_calls": c["space.FiniteSpace.connected"] / n,
        "space.components_calls": c["space.FiniteSpace.components_masks"] / n,
        "space.primitive_s": t["space.primitive_s"] / n,
        "oracle.brute_mu_s": t["oracle.brute_mu_s"] / n,
        "oracle.axiom_check_s": t["oracle.axiom_check_s"] / n,
        "demos.run_s": t["demos.run_s"] / n,
    }
    for layer in LAYERS:
        if layer != "values":  # counted only, so it has no spans
            out[f"{layer}.self_s"] = layer_self[layer] / n
    return out
