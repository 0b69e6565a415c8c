"""Span tracer installed from outside the package.

``Tracer.install`` replaces the public functions of the six measured cxsect
modules, and a fixed list of methods, with wrappers that record one span per
call: name, start, end, parent span, operation id, a work count and whether
the call raised.  Every binding that holds the original object is replaced,
including the copies made by ``from .x import y`` in other cxsect modules and
in the package namespace, so calls made inside the package are seen too.
``uninstall`` puts the originals back.  Spans stay in memory until
``write_spans``; ``summary`` turns them into per-layer metrics.

A span's self time is its duration minus the time its child spans cover.
Named layer metrics (``harmonics.expand_s`` and so on) sum self times and
counts over the whole traced window (set-up after import, then the run
phase), so set-up work such as certification and basis construction shows.
The ``<module>.self_s`` metrics and ``bench.self_s`` cover the run phase only
and add up to the traced run time.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

import numpy as np

MODULES = ("bodies", "spherequad", "harmonics", "sections", "grids", "theorems")

# Methods wrapped on their defining class.  Public module functions are found
# by inspection; methods are listed because most are trivial accessors.
METHODS = {
    "bodies": (("ConvexBody", "norm"), ("ConvexBody", "radial"),
               ("PerturbedBall", "radial_profile"), ("PerturbedBall", "_certify")),
    "harmonics": (("HarmonicBasis", "evaluate"), ("HarmonicExpansion", "evaluate"),
                  ("HarmonicExpansion", "tail_values"), ("HarmonicExpansion", "multiplied")),
    "theorems": tuple(("VerificationContext", m) for m in
                      ("volume", "grid", "section_grid_values", "ensure_valid", "ft", "inradius")),
}

RULE_BUILDERS = ("sphere_rule", "invariant_sphere_rule", "torus_sphere_rule")


def _points(arr, width):
    return int(np.size(arr) // width)


def _rows(arr):
    return int(np.atleast_2d(np.asarray(arr)).shape[0])


# span name -> work count taken from the bound call arguments and the result
COUNTS = {
    "harmonics.harmonic_expand": lambda a, r: int(a["rule"].node_count),
    "harmonics.HarmonicExpansion.evaluate": lambda a, r: _rows(a["X"]),
    "harmonics.HarmonicBasis.evaluate": lambda a, r: _rows(a["X"]),
    "spherequad.integrate_sphere": lambda a, r: int(a["rule"].node_count),
    "spherequad.mc_volume": lambda a, r: int(a["samples"]),
    "sections.section_values": lambda a, r: _rows(a["dirs"]),
    "grids.refine_extremum": lambda a, r: int(r[3]),
}
BODY_COUNTS = {"norm": "x", "radial": "theta"}

# per-layer time metric -> span names whose self times it sums
TIMES = {
    "harmonics.basis_build_s": ("harmonics.harmonic_basis", "harmonics.invariant_harmonic_basis"),
    "harmonics.expand_s": ("harmonics.harmonic_expand",),
    "harmonics.evaluate_s": ("harmonics.HarmonicExpansion.evaluate",),
    "harmonics.basis_eval_s": ("harmonics.HarmonicBasis.evaluate",),
    "bodies.radial.perturbed_s": ("bodies.PerturbedBall.radial",),
    "bodies.norm_s": tuple(f"bodies.{k}.norm" for k in
                           ("EuclideanBall", "ComplexLqBall", "ComplexEllipsoid", "PerturbedBall")),
    "bodies.certify_s": ("bodies.PerturbedBall._certify",),
    "spherequad.rule_build_s": tuple(f"spherequad.{f}" for f in RULE_BUILDERS),
    "spherequad.integrate_s": ("spherequad.integrate_sphere",),
    "spherequad.mc_s": ("spherequad.mc_volume",),
    "sections.section_values_s": ("sections.section_values",),
    "sections.section_direct_s": ("sections.section_volume_direct",),
    "sections.hyperplane_basis_s": ("sections.hyperplane_basis",),
    "sections.volume_s": ("sections.volume",),
    "sections.min_radial_s": ("sections.min_radial",),
    "grids.refine_s": ("grids.refine_extremum",),
    "theorems.stability_s": ("theorems.stability_verify",),
    "theorems.corollary_s": ("theorems.corollary1_verify",),
    "theorems.separation_s": ("theorems.separation_verify",),
    "theorems.positivity_s": ("theorems.positivity_check",),
}
TIMES["bodies.radial.other_s"] = tuple(f"bodies.{k}.radial" for k in
                                       ("EuclideanBall", "ComplexLqBall", "ComplexEllipsoid"))

# per-layer count metric -> span names whose counts it sums
WORK = {
    "harmonics.expand.nodes": TIMES["harmonics.expand_s"],
    "harmonics.evaluate.points": TIMES["harmonics.evaluate_s"],
    "harmonics.basis_eval.points": TIMES["harmonics.basis_eval_s"],
    "bodies.radial.points": TIMES["bodies.radial.perturbed_s"] + TIMES["bodies.radial.other_s"],
    "bodies.norm.points": TIMES["bodies.norm_s"],
    "spherequad.rule_nodes": TIMES["spherequad.rule_build_s"],
    "spherequad.integrate.nodes": TIMES["spherequad.integrate_s"],
    "spherequad.mc.samples": TIMES["spherequad.mc_s"],
    "sections.section_values.dirs": TIMES["sections.section_values_s"],
    "grids.refine.evals": TIMES["grids.refine_s"],
}

# per-layer call-count metric -> span names
CALLS = {
    "sections.section_direct.calls": TIMES["sections.section_direct_s"],
    "sections.hyperplane_basis.calls": TIMES["sections.hyperplane_basis_s"],
    "sections.volume.calls": TIMES["sections.volume_s"],
    "grids.refine.calls": TIMES["grids.refine_s"],
}

# cache hit ratios of VerificationContext: a call that spawned no child span
# was served from the context's cache
CTX_HITS = {
    "theorems.ctx.section_grid.hit_ratio": "theorems.VerificationContext.section_grid_values",
    "theorems.ctx.volume.hit_ratio": "theorems.VerificationContext.volume",
    "theorems.ctx.ft.hit_ratio": "theorems.VerificationContext.ft",
}

# span record fields
NAME, START, END, PARENT, OP, COUNT, RAISED, PHASE = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        self.phase = "setup"
        self._patches = []
        self._rule_fns = []
        self._cache_start = (0, 0)

    # --- installation -------------------------------------------------------

    def install(self, package):
        """Wrap the measured functions and methods of an imported cxsect."""
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for modname in MODULES:
            module = getattr(package, modname)
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapper = self._wrap(f"{modname}.{attr}", obj, attr in RULE_BUILDERS)
                for holder in loaded:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, key, wrapper)
                if attr in RULE_BUILDERS:
                    self._rule_fns.append(obj)
            for clsname, meth in METHODS.get(modname, ()):
                cls = getattr(module, clsname)
                orig = vars(cls)[meth]
                wrapper = self._wrap_method(modname, meth, orig)
                for key, value in list(vars(cls).items()):
                    if value is orig:  # aliases such as __call__ = evaluate
                        self._patch(cls, key, wrapper)
        self._cache_start = self._cache_totals()

    def uninstall(self):
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches.clear()

    def _patch(self, holder, key, value):
        self._patches.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def _cache_totals(self):
        hits = sum(f.cache_info().hits for f in self._rule_fns)
        misses = sum(f.cache_info().misses for f in self._rule_fns)
        return hits, misses

    # --- wrappers -------------------------------------------------------------

    def _call(self, name, fn, args, kwargs, count):
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, False, self.phase]
        stack.append(len(spans))
        spans.append(rec)
        rec[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec[RAISED] = True
            raise
        finally:
            rec[END] = perf_counter()
            stack.pop()
        if count is not None:
            rec[COUNT] = count(args, kwargs, result)
        return result

    def _wrap(self, name, fn, is_rule_builder):
        count = None
        if is_rule_builder:
            # nodes of rules actually built: counted on cache misses only
            state = {}

            def count(args, kwargs, result):
                misses = fn.cache_info().misses
                built = misses != state.get("misses")
                state["misses"] = misses
                return int(result.node_count) if built else 0

            state["misses"] = fn.cache_info().misses
        elif name in COUNTS:
            sig = inspect.signature(fn)
            extract = COUNTS[name]

            def count(args, kwargs, result):
                return extract(sig.bind(*args, **kwargs).arguments, result)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, count)

        return wrapper

    def _wrap_method(self, modname, meth, fn):
        width = BODY_COUNTS.get(meth) if modname == "bodies" else None
        sig = inspect.signature(fn)
        keyed = f"{modname}.{{}}.{meth}"
        by_class = {}

        def count_for(name):
            if width is not None:
                return lambda a, k, r: _points(sig.bind(*a, **k).arguments[width], a[0].dim.N)
            if name in COUNTS:
                extract = COUNTS[name]
                return lambda a, k, r: extract(sig.bind(*a, **k).arguments, r)
            return None

        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            cls = type(self_).__name__
            entry = by_class.get(cls)
            if entry is None:
                name = keyed.format(cls)
                entry = by_class[cls] = (name, count_for(name))
            return self._call(entry[0], fn, (self_,) + args, kwargs, entry[1])

        return wrapper

    # --- benchmark operations ---------------------------------------------------

    def bench_call(self, label, fn, *args):
        """Run one benchmark operation as a root span with a new operation id."""
        self.op += 1
        return self._call(f"bench.{label}", fn, args, {}, None)

    # --- results ------------------------------------------------------------------

    def summary(self, run_s):
        spans = self.spans
        child_time = [0.0] * len(spans)
        has_child = [False] * len(spans)
        for rec in spans:
            p = rec[PARENT]
            if p >= 0:
                child_time[p] += rec[END] - rec[START]
                has_child[p] = True
        self_by_name, count_by_name, calls_by_name = {}, {}, {}
        module_self = {m: 0.0 for m in MODULES + ("bench",)}
        errors = {m: 0 for m in MODULES}
        hits = {}
        for i, rec in enumerate(spans):
            name = rec[NAME]
            own = rec[END] - rec[START] - child_time[i]
            self_by_name[name] = self_by_name.get(name, 0.0) + own
            count_by_name[name] = count_by_name.get(name, 0) + rec[COUNT]
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
            module = name.split(".", 1)[0]
            if rec[PHASE] == "run":
                module_self[module] += own
            if rec[RAISED] and module in errors:
                errors[module] += 1
            if not has_child[i]:
                hits[name] = hits.get(name, 0) + 1

        out = {}
        for metric, names in TIMES.items():
            out[metric] = sum(self_by_name.get(n, 0.0) for n in names)
        for metric, names in WORK.items():
            out[metric] = sum(count_by_name.get(n, 0) for n in names)
        for metric, names in CALLS.items():
            out[metric] = sum(calls_by_name.get(n, 0) for n in names)
        for metric, name in CTX_HITS.items():
            calls = calls_by_name.get(name, 0)
            out[metric] = hits.get(name, 0) / calls if calls else 0.0
        h0, m0 = self._cache_start
        h1, m1 = self._cache_totals()
        lookups = (h1 - h0) + (m1 - m0)
        out["spherequad.rule_cache.hit_ratio"] = (h1 - h0) / lookups if lookups else 0.0
        for module in MODULES:
            out[f"{module}.self_s"] = module_self[module]
            out[f"{module}.errors"] = errors[module]
        out["bench.self_s"] = module_self["bench"]
        out["trace.run_s"] = run_s
        out["trace.spans"] = len(spans)
        return out

    def unaccounted(self, summary):
        """Run-phase time outside every span (loop overhead between
        operations); near zero when the self times partition the run."""
        parts = sum(summary[f"{m}.self_s"] for m in MODULES + ("bench",))
        return summary["trace.run_s"] - parts

    def write_spans(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "op": rec[OP], "count": rec[COUNT],
                    "raised": rec[RAISED], "phase": rec[PHASE],
                }) + "\n")

