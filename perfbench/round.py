"""One benchmark round in a fresh interpreter.

Reads a JSON request on stdin (workload name, generated inputs, mode) and
prints one JSON result line on stdout.  Modes:

* ``plain``  -- set-up, then the timed run phase with output checks;
* ``traced`` -- the same under the span tracer, plus per-layer metrics;
* ``setup``  -- set-up only, for extra set-up time samples.

Set-up covers the interpreter start, the import of cxsect, building the
bodies (with the perturbed-body convexity certification) and the harmonic
bases the workload needs.  Every operation of the run phase is checked
against the acceptance suite's bound for it; a failed check or an exception
counts as a failed operation and the round goes on.
"""
from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from time import perf_counter

# acceptance-suite bounds (cxsect.suite)
ROUTE_BOUND = 5e-3          # C2 direct vs Fourier section volumes
CLOSED_FORM_BOUND = 1e-3    # C9 closed-form volumes
EQUALITY_BOUND = 1e-9       # C6 scaled-ball separation equality
STRUCTURAL_BOUND = 1e-10    # C10 structural identities
SIGMAS = 3.0                # C9 Monte Carlo: 3 sigma + tol_multiplier * err


class Round:
    """Runs operations, counts failures, collects errors and an output digest."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.errors = []
        self.op_seconds = {}
        self._digest = hashlib.sha256()

    def op(self, label, fn, *args):
        self.attempted += 1
        t0 = perf_counter()
        try:
            if self.tracer:
                passed = bool(self.tracer.bench_call(label, fn, *args))
            else:
                passed = bool(fn(*args))
            detail = "check failed"
        except Exception as exc:  # a raising operation is a failed operation
            passed = False
            detail = f"{type(exc).__name__}: {exc}"
        self.op_seconds[label] = self.op_seconds.get(label, 0.0) + perf_counter() - t0
        if not passed:
            self.failed += 1
            self.failures.append(f"{label}: {detail}")

    def err(self, value):
        value = float(value)
        self.errors.append(value)
        return value

    def out(self, *values):
        import numpy as np

        for v in values:
            self._digest.update(np.ascontiguousarray(v, dtype=float).tobytes())

    def digest(self):
        return self._digest.hexdigest()


def tiny_config(cxsect):
    """Coarse levels for the self-test: seconds per round, same code paths."""
    return cxsect.RunConfig(
        product_levels={2: 6, 4: 6}, reduced_levels={2: 24, 3: 12},
        jmax={4: 4, 6: 4}, moduli_res={2: 6, 3: 4}, phase_res={2: 4, 3: 2},
    )


def _kind(body):
    return type(body).__name__


def closed_form_volume(body):
    n = body.dim.n
    kind = _kind(body)
    if kind == "EuclideanBall":
        return math.pi ** n * body.radius ** (2 * n) / math.factorial(n)
    if kind == "ComplexLqBall" and math.isinf(body.q):
        return (math.pi * body.scale ** 2) ** n
    if kind == "ComplexEllipsoid":
        return math.pi ** n * math.prod(a * a for a in body.semiaxes) / math.factorial(n)
    return None


# --- workloads -----------------------------------------------------------------
#
# Each workload builds its state in ``setup`` and runs its timed operations in
# ``run``; both go through ``Round.op``.


class Workload:
    def __init__(self, cx, inputs, cfg, rnd):
        self.cx, self.inputs, self.cfg, self.rnd = cx, inputs, cfg, rnd

    def build(self, specs):
        """Bodies from specs, one operation each; None where construction failed."""
        bodies = [None] * len(specs)

        def make(i):
            bodies[i] = self.cx.body_from_dict(specs[i])
            return True

        for i in range(len(specs)):
            self.rnd.op("build", make, i)
        return bodies


class FourierN3(Workload):
    def setup(self):
        cx, rnd = self.cx, self.rnd
        self.bodies = self.build(self.inputs["bodies"])
        self.ctx = cx.theorems.VerificationContext(self.cfg)
        jmax = self.cfg.jmax_for(6)
        rnd.op("bases", lambda: all(
            len(cx.harmonics.invariant_harmonic_basis(6, j)) for j in range(0, jmax + 1, 2)))

    def run(self):
        import numpy as np

        cx, rnd, cfg = self.cx, self.rnd, self.cfg
        dirs = np.array(self.inputs["dirs"])
        p_route, p_sign = self.inputs["route_p"], self.inputs["sign_p"]
        fourier = {}

        def route(body):
            n = body.dim.n
            ft = self.ctx.ft(body, p_route)
            direct = cx.sections.section_values(body, dirs, config=cfg)
            fourier[body] = ft.evaluate(dirs) / (4.0 * math.pi * (n - 1))
            rnd.out(direct, fourier[body], *ft.coeffs.values())
            return rnd.err(np.max(np.abs(fourier[body] / direct - 1.0))) <= ROUTE_BOUND

        def closed_form(body):
            # Euclidean transform constant carried to the ellipsoid by its
            # linear map A: ft(xi) = det(A) C(N, p) |A xi|^(p - N)
            N = body.dim.N
            axes = np.repeat(np.array(body.semiaxes), 2)
            exact = (np.prod(axes) * cx.harmonics.euclidean_ft_constant(N, p_route)
                     * np.linalg.norm(axes * dirs, axis=1) ** (p_route - N)
                     / (4.0 * math.pi * (body.dim.n - 1)))
            return rnd.err(np.max(np.abs(fourier[body] / exact - 1.0))) <= ROUTE_BOUND

        def sign(body):
            ft = self.ctx.ft(body, p_sign)
            res = cx.theorems.positivity_check(body, context=self.ctx)
            rnd.out(res.min_value, res.max_value, *ft.coeffs.values())
            return res.passed

        for body in self.bodies:
            rnd.op("route", route, body)
            if _kind(body) == "ComplexEllipsoid":
                rnd.op("closed_form", closed_form, body)
        for i in self.inputs["sign_bodies"]:
            rnd.op("positivity", sign, self.bodies[i])


class CompareSweep(Workload):
    def setup(self):
        self.bodies = self.build(self.inputs["bodies"])
        sep = self.build([b for pair in self.inputs["separation"] for b in pair])
        self.sep = list(zip(sep[0::2], sep[1::2]))
        self.ctx = self.cx.theorems.VerificationContext(self.cfg)

    def run(self):
        import numpy as np

        cx, rnd, ctx = self.cx, self.rnd, self.ctx
        th = cx.theorems

        def stability(K, L):
            rep = th.stability_verify(K, L, context=ctx)
            rnd.out(rep.margin, rep.tol, rep.epsilon)
            return rep.passed

        def corollary(K, L):
            rep = th.corollary1_verify(K, L, context=ctx)
            rnd.out(rep.margin, rep.tol)
            return rep.passed

        def separation(K, L, equality):
            rep = th.separation_verify(K, L, context=ctx)
            rnd.out(rep.margin, rep.tol, rep.epsilon)
            if equality:
                return rep.passed and rnd.err(abs(rep.margin)) <= EQUALITY_BOUND
            return rep.passed

        def ball_sections(body):
            n = body.dim.n
            exact = math.pi ** (n - 1) * body.radius ** (2 * n - 2) / math.factorial(n - 1)
            vals = ctx.section_grid_values(body, False)
            return rnd.err(np.max(np.abs(vals / exact - 1.0))) <= CLOSED_FORM_BOUND

        def volume(body, exact):
            vol, _ = ctx.volume(body)
            rnd.out(vol)
            return rnd.err(abs(vol / exact - 1.0)) <= CLOSED_FORM_BOUND

        for i, j in self.inputs["pairs"]:
            K, L = self.bodies[i], self.bodies[j]
            rnd.op("stability", stability, K, L)
            rnd.op("corollary", corollary, K, L)
        for K, L in self.sep:
            equality = _kind(K) == _kind(L) == "EuclideanBall"
            rnd.op("separation", separation, K, L, equality)
        every = self.bodies + [b for pair in self.sep for b in pair]
        for body in every:
            if _kind(body) == "EuclideanBall":
                rnd.op("ball_sections", ball_sections, body)
            exact = closed_form_volume(body)
            if exact is not None:
                rnd.op("closed_form_volume", volume, body, exact)


class VolumeOracles(Workload):
    def setup(self):
        self.bodies = self.build(self.inputs["bodies"])

    def run(self):
        import numpy as np

        cx, rnd, cfg = self.cx, self.rnd, self.cfg
        volumes = {}

        def volume(body):
            vol, err = cx.sections.volume_with_error(body, cfg)
            volumes[body] = (vol, err)
            rnd.out(vol, err)
            exact = closed_form_volume(body)
            if exact is None:
                return math.isfinite(vol) and vol > 0
            return rnd.err(abs(vol / exact - 1.0)) <= CLOSED_FORM_BOUND

        def monte_carlo(body, seed):
            vol, err = volumes[body]
            mc = cx.spherequad.mc_volume(body, self.inputs["mc_samples"], seed)
            rnd.out(mc.estimate, mc.std_error)
            return abs(vol - mc.estimate) <= SIGMAS * mc.std_error + cfg.tol_multiplier * err

        def inradius(body):
            # a centred ball of radius min rho lies in K, so the normalized
            # inradius is at most the ball's; balls, polydiscs and ellipsoids
            # have closed forms
            n = body.dim.n
            r = cx.sections.inradius_normalized(body, config=cfg)
            rnd.out(r)
            ball_value = (math.pi ** n / math.factorial(n)) ** (-1.0 / (2 * n))
            kind = _kind(body)
            if kind == "EuclideanBall":
                exact = ball_value
            elif kind == "ComplexLqBall" and math.isinf(body.q):
                exact = 1.0 / math.sqrt(math.pi)
            elif kind == "ComplexEllipsoid":
                exact = min(body.semiaxes) / closed_form_volume(body) ** (1.0 / (2 * n))
            else:
                return r <= ball_value * (1.0 + CLOSED_FORM_BOUND)
            return abs(r / exact - 1.0) <= CLOSED_FORM_BOUND

        def jline(body, xi, t):
            xi2 = math.cos(t) * xi + math.sin(t) * cx.bodies.complex_structure(xi)
            v1 = cx.sections.section_values(body, xi[None, :], config=cfg, scan=True)[0]
            v2 = cx.sections.section_values(body, xi2[None, :], config=cfg, scan=True)[0]
            rnd.out(v1, v2)
            return abs(v2 / v1 - 1.0) <= STRUCTURAL_BOUND

        def norm_identities(body, x, lam, theta):
            base = body.norm(x)
            hom = abs(body.norm(lam * x) - abs(lam) * base) / (abs(lam) * base)
            rot = abs(body.norm(cx.bodies.rotate_pairs(x, theta)) - base) / base
            rnd.out(base)
            return max(hom, rot) <= STRUCTURAL_BOUND

        for body, seed in zip(self.bodies, self.inputs["mc_seeds"]):
            rnd.op("volume", volume, body)
            rnd.op("monte_carlo", monte_carlo, body, seed)
            rnd.op("inradius", inradius, body)
        for b, xi, t in self.inputs["jline"]:
            rnd.op("jline_section", jline, self.bodies[b], np.array(xi), t)
        for b, x, lam, theta in self.inputs["norms"]:
            rnd.op("norm_identities", norm_identities, self.bodies[b], np.array(x), lam, theta)


WORKLOADS = {"fourier_n3": FourierN3, "compare_sweep": CompareSweep,
             "volume_oracles": VolumeOracles}


def main():
    req = json.load(sys.stdin)
    sys.path.insert(0, req["src"])
    import cxsect as cx

    tracer = None
    if req["mode"] == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cx)
    cfg = tiny_config(cx) if req["tiny"] else cx.default_config()
    rnd = Round(tracer)
    work = WORKLOADS[req["workload"]](cx, req["inputs"], cfg, rnd)
    work.setup()
    setup_s = time.time() - req["spawn_time"]
    result = {"mode": req["mode"], "setup_s": setup_s}
    if req["mode"] != "setup":
        if tracer:
            tracer.phase = "run"
        t0 = perf_counter()
        work.run()
        run_s = perf_counter() - t0
        if tracer:
            tracer.uninstall()
            result["layers"] = tracer.summary(run_s)
            result["unaccounted_s"] = tracer.unaccounted(result["layers"])
            tracer.write_spans(req["spans_path"])
        result.update({
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": rnd.attempted,
            "failed": rnd.failed,
            "failures": rnd.failures,
            "max_rel_err": max(rnd.errors, default=0.0),
            "digest": rnd.digest(),
            "op_seconds": rnd.op_seconds,
        })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
