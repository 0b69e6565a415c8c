"""The acceptance matrix: ten verification criteria over a fixed body matrix.

Each criterion produces one summary row (name, measured, bound, pass) plus
per-item details; ``run_suite`` executes all of them against a configuration,
sharing volumes, section grids, and transforms through a single
``VerificationContext``.  Exit-code contract: 0 all pass, 1 violation with
clean numerics, 2 failure or degradation traced to numerical warnings.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from . import sections as sect, theorems
from .bodies import (
    ComplexDim,
    ComplexEllipsoid,
    ComplexLqBall,
    EuclideanBall,
    PerturbedBall,
    complex_structure,
    validate,
)
from .config import RunConfig, default_config, philox
from .errors import InvalidInputError, exit_code
from .harmonics import euclidean_ft_constant
from .spherequad import mc_volume
from .theorems import (
    VerificationContext,
    corollary1_verify,
    gamma_lemma_check,
    parseval_check,
    positivity_check,
    separation_verify,
    stability_verify,
)


# --- the body matrix --------------------------------------------------------


def bodies_n2():
    """The n = 2 body matrix, name -> body: a fresh dict over bodies built once
    per process (see ``_matrix_n2``)."""
    return dict(_matrix_n2())


def bodies_n3():
    """The n = 3 body matrix, as ``bodies_n2``."""
    return dict(_matrix_n3())


# Bodies are immutable, so every caller may share them; building them once
# certifies each PerturbedBall once per process instead of once per call.
@cache
def _matrix_n2():
    d = ComplexDim(2)
    return {
        "ball": EuclideanBall(d, 1.0),
        "ball_1.3": EuclideanBall(d, 1.3),
        "lq1": ComplexLqBall(d, 1.0),
        "lq1.5": ComplexLqBall(d, 1.5),
        "lq2_s0.9": ComplexLqBall(d, 2.0, 0.9),
        "lq3": ComplexLqBall(d, 3.0),
        "lq4": ComplexLqBall(d, 4.0),
        "lq6": ComplexLqBall(d, 6.0),
        "polydisc": ComplexLqBall(d, math.inf),
        "ell_1_2": ComplexEllipsoid((1.0, 2.0)),
        "ell_1_3": ComplexEllipsoid((1.0, 3.0)),
        "ell_1.4_0.9": ComplexEllipsoid((1.4, 0.9)),
        "pert_a": PerturbedBall(d, 1.0, ((2, 0, 0.06), (4, 1, 0.02))),
        "pert_b": PerturbedBall(d, 1.0, ((2, 2, 0.05),)),
    }


@cache
def _matrix_n3():
    d = ComplexDim(3)
    return {
        "ball": EuclideanBall(d, 1.0),
        "ball_1.2": EuclideanBall(d, 1.2),
        "ell_1_1.5_2": ComplexEllipsoid((1.0, 1.5, 2.0)),
        "ell_1_1_3": ComplexEllipsoid((1.0, 1.0, 3.0)),
        "lq1": ComplexLqBall(d, 1.0),
        "lq2": ComplexLqBall(d, 2.0),
        "lq3": ComplexLqBall(d, 3.0),
        "lq4": ComplexLqBall(d, 4.0),
        "polydisc": ComplexLqBall(d, math.inf),
        "pert": PerturbedBall(d, 1.0, ((2, 0, 0.05),)),
    }


def sweep_pairs():
    """Ordered body pairs for the stability and two-sided sweeps: 54
    distinct pairs, none a body with itself (``test_suite`` pins both)."""
    b2 = list(bodies_n2().values())
    b3 = list(bodies_n3().values())
    pairs = []
    for i in range(len(b2)):
        pairs.append((b2[i], b2[(i + 1) % len(b2)]))
        pairs.append((b2[i], b2[(i + 5) % len(b2)]))
    for i in range(len(b3)):
        pairs.append((b3[i], b3[(i + 1) % len(b3)]))
        pairs.append((b3[i], b3[(i + 3) % len(b3)]))
    named2 = bodies_n2()
    named3 = bodies_n3()
    extras = [
        (named2["ball"], named2["polydisc"]),
        (named2["ball"], named2["lq1"]),
        (named2["ell_1_3"], named2["ball"]),
        (named3["ball"], named3["polydisc"]),
        (named3["ball"], named3["lq1"]),
        (named3["ell_1_1_3"], named3["ball"]),
    ]
    return pairs + extras


def positivity_matrix():
    """Bodies with an asserted sign check, and exploratory-only probes.

    At complex dimension 3 the asserted set is restricted to bodies whose
    exponent-2 transform minimum is resolvable at the default truncation:
    the multiplier grows linearly in the degree there, so bodies whose
    transform minimum is tiny against its maximum (ellipsoid aspect 3) or
    whose partial sums oscillate near edge directions (q >= 6, the polydisc)
    are reported without assertion, as is the dimension-4 probe where the
    sign statement itself fails.
    """
    n2 = bodies_n2()
    n3 = bodies_n3()
    asserted = list(n2.values()) + [
        n3[k] for k in ("ball", "ball_1.2", "ell_1_1.5_2",
                        "lq1", "lq2", "lq3", "lq4", "pert")
    ]
    exploratory = [
        n3["ell_1_1_3"],
        ComplexLqBall(ComplexDim(3), 6.0),
        n3["polydisc"],
        ComplexLqBall(ComplexDim(4), 6.0),
    ]
    return asserted, exploratory


def cross_validation_matrix():
    n2 = bodies_n2()
    n3 = bodies_n3()
    return [
        n2["ball"], n2["ell_1_2"], ComplexLqBall(ComplexDim(2), 2.0),
        n2["lq3"], n2["lq4"], n2["pert_a"],
        n3["ball"], n3["ell_1_1.5_2"], n3["lq2"], n3["lq3"], n3["lq4"], n3["pert"],
    ]


def closed_form_volumes():
    """(body, exact volume) for the closed-form oracle check."""
    out = []
    for n, names in ((2, bodies_n2()), (3, bodies_n3())):
        fact = math.factorial(n)
        for key, body in names.items():
            if isinstance(body, EuclideanBall):
                out.append((body, math.pi ** n * body.radius ** (2 * n) / fact))
            elif isinstance(body, ComplexLqBall) and math.isinf(body.q):
                out.append((body, (math.pi * body.scale ** 2) ** n))
            elif isinstance(body, ComplexEllipsoid):
                prod = 1.0
                for a in body.semiaxes:
                    prod *= a * a
                out.append((body, math.pi ** n * prod / fact))
    return out


# --- criterion plumbing ------------------------------------------------------


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: float
    bound: float
    comparison: str  # "<=" or ">="
    details: dict = field(default_factory=dict)
    warnings: tuple = ()
    seconds: float = 0.0

    def row(self):
        return [
            self.name,
            f"{self.measured:.6e}",
            f"{self.comparison} {self.bound:.3e}",
            "pass" if self.passed else "FAIL",
        ]

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            "bound": self.bound,
            "comparison": self.comparison,
            "warnings": list(self.warnings),
            "details": self.details,
        }


# --- criteria ----------------------------------------------------------------


def criterion_golden_transform(ctx):
    """C1: transformed Euclidean norm at exponent 2n-2 equals the closed form."""
    worst = 0.0
    details = {}
    for n in (2, 3):
        ball = EuclideanBall(ComplexDim(n), 1.0)
        ft = ctx.ft(ball, float(2 * n - 2))
        xi = np.zeros((1, 2 * n))
        xi[0, 0] = 1.0
        value = float(ft.evaluate(xi)[0])
        exact = euclidean_ft_constant(2 * n, 2 * n - 2)
        rel = abs(value / exact - 1.0)
        details[f"n={n}"] = {"value": value, "exact": exact, "relative_error": rel}
        worst = max(worst, rel)
    return CriterionResult("golden_transform", worst <= 1e-10, worst, 1e-10, "<=", details)


def criterion_section_cross_validation(ctx):
    """C2: direct vs Fourier section volumes over 64 directions per body."""
    cfg = ctx.config
    worst = 0.0
    details = {}
    warnings = []
    for body in cross_validation_matrix():
        n = body.dim.n
        rng = philox(ctx.config.seed + 100 + n)
        dirs = sect.unit_directions(rng.normal(size=(64, 2 * n)))
        direct = sect.section_values(body, dirs, config=cfg)
        ft = ctx.ft(body, float(2 * n - 2))
        fourier, _ = sect.section_volume_fourier(body, dirs, ft)
        rel = float(np.max(np.abs(fourier / direct - 1.0)))
        details[body.label] = {"max_relative_discrepancy": rel,
                               "tail_ratio": ft.tail_ratio}
        warnings.extend(ft.warnings)
        worst = max(worst, rel)
    return CriterionResult("section_cross_validation", worst <= 5e-3, worst, 5e-3, "<=",
                           details, tuple(warnings))


def criterion_parseval(ctx):
    """C3: pairing identity; golden value at n=2, mixed pairs with decreasing error."""
    d = ComplexDim(2)
    ball = EuclideanBall(d, 1.0)
    golden = parseval_check(ball, ball, 2.0, context=ctx)
    exact = 32.0 * math.pi ** 6
    golden_rel = max(
        golden.relative_error,
        abs(golden.lhs / exact - 1.0),
        abs(golden.rhs / exact - 1.0),
    )
    details = {"golden": {"lhs": golden.lhs, "rhs": golden.rhs,
                          "relative_error": golden.relative_error}}
    warnings = list(golden.warnings)
    # a ball pair measures only the rule's error on the other body's rho^2
    # (lambda_j(N, p) lambda_j(N, N - p) = (2 pi)^N leaves only j = 0); the
    # pair without a ball measures truncation
    mixed_pairs = [
        (ComplexEllipsoid((1.0, 2.0)), ball),
        (ComplexLqBall(d, 3.0), ball),
        (ComplexEllipsoid((1.0, 2.0)), ComplexLqBall(d, 3.0)),
    ]
    worst_mixed = 0.0
    monotone = True
    for K, L in mixed_pairs:
        errs = []
        for jm in (12, 16, 20):
            res = parseval_check(K, L, 2.0, context=ctx, jmax=jm)
            errs.append(res.relative_error)
            warnings.extend(res.warnings)
        details[f"{K.label}|{L.label}"] = {"relative_errors_j12_16_20": errs}
        worst_mixed = max(worst_mixed, errs[1])
        monotone = monotone and errs[0] > errs[1] > errs[2]
    details["strictly_decreasing"] = monotone
    passed = golden_rel <= 1e-10 and worst_mixed <= theorems.PARSEVAL_BOUND and monotone
    measured = max(golden_rel, worst_mixed)
    return CriterionResult("parseval", passed, measured, theorems.PARSEVAL_BOUND, "<=", details,
                           tuple(warnings))


def criterion_positivity(ctx):
    """C4: sign of the exponent-2 transform over refined grids."""
    asserted, exploratory = positivity_matrix()
    details = {}
    warnings = []
    worst_ratio = math.inf
    passed = True
    for body in asserted:
        res = positivity_check(body, context=ctx)
        ratio = res.min_value / abs(res.max_value)
        worst_ratio = min(worst_ratio, ratio)
        passed = passed and bool(res.passed)
        details[body.label] = {"min": res.min_value, "max": res.max_value,
                               "ratio": ratio, "passed": res.passed}
        warnings.extend(res.warnings)
    for body in exploratory:
        res = positivity_check(body, context=ctx)
        details[f"exploratory:{body.label}"] = {
            "min": res.min_value, "max": res.max_value,
            "ratio": res.min_value / abs(res.max_value),
            "warnings": list(res.warnings),
        }
    return CriterionResult("positivity", passed, worst_ratio, theorems.POSITIVITY_BOUND, ">=",
                           details, tuple(warnings))


def _pair_sweep(name, check, ctx):
    """One pair check over the ordered pair sweep; zero violations."""
    pairs = sweep_pairs()
    fails = []
    worst = math.inf
    for K, L in pairs:
        rep = check(K, L, context=ctx)
        worst = min(worst, rep.margin + rep.tol)
        if not rep.passed:
            fails.append((K.label, L.label, rep.margin, rep.tol))
    details = {"pair_count": len(pairs), "violations": fails,
               "min_margin_plus_tol": worst}
    return CriterionResult(name, not fails, worst, 0.0, ">=", details)


def criterion_stability_sweep(ctx):
    """C5: stability comparison over the ordered pair sweep; zero violations."""
    return _pair_sweep("stability_sweep", stability_verify, ctx)


def criterion_separation(ctx):
    """C6: separation bound; the scaled-ball pair at n=2 attains equality."""
    d2, d3 = ComplexDim(2), ComplexDim(3)
    eq = separation_verify(EuclideanBall(d2, 1.0), EuclideanBall(d2, 1.2), context=ctx)
    details = {"equality_case": eq.to_dict()}
    passed = abs(eq.margin) <= 1e-9 and not eq.degenerate
    others = [
        (EuclideanBall(d3, 1.0), EuclideanBall(d3, 1.2)),
        (EuclideanBall(d2, 0.8), ComplexEllipsoid((1.0, 1.5))),
        (ComplexLqBall(d2, 2.0, 0.9), EuclideanBall(d2, 1.05)),
        (EuclideanBall(d3, 0.9), ComplexEllipsoid((1.1, 1.2, 1.3))),
    ]
    for K, L in others:
        rep = separation_verify(K, L, context=ctx)
        details[f"{K.label}|{L.label}"] = rep.to_dict()
        passed = passed and rep.passed and not rep.degenerate
    return CriterionResult("separation", passed, abs(eq.margin), 1e-9, "<=", details)


def criterion_corollary_sweep(ctx):
    """C7: two-sided comparison over the same pairs, both orderings."""
    return _pair_sweep("corollary_sweep", corollary1_verify, ctx)


def criterion_gamma(ctx):
    """C8: Gamma(n)^{1/n} <= n^{(n-1)/n} for n = 1..170."""
    rows = gamma_lemma_check(170)
    strict = min(r.log_margin for r in rows[1:])
    eq = abs(rows[0].log_margin)
    passed = all(r.passed for r in rows)
    details = {"n1_equality_log_margin": eq, "min_strict_log_margin": strict}
    return CriterionResult("gamma_inequality", passed, strict, 0.0, ">=", details)


def criterion_volume_oracles(ctx):
    """C9: polar-formula volumes vs Monte Carlo, plus closed-form golden values."""
    cfg = ctx.config
    details = {}
    passed = True
    worst_z = 0.0
    all_bodies = list(bodies_n2().values()) + list(bodies_n3().values())
    for i, body in enumerate(all_bodies):
        vq, verr = ctx.volume(body)
        mc = mc_volume(body, cfg.mc_samples, cfg.seed + 1000 + i)
        dev = abs(vq - mc.estimate)
        bound = 3.0 * mc.std_error + cfg.tol_multiplier * verr
        z = dev / mc.std_error
        worst_z = max(worst_z, z)
        ok = dev <= bound
        passed = passed and ok
        details[body.label] = {"quadrature": vq, "mc": mc.estimate,
                               "mc_std_error": mc.std_error, "z": z, "passed": ok}
    worst_rel = 0.0
    for body, exact in closed_form_volumes():
        vq, _ = ctx.volume(body)
        rel = abs(vq / exact - 1.0)
        worst_rel = max(worst_rel, rel)
        ok = rel <= 1e-3
        passed = passed and ok
        details[f"closed_form:{body.label}"] = {"quadrature": vq, "exact": exact,
                                                "relative_error": rel, "passed": ok}
    details["worst_mc_z"] = worst_z
    return CriterionResult("volume_oracles", passed, worst_rel, 1e-3, "<=", details)


def criterion_structural(ctx):
    """C10: randomized structural identities at 1e-10 relative."""
    cfg = ctx.config
    rng = philox(ctx.config.seed + 10)
    samples2 = list(bodies_n2().values())
    samples3 = list(bodies_n3().values())
    worst = 0.0
    details = {}

    # homogeneity and rotation invariance: 1000 trials each across the matrix,
    # the worst values of the validator's own checks
    hom = rot = 0.0
    matrix = samples2 + samples3
    for i, body in enumerate(matrix):
        checks = validate(body, 1000 // len(matrix), cfg.seed + 2000 + i).checks
        hom = max(hom, checks["homogeneity"].worst)
        rot = max(rot, checks["rotation_invariance"].worst)
    details["homogeneity"] = hom
    details["rotation_invariance"] = rot
    worst = max(worst, hom, rot)

    # section invariance along the complex line: xi vs cos t xi + sin t J xi,
    # 1000 trials drawn in turn for each body, then evaluated per body
    bodies_cycle = [samples2[0], samples2[9], samples2[12], samples3[2]]
    pairs = [([], []) for _ in bodies_cycle]
    for trial in range(1000):
        N = bodies_cycle[trial % len(bodies_cycle)].dim.N
        xi = sect.unit_directions(rng.normal(size=N))[0]
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        first, turned = pairs[trial % len(bodies_cycle)]
        first.append(xi)
        turned.append(math.cos(t) * xi + math.sin(t) * complex_structure(xi))
    jline = 0.0
    for body, (first, turned) in zip(bodies_cycle, pairs):
        v1 = sect.section_values(body, first, config=cfg, scan=True)
        v2 = sect.section_values(body, turned, config=cfg, scan=True)
        jline = max(jline, float(np.max(np.abs(v2 / v1 - 1.0))))
    details["jline_section_invariance"] = jline
    worst = max(worst, jline)

    # scaling covariance: volume r^{2n}, sections r^{2n-2}, transform r^p
    # (light rules: levels below the configured ones, phases from the body;
    # each body's own volume computed once)
    volsc = sectsc = 0.0
    light_level = {2: 64, 3: 24}
    light = []
    for body in matrix:
        rule = sect.radial_power_rule(light_level[body.dim.n], body)
        light.append((body, rule, sect.volume(body, rule=rule)))
    for k in range(1000):
        body, rule, v1 = light[k % len(light)]
        n = body.dim.n
        r = float(rng.uniform(0.5, 2.0))
        v2 = sect.volume(body.scaled(r), rule=rule)
        volsc = max(volsc, abs(v2 / (r ** (2 * n) * v1) - 1.0))
        if k % 10 == 0:
            xi = sect.unit_directions(rng.normal(size=2 * n))
            s1 = sect.section_values(body, xi, config=cfg, scan=True)[0]
            s2 = sect.section_values(body.scaled(r), xi, config=cfg, scan=True)[0]
            sectsc = max(sectsc, abs(s2 / (r ** (2 * n - 2) * s1) - 1.0))
    details["volume_scaling"] = volsc
    details["section_scaling"] = sectsc
    worst = max(worst, volsc, sectsc)

    ftsc = 0.0
    for body in (samples2[0], samples2[9]):
        r = 1.37
        p = 2.0
        ft1 = ctx.ft(body, p, jmax=8)
        ft2 = ctx.ft(body.scaled(r), p, jmax=8)
        xs = sect.unit_directions(rng.normal(size=(500, body.dim.N)))
        ftsc = max(ftsc, float(np.max(np.abs(ft2.evaluate(xs) / (r ** p * ft1.evaluate(xs)) - 1.0))))
    details["transform_scaling"] = ftsc
    worst = max(worst, ftsc)

    return CriterionResult("structural_invariants", worst <= 1e-10, worst, 1e-10, "<=", details)


CRITERIA = {
    "golden_transform": criterion_golden_transform,
    "section_cross_validation": criterion_section_cross_validation,
    "parseval": criterion_parseval,
    "positivity": criterion_positivity,
    "stability_sweep": criterion_stability_sweep,
    "separation": criterion_separation,
    "corollary_sweep": criterion_corollary_sweep,
    "gamma_inequality": criterion_gamma,
    "volume_oracles": criterion_volume_oracles,
    "structural_invariants": criterion_structural,
}


@dataclass
class SuiteResult:
    """Criterion results; ``timings`` holds every timing, ``to_dict`` and the rows none."""

    results: list
    wall_seconds: float

    def outcomes(self):
        """(passed, warnings) of each criterion: they decide the exit code."""
        return [(r.passed, r.warnings) for r in self.results]

    @property
    def exit_code(self):
        return exit_code(self.outcomes())

    def summary_rows(self):
        return [r.row() for r in self.results]

    def to_dict(self):
        return {
            "exit_code": self.exit_code,
            "criteria": [r.to_dict() for r in self.results],
        }

    def timings(self):
        return {
            "wall_seconds": round(self.wall_seconds, 3),
            "criterion_seconds": {r.name: round(r.seconds, 3) for r in self.results},
        }


def run_suite(config: RunConfig | None = None, names=None, echo=print) -> SuiteResult:
    """Run the acceptance criteria (all, or a subset by name)."""
    cfg = config or default_config()
    ctx = VerificationContext(cfg)
    if names is not None:
        unknown = set(names) - set(CRITERIA)
        if unknown:
            raise InvalidInputError(
                f"unknown criteria {sorted(unknown)}; known: {sorted(CRITERIA)}"
            )
        selected = [CRITERIA[name] for name in names]
    else:
        selected = list(CRITERIA.values())
    t0 = time.perf_counter()
    results = []
    for crit in selected:
        t1 = time.perf_counter()
        res = replace(crit(ctx), seconds=time.perf_counter() - t1)
        results.append(res)
        if echo:
            status = "pass" if res.passed else "FAIL"
            echo(f"[{status}] {res.name}: measured {res.measured:.3e} "
                 f"{res.comparison} {res.bound:.1e} ({res.seconds:.1f}s)")
    return SuiteResult(results, time.perf_counter() - t0)
