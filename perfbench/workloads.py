"""Seeded inputs for the three benchmark workloads.

Each generator maps (seed, tiny) to plain JSON data: body specs in cxsect's
own schema ({"n", "kind", "params"}), index pairs into the body list, and
unit directions.  The program under test sees only this data, never the
seed.  The seed draws scales, shape parameters, pair orders and directions;
the per-kind and per-n mix of every workload is fixed, so all seeds ask for
comparable work.

Relative errors of section values, transforms and volumes do not change
under scaling, so scales are drawn over a wide range.  Shape parameters that
set the size of an accuracy metric (the lq exponent in ``fourier_n3``, the
body matrix in ``volume_oracles``) are fixed at the suite's values, so that
``max_rel_err`` measures the same quantity for every seed.
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("fourier_n3", "compare_sweep", "volume_oracles")

# the suite's Monte Carlo seed base (RunConfig.seed + 1000)
MC_SEED_BASE = 20240 + 817 + 1000


def _rng(seed, workload):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _unit_rows(rng, count, N):
    x = rng.normal(size=(count, N))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _lattice_dirs(rng, n, m):
    """Directions whose moduli form the lattice {sqrt(k/m) : k_1+..+k_n = m},
    vertices and edges included, with seeded phases.  Moduli-only bodies are
    worst resolved at the simplex vertices, so these are always scanned."""
    comps = [()]
    for _ in range(n - 1):
        comps = [c + (k,) for c in comps for k in range(m + 1 - sum(c))]
    comps = [c + (m - sum(c),) for c in comps]
    mods = np.sqrt(np.array(comps, dtype=float) / m)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=mods.shape)
    out = np.empty((mods.shape[0], 2 * n))
    out[:, 0::2] = mods * np.cos(phases)
    out[:, 1::2] = mods * np.sin(phases)
    return out


def ball(n, r):
    return {"n": n, "kind": "euclidean", "params": {"radius": float(r)}}


def lq(n, q, s):
    return {"n": n, "kind": "lq", "params": {"q": q if q == "inf" else float(q), "scale": float(s)}}


def ellipsoid(axes):
    return {"n": len(axes), "kind": "ellipsoid", "params": {"semiaxes": [float(a) for a in axes]}}


def perturbed(n, r, terms):
    return {"n": n, "kind": "perturbed",
            "params": {"radius": float(r), "terms": [[int(j), int(l), float(c)] for j, l, c in terms]}}


def fourier_n3(seed, tiny=False):
    """Both section routes and the exponent-2 sign scan at n = 3.

    Exists because the harmonic expansion (``ft_norm_power`` on the
    1,075,648-node product rule, about 8 s per transform) and the basis
    construction in set-up do almost all of the work; section grids do
    little.  The lq exponent stays at 4, the largest the suite asserts at
    n = 3 and its largest route discrepancy; the ellipsoid keeps the suite's
    semiaxis ratios (1, 1.5, 2) because its section has a closed form.  The
    sign scan at exponent 2 runs on the lq body only: each further transform
    adds about 9 s of the same expansion work to every round, which the
    benchmark's time budget does not allow.
    """
    rng = _rng(seed, "fourier_n3")
    s = rng.uniform(0.8, 1.25, size=3)
    c = rng.uniform(0.02, 0.06)
    bodies = [
        lq(3, 4.0, s[0]),
        ellipsoid([s[1] * a for a in (1.0, 1.5, 2.0)]),
        perturbed(3, s[2], [(2, 0, c)]),
    ]
    m, extra = (2, 2) if tiny else (4, 17)
    dirs = np.vstack([_lattice_dirs(rng, 3, m), _unit_rows(rng, extra, 6)])
    return {"bodies": bodies, "dirs": dirs.tolist(), "route_p": 4.0, "sign_p": 2.0,
            "sign_bodies": [0]}


def compare_sweep(seed, tiny=False):
    """Stability, two-sided corollary and separation over ordered pairs that
    share one VerificationContext, as in suite criteria C5-C7.

    Exists because the direct section route does the work here: scan-level
    ``section_values`` over the shared direction grids, ``refine_extremum``
    and the perturbed radial function.  The perturbed n = 3 pair forces the
    3,600-direction phase grid; no harmonic expansion runs.
    """
    rng = _rng(seed, "compare_sweep")
    u = rng.uniform
    bodies = [
        ball(2, u(0.8, 1.25)),                                   # 0
        lq(2, u(1.0, 6.0), u(0.8, 1.25)),                        # 1
        lq(2, "inf", u(0.8, 1.25)),                              # 2
        ellipsoid(u(0.8, 1.25) * rng.permutation([1.0, u(1.0, 3.0)])),  # 3
        perturbed(2, u(0.8, 1.25), [(2, 0, u(0.02, 0.06)), (4, 1, u(0.01, 0.02))]),  # 4
        ball(3, u(0.8, 1.25)),                                   # 5
        lq(3, u(1.0, 4.0), u(0.8, 1.25)),                        # 6
        lq(3, "inf", u(0.8, 1.25)),                              # 7
        ellipsoid(u(0.8, 1.25) * np.array([1.0, u(1.0, 3.0), u(1.0, 3.0)])),  # 8
        perturbed(3, u(0.8, 1.25), [(2, 0, u(0.02, 0.06))]),     # 9
    ]
    # mostly n = 2 pairs, some moduli-only n = 3 pairs, one perturbed n = 3 pair
    kinds = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (1, 4),
             (5, 6), (7, 8), (6, 8), (9, 6)]
    if tiny:
        kinds = [(0, 1), (4, 0), (5, 6), (9, 6)]
    pairs = [list(p) if rng.random() < 0.5 else [p[1], p[0]] for p in kinds]

    # separation: L dominates K in every direction; the first pair is the
    # scaled-ball equality case
    sep = []
    for n in (2, 3):
        r = u(0.8, 1.0)
        sep.append([ball(n, r), ball(n, r * u(1.1, 1.3))])
    sep.append([ball(2, u(0.7, 0.9)), ellipsoid([u(1.0, 1.1), u(1.3, 1.7)])])
    sep.append([lq(2, u(1.0, 2.0), u(0.8, 0.9)), ball(2, u(1.05, 1.15))])
    sep.append([ball(3, u(0.8, 0.95)), ellipsoid(u(1.05, 1.4, size=3))])
    if tiny:
        sep = sep[:1]
    return {"bodies": bodies, "pairs": pairs, "separation": sep}


# the suite's body matrix (cxsect.suite.bodies_n2 / bodies_n3)
_MATRIX = (
    [ball(2, 1.0), ball(2, 1.3), lq(2, 1.0, 1.0), lq(2, 1.5, 1.0), lq(2, 2.0, 0.9),
     lq(2, 3.0, 1.0), lq(2, 4.0, 1.0), lq(2, 6.0, 1.0), lq(2, "inf", 1.0),
     ellipsoid([1.0, 2.0]), ellipsoid([1.0, 3.0]), ellipsoid([1.4, 0.9]),
     perturbed(2, 1.0, [(2, 0, 0.06), (4, 1, 0.02)]), perturbed(2, 1.0, [(2, 2, 0.05)])]
    + [ball(3, 1.0), ball(3, 1.2), ellipsoid([1.0, 1.5, 2.0]), ellipsoid([1.0, 1.0, 3.0]),
       lq(3, 1.0, 1.0), lq(3, 2.0, 1.0), lq(3, 3.0, 1.0), lq(3, 4.0, 1.0), lq(3, "inf", 1.0),
       perturbed(3, 1.0, [(2, 0, 0.05)])]
)


def _scaled(spec, s):
    p = dict(spec["params"])
    if "radius" in p:
        p["radius"] *= s
    elif "scale" in p:
        p["scale"] *= s
    else:
        p["semiaxes"] = [a * s for a in p["semiaxes"]]
    return {**spec, "params": p}


def volume_oracles(seed, tiny=False):
    """Polar volumes, Monte Carlo, closed forms and normalized inradii over the
    suite's body matrix, plus the structural criterion's single-direction
    section and norm calls.

    Exists because it uses ``bodies`` and ``sections`` unlike the sweep:
    millions of points through ``norm`` and ``mc_volume``, and many tiny calls
    where per-call input checks and ``hyperplane_basis`` dominate.  It
    includes the n = 3 perturbed volume (4.3M-node torus rule, twice).  Body
    shapes are the suite's and only scales are drawn: Monte Carlo hit counts
    are then those of the suite's fixed streams, whatever the seed.
    """
    rng = _rng(seed, "volume_oracles")
    matrix = _MATRIX if not tiny else [_MATRIX[0], _MATRIX[8], _MATRIX[12], _MATRIX[22]]
    bodies = [_scaled(b, rng.uniform(0.8, 1.25)) for b in matrix]
    # complex-line invariance: the structural criterion's body cycle
    cycle = [0, 9, 12, 16] if not tiny else [0, 2]
    trials = 500 if not tiny else 8
    jline = []
    for k in range(trials):
        b = cycle[k % len(cycle)]
        N = 2 * bodies[b]["n"]
        jline.append([b, _unit_rows(rng, 1, N)[0].tolist(), float(rng.uniform(0.0, 2.0 * math.pi))])
    # homogeneity and rotation invariance, one point per norm call
    norms = []
    for k in range(trials):
        b = k % len(bodies)
        N = 2 * bodies[b]["n"]
        lam = float(rng.uniform(0.2, 2.5) * rng.choice([-1.0, 1.0]))
        norms.append([b, _unit_rows(rng, 1, N)[0].tolist(), lam,
                      float(rng.uniform(0.0, 2.0 * math.pi))])
    return {"bodies": bodies, "mc_samples": 10_000 if tiny else 500_000,
            "mc_seeds": [MC_SEED_BASE + i for i in range(len(bodies))],
            "jline": jline, "norms": norms}


def generate(workload, seed, tiny=False):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return globals()[workload](seed, tiny)
