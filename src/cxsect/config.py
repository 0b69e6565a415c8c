"""Run configuration: quadrature levels, truncation degrees, grids, seeds.

A ``RunConfig`` is a plain value object; every report echoes it so results
are reproducible from the report alone.  Missing fields take the documented
defaults, and a table given in part keeps the defaults of the keys it leaves
out, whether it comes from JSON or from Python.  ``RunConfig.__post_init__``
completes and checks every configuration: a table key outside the admitted
dimensions, a grid resolution below 2 and an odd or over-cap ``jmax`` are
rejected when the configuration is built.

This module also holds the package's input rules for scalars: ``_integer``
is the one reader of integer parameters (an int, or a float of integral
value, never a bool), ``_real`` of real ones and ``_seed`` of seeds.
``COMPLEX_DIMS`` lists the admitted complex dimensions, and every default
table covers exactly those.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import InvalidInputError

# the admitted complex dimensions: the paper's n = 2, 3 and the exploratory
# n = 4 of the positivity scan (``bodies.ComplexDim`` checks it)
COMPLEX_DIMS = (2, 3, 4)
# Monte Carlo volumes take at least this many samples (``spherequad.mc_volume``)
MC_MIN_SAMPLES = 10_000

# The default tables.  Their keys are the admitted ones: each a function of
# an admitted complex dimension n.
_TABLES = {
    # the level L of the direct-section rule per subspace dimension m = 2n-2
    # (exactness 2L-1); the m = 2 rule is one node of weight 2 pi at every
    # level, so its entry is only echoed.  ``sections._section_rule`` lowers
    # L to the exact level (n-1)J + 1 of a body whose radial function is a
    # polynomial of degree J (a ball, a perturbed ball)
    "product_levels": {2: 24, 4: 32, 6: 16},
    # torus-reduced levels per complex dimension n (polar volumes, Parseval
    # pairings); ``sections.radial_power_rule`` lowers one to the exact
    # level of an integrand that is a polynomial (integer powers of balls and
    # perturbed balls), so an entry above that level changes nothing for it
    "reduced_levels": {2: 320, 3: 160, 4: 48},
    # expansion truncation per real dimension N
    "jmax": {4: 16, 6: 12, 8: 6},
    # direction-grid resolution per complex dimension n
    "moduli_res": {2: 48, 3: 14, 4: 6},
    "phase_res": {2: 16, 3: 4, 4: 4},
}
# a direction grid takes at least two steps along each axis; the levels and
# degrees at least one
_GRID_TABLES = ("moduli_res", "phase_res")
# the highest harmonic degree per real dimension N (``_check_degree``); see
# ``harmonics.invariant_harmonic_basis``
_MAX_DEGREE = {4: 24, 6: 22, 8: 12}


def philox(seed):
    """Philox generator keyed by ``seed`` mod 2**64, so that derived keys such
    as seed + salt stay valid; a seed below 2**64 is its own key."""
    return np.random.Generator(np.random.Philox(key=np.uint64(int(seed) % 2 ** 64)))


def _integer(value, what):
    """An integer parameter: an int, or a float of integral value (so 2.0 is
    2, and 2.5 is rejected rather than truncated)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InvalidInputError(f"{what} must be an integer, got {value!r}")


def _seed(value):
    """A seed: a non-negative integer (``_integer``).  A derived seed such as
    ``RunConfig.seed`` + salt may pass 2**64; ``philox`` keys it mod 2**64."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {value!r}")
    return seed


def _real(value, what):
    """A real parameter as a float: a real number, but not a bool (``true``
    is not a radius), not a string (``"1.5"`` is not a scale) and not an
    integer beyond the double range.  Finiteness and sign are left to the
    callers."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise InvalidInputError(f"{what} must be finite, got an integer "
                                    "beyond the double range") from None
    raise InvalidInputError(f"{what} must be finite and numeric, got {value!r}")


def _table(name, d):
    """A table as given, its keys and values read through ``_integer``; JSON
    keys, which are strings, are parsed as decimal integers first."""
    if not isinstance(d, dict):
        raise InvalidInputError(f"{name} must be an object of positive ints")
    try:
        keys = [int(k) if isinstance(k, str) else k for k in d]
    except ValueError:
        raise InvalidInputError(f"{name} keys must be integers, got {list(d)}") from None
    return {_integer(k, f"{name} key"): _integer(v, f"{name} entry")
            for k, v in zip(keys, d.values())}


def _check_degree(N, j):
    """A harmonic degree j at real dimension N: even, and at most N's cap."""
    if N not in _MAX_DEGREE:
        raise InvalidInputError(f"no harmonic basis for N={N}: supported are N in {tuple(_MAX_DEGREE)}")
    if j % 2 or not 0 <= j <= _MAX_DEGREE[N]:
        raise InvalidInputError(f"no harmonic basis for N={N}, j={j}: "
                                f"supported are even j <= {_MAX_DEGREE[N]}")


@dataclass(frozen=True)
class RunConfig:
    # each table as given; ``__post_init__`` completes it from ``_TABLES``
    product_levels: dict = field(default_factory=dict)
    reduced_levels: dict = field(default_factory=dict)
    jmax: dict = field(default_factory=dict)
    moduli_res: dict = field(default_factory=dict)
    phase_res: dict = field(default_factory=dict)
    refine_halvings: int = 3
    seed: int = 20240 + 817
    mc_samples: int = 10_000_000
    tol_multiplier: float = 3.0
    tail_warn: float = 1e-3
    output_dir: str = "reports"

    def __post_init__(self):
        # integers are read through ``_integer`` and stored as ints, so 7.0 is 7
        for name, default in _TABLES.items():
            table = _table(name, getattr(self, name))
            unknown = sorted(set(table) - set(default))
            if unknown:
                raise InvalidInputError(f"{name} keys must be among {sorted(default)}, "
                                        f"got {unknown}")
            least = 2 if name in _GRID_TABLES else 1
            low = {k: v for k, v in table.items() if v < least}
            if low:
                raise InvalidInputError(f"{name} entries must be >= {least}, got {low}")
            object.__setattr__(self, name, {**default, **table})
        for N, j in self.jmax.items():  # before any basis is built
            _check_degree(N, j)
        for name in ("refine_halvings", "mc_samples", "seed"):
            v = _integer(getattr(self, name), name)
            if v < 0:
                raise InvalidInputError(f"{name} must be a non-negative int")
            object.__setattr__(self, name, v)
        if self.seed >= 2 ** 64:
            raise InvalidInputError("seed must be below 2**64")
        if self.mc_samples < MC_MIN_SAMPLES:  # checked before any criterion runs
            raise InvalidInputError(f"mc_samples must be at least {MC_MIN_SAMPLES}")
        for name in ("tol_multiplier", "tail_warn"):
            v = getattr(self, name)
            # an int or a float only, since reports echo the value as given
            if not (isinstance(v, (int, float)) and math.isfinite(_real(v, name)) and v > 0):
                raise InvalidInputError(f"{name} must be a finite positive number")
        if not isinstance(self.output_dir, str):
            raise InvalidInputError("output_dir must be a string")

    # --- accessors ------------------------------------------------------

    def jmax_for(self, N):
        return self.jmax[N]

    def replace(self, **kw):
        data = self.to_dict()
        data.update(kw)
        return RunConfig(**data)

    # --- serialization ---------------------------------------------------

    def to_dict(self):
        d = asdict(self)
        return d

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise InvalidInputError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise InvalidInputError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, not JSON
            raise InvalidInputError(f"unreadable config {path}: {exc}") from exc
        return cls.from_dict(data)


def default_config() -> RunConfig:
    return RunConfig()
