"""Run configuration: quadrature levels, truncation degrees, grids, seeds.

A ``RunConfig`` is a plain value object; every report echoes it verbatim so
results are reproducible from the report alone.  Missing fields take the
documented defaults.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import InvalidInputError

# direct-section rule levels per subspace dimension m = 2n-2 (exactness 2L-1);
# the m = 2 rule is one node of weight 2 pi at every level, so its entry is
# only echoed
_PRODUCT_LEVELS = {2: 24, 4: 32, 6: 16, 8: 6}
# torus-reduced levels per complex dimension n (polar volumes, radial scans)
_REDUCED_LEVELS = {2: 320, 3: 160, 4: 48}
# expansion truncation per real dimension N
_JMAX = {4: 16, 6: 12, 8: 6}
# direction-grid resolution per complex dimension n
_MODULI_RES = {2: 48, 3: 14, 4: 6}
_PHASE_RES = {2: 16, 3: 4, 4: 4}


_TABLES = ("product_levels", "reduced_levels", "jmax", "moduli_res", "phase_res")


def philox(seed):
    """Philox generator keyed by ``seed`` mod 2**64, so that derived keys such
    as seed + salt stay valid; a seed below 2**64 is its own key."""
    return np.random.Generator(np.random.Philox(key=np.uint64(int(seed) % 2 ** 64)))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


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


def _intkeys(name, d):
    if not isinstance(d, dict):
        raise InvalidInputError(f"{name} must be an object of positive ints")
    try:
        return {int(k): v for k, v in d.items()}
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} keys must be integers, got {sorted(d)}") from None


@dataclass(frozen=True)
class RunConfig:
    product_levels: dict = field(default_factory=lambda: dict(_PRODUCT_LEVELS))
    reduced_levels: dict = field(default_factory=lambda: dict(_REDUCED_LEVELS))
    jmax: dict = field(default_factory=lambda: dict(_JMAX))
    moduli_res: dict = field(default_factory=lambda: dict(_MODULI_RES))
    phase_res: dict = field(default_factory=lambda: dict(_PHASE_RES))
    refine_halvings: int = 3
    seed: int = 20240 + 817
    mc_samples: int = 10_000_000
    tol_multiplier: float = 3.0
    tail_warn: float = 1e-3
    output_dir: str = "reports"

    def __post_init__(self):
        for name in _TABLES:
            vals = getattr(self, name)
            if not (isinstance(vals, dict)
                    and all(_is_int(k) and _is_int(v) and v >= 1 for k, v in vals.items())):
                raise InvalidInputError(f"{name} must be an object of positive ints")
        for name in ("refine_halvings", "mc_samples", "seed"):
            v = getattr(self, name)
            if not (_is_int(v) and v >= 0):
                raise InvalidInputError(f"{name} must be a non-negative int")
        if self.seed >= 2 ** 64:
            raise InvalidInputError("seed must be below 2**64")
        if self.mc_samples < 10_000:  # mc_volume's own floor, checked before any criterion
            raise InvalidInputError("mc_samples must be at least 10000")
        for name in ("tol_multiplier", "tail_warn"):
            v = getattr(self, name)
            # an int or a float only, since reports echo the value as given
            if not (isinstance(v, (int, float)) and math.isfinite(_real(v, name)) and v > 0):
                raise InvalidInputError(f"{name} must be a finite positive number")
        if not isinstance(self.output_dir, str):
            raise InvalidInputError("output_dir must be a string")

    # --- accessors ------------------------------------------------------

    def product_level(self, m):
        try:
            return self.product_levels[m]
        except KeyError:
            raise InvalidInputError(f"no product level configured for m={m}") from None

    def reduced_level(self, n):
        try:
            return self.reduced_levels[n]
        except KeyError:
            raise InvalidInputError(f"no reduced level configured for n={n}") from None

    def jmax_for(self, N):
        try:
            return self.jmax[N]
        except KeyError:
            raise InvalidInputError(f"no jmax configured for N={N}") from None

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
        merged = {}
        for key, value in data.items():
            if key in _TABLES:
                base = dict(getattr(cls(), key))
                base.update(_intkeys(key, value))
                merged[key] = base
            else:
                merged[key] = value
        return cls(**merged)

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInputError(f"unreadable config {path}: {exc}") from exc


def default_config() -> RunConfig:
    return RunConfig()
