"""Seeded sampling of the random interaction v = v1 + v2.

v2 is a finite Fourier sum with independent Gaussian mode coefficients, so
every realization is bounded. sample_field returns its even part, v(x) = v(-x):
the N-body pair term sees only the even part of v and the Hartree term
v * |psi|^2 all of it, so only an even v gives both dynamics one interaction.
A non-finite realization is a DomainError. Sampling is a pure function of
(spec, seed, grid): the generator is counter-based (Philox) and keyed by the
seed, and ensemble members derive their seeds through a fixed 64-bit mix so
results do not depend on execution order.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .grid import LatticeGrid, separable_profile

_MASK64 = (1 << 64) - 1


def mix_seed(base_seed: int, sample_index: int) -> int:
    """splitmix64 step: derive a per-sample seed from (base_seed, index)."""
    z = (base_seed + 0x9E3779B97F4A7C15 * (sample_index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class FieldSpec:
    """Deterministic base profile plus Gaussian mode spectrum sigma_1..sigma_K."""

    base: str = "zero"
    gaussian_mean: float = 0.0
    mode_stddevs: tuple[float, ...] = ()

    def __post_init__(self):
        if not all(s >= 0 for s in self.mode_stddevs):  # NaN fails too
            raise DomainError("mode standard deviations must be nonnegative")
        _parse_base(self.base)  # validate eagerly


@dataclass(frozen=True)
class RandomField:
    """One realization of the interaction on the lattice."""

    grid: LatticeGrid
    values: np.ndarray


def parse_finite(text: str, key: str) -> float:
    """float(text); a ConfigError naming key unless that is a finite number."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise ConfigError(f"key {key!r}: expected a finite number, got {text!r}")
    return val


_BASE_RE = re.compile(r"^\s*(\w+)\s*(?:\(\s*([^)]*)\))?\s*$")


def _parse_base(base: str) -> tuple[str, list[float]]:
    m = _BASE_RE.match(base)
    if not m:
        raise ConfigError(f"cannot parse field base preset {base!r}")
    name, args = m.group(1), m.group(2)
    params = [parse_finite(tok, "field.base") for tok in args.split(",")] if args else []
    if name == "zero":
        if params:
            raise ConfigError("'zero' base takes no parameters")
    elif name == "gaussian_bump":
        if len(params) != 2:
            raise ConfigError("gaussian_bump takes (amplitude, width)")
    elif name == "cosine":
        if len(params) != 2:
            raise ConfigError("cosine takes (amplitude, mode)")
    else:
        raise ConfigError(f"unknown field base preset {name!r}")
    return name, params


def _base_profile(base: str, grid: LatticeGrid) -> np.ndarray:
    name, params = _parse_base(base)
    if name == "zero":
        return np.zeros(grid.n_sites)
    x = grid.axis_coordinates()
    L = grid.length
    if name == "gaussian_bump":
        amplitude, width = params
        dx = (x + L / 2) % L - L / 2  # minimal-image distance to 0
        bump = np.exp(-dx ** 2 / (2.0 * np.float64(width) ** 2))  # flat if width^2 = inf
        return amplitude * separable_profile(grid, bump)
    # cosine(amplitude, mode)
    amplitude, mode = params
    return amplitude * separable_profile(grid, np.cos(2.0 * np.pi * mode * x / L))


def check_mode_count(spec: FieldSpec, grid: LatticeGrid) -> None:
    """Reject K >= M/2 Gaussian modes: the grid would alias them."""
    K = len(spec.mode_stddevs)
    if K >= grid.m / 2:
        raise DomainError(
            f"{K} Gaussian modes requested but K < M/2 = {grid.m / 2} is required "
            "(no aliased modes)"
        )


def sample_field(spec: FieldSpec, seed: int, grid: LatticeGrid) -> RandomField:
    """Draw one even, finite realization; bit-identical for identical
    (spec, seed, grid). A DomainError if a value is not finite."""
    check_mode_count(spec, grid)
    K = len(spec.mode_stddevs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below
        vals = (_base_profile(spec.base, grid) + spec.gaussian_mean).reshape(grid.shape)
        if K > 0:
            rng = np.random.Generator(np.random.Philox(key=seed & _MASK64))
            coeffs = rng.standard_normal((grid.d, K, 2))
            sig = np.asarray(spec.mode_stddevs)
            x = grid.axis_coordinates()
            ang = 2.0 * np.pi * np.arange(1, K + 1)[:, None] * x / grid.length
            for axis in range(grid.d):
                a, b = coeffs[axis].T
                axis_field = (sig[:, None] * (a[:, None] * np.cos(ang)
                                              + b[:, None] * np.sin(ang))).sum(axis=0)
                # (m, 1, ..., 1) broadcasts along `axis` of the grid's shape
                vals = vals + axis_field.reshape((grid.m,) + (1,) * (grid.d - 1 - axis))
        vals = vals.ravel()
        values = 0.5 * (vals + vals[grid.inversion()])
    if not np.all(np.isfinite(values)):
        raise DomainError(f"sampled field is not finite (max |v| = "
                          f"{float(np.max(np.abs(values)))!r})")
    values.setflags(write=False)
    return RandomField(grid=grid, values=values)
