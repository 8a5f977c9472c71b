"""Seeded sampling of the random interaction v = v1 + v2.

v2 is a finite Fourier sum with independent Gaussian mode coefficients, so
every realization is automatically bounded. Sampling is a pure function of
(spec, seed, grid): the generator is counter-based (Philox) and keyed by the
seed, and ensemble members derive their seeds through a fixed 64-bit mix so
results do not depend on execution order.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import LatticeGrid

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
    enforce_even: bool = True

    def __post_init__(self):
        if any(s < 0 for s in self.mode_stddevs):
            raise ConfigError("mode standard deviations must be nonnegative")
        _parse_base(self.base)  # validate eagerly


@dataclass(frozen=True)
class RandomField:
    """One realization of the interaction on the lattice."""

    grid: LatticeGrid
    values: np.ndarray
    seed: int
    spec: FieldSpec


_BASE_RE = re.compile(r"^\s*(\w+)\s*(?:\(\s*([^)]*)\))?\s*$")


def _parse_base(base: str) -> tuple[str, list[float]]:
    m = _BASE_RE.match(base)
    if not m:
        raise ConfigError(f"cannot parse field base preset {base!r}")
    name, args = m.group(1), m.group(2)
    params = [float(tok) for tok in args.split(",")] if args else []
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
        prof = np.exp(-dx ** 2 / (2.0 * width ** 2))
        out = prof
        for _ in range(grid.d - 1):
            out = np.multiply.outer(out, prof)
        return amplitude * out.ravel()
    # cosine(amplitude, mode)
    amplitude, mode = params
    prof = np.cos(2.0 * np.pi * mode * x / L)
    out = prof
    for _ in range(grid.d - 1):
        out = np.multiply.outer(out, prof)
    return amplitude * out.ravel()


def check_mode_count(spec: FieldSpec, grid: LatticeGrid) -> None:
    """Reject K >= M/2 Gaussian modes: the grid would alias them."""
    K = len(spec.mode_stddevs)
    if K >= grid.m / 2:
        raise ConfigError(
            f"{K} Gaussian modes requested but K < M/2 = {grid.m / 2} is required "
            "(no aliased modes)"
        )


def sample_field(spec: FieldSpec, seed: int, grid: LatticeGrid) -> RandomField:
    """Draw one realization; bit-identical for identical (spec, seed, grid)."""
    check_mode_count(spec, grid)
    K = len(spec.mode_stddevs)
    values = _base_profile(spec.base, grid) + spec.gaussian_mean
    if K > 0:
        rng = np.random.Generator(np.random.Philox(key=seed & _MASK64))
        coeffs = rng.standard_normal((grid.d, K, 2))
        sigmas = np.asarray(spec.mode_stddevs)
        x = grid.axis_coordinates()
        vals = values.reshape(grid.shape)
        for axis in range(grid.d):
            axis_field = np.zeros(grid.m)
            for k in range(1, K + 1):
                a_k, b_k = coeffs[axis, k - 1]
                ang = 2.0 * np.pi * k * x / grid.length
                axis_field += sigmas[k - 1] * (a_k * np.cos(ang) + b_k * np.sin(ang))
            shape = [1] * grid.d
            shape[axis] = grid.m
            vals = vals + axis_field.reshape(shape)
        values = vals.ravel()
    if spec.enforce_even:
        values = _symmetrize_even(values, grid)
    values.setflags(write=False)
    return RandomField(grid=grid, values=values, seed=int(seed), spec=spec)


def _symmetrize_even(values: np.ndarray, grid: LatticeGrid) -> np.ndarray:
    v = values.reshape(grid.shape)
    reflected = v
    for axis in range(grid.d):
        reflected = np.flip(np.roll(reflected, -1, axis=axis), axis=axis)
    return (0.5 * (v + reflected)).ravel()


def field_bound(field: RandomField) -> float:
    """Sup norm of the realization."""
    return float(np.max(np.abs(field.values)))
