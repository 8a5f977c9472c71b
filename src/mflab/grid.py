"""Periodic lattice discretization of a d-dimensional box and discrete calculus.

All inner products and norms carry the cell volume h^d so that discrete
quantities converge to their continuum counterparts under refinement.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DomainError


@dataclass(frozen=True)
class LatticeGrid:
    """Periodic box [0, L)^d sampled at M points per axis, spacing h = L/M."""

    d: int
    m: int
    length: float

    @property
    def h(self) -> float:
        return self.length / self.m

    @property
    def n_sites(self) -> int:
        return self.m ** self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.h ** self.d

    def axis_coordinates(self) -> np.ndarray:
        """Site coordinates x_j = j*h along one axis."""
        return np.arange(self.m) * self.h


def build_grid(d: int, m: int, length: float) -> LatticeGrid:
    if d not in (1, 2, 3):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {d}")
    if m < 2:
        raise ConfigError(f"sites per axis must be >= 2, got {m}")
    if not (length > 0):
        raise ConfigError(f"box length must be positive, got {length}")
    return LatticeGrid(d=int(d), m=int(m), length=float(length))


@dataclass
class WaveFunction:
    """Single-particle complex amplitudes on the lattice, stored flat."""

    grid: LatticeGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        if amps.size != self.grid.n_sites:
            raise DimensionError(
                f"amplitude vector has {amps.size} entries, grid has "
                f"{self.grid.n_sites} sites"
            )
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.sqrt(self.grid.cell_volume * np.sum(np.abs(self.amplitudes) ** 2)))

    def inner(self, other: "WaveFunction") -> complex:
        """h-weighted inner product <self, other> (antilinear in self)."""
        if other.grid != self.grid:
            raise DimensionError("wavefunctions live on different grids")
        return complex(self.grid.cell_volume * np.vdot(self.amplitudes, other.amplitudes))


def normalize(psi: WaveFunction) -> WaveFunction:
    """psi scaled to unit norm; a DomainError unless its norm is finite and positive."""
    n = psi.norm()
    if not (0 < n < np.inf):
        raise DomainError(f"cannot normalize a state of norm {n!r}")
    return WaveFunction(psi.grid, psi.amplitudes / n)


def _laplacian_array(grid: LatticeGrid, arr: np.ndarray) -> np.ndarray:
    """2d+1-point periodic stencil acting on a flat array."""
    a = arr.reshape(grid.shape)
    out = np.zeros_like(a)
    inv_h2 = 1.0 / grid.h ** 2
    for axis in range(grid.d):
        out += (np.roll(a, 1, axis=axis) + np.roll(a, -1, axis=axis) - 2.0 * a) * inv_h2
    return out.ravel()


def laplacian_apply(grid: LatticeGrid, psi: WaveFunction) -> WaveFunction:
    """Apply the discrete Laplacian; linear and self-adjoint in the h-weighted product."""
    if psi.grid != grid:
        raise DimensionError("wavefunction does not live on the given grid")
    return WaveFunction(grid, _laplacian_array(grid, psi.amplitudes))


def convolve(grid: LatticeGrid, v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Periodic convolution (v*rho)(x) = h^d sum_y v(x-y) rho(y), via FFT."""
    v = np.asarray(v, dtype=np.float64).ravel()
    rho = np.asarray(rho, dtype=np.float64).ravel()
    if v.size != grid.n_sites or rho.size != grid.n_sites:
        raise DimensionError(
            f"convolve expects vectors of {grid.n_sites} sites, got {v.size} and {rho.size}"
        )
    fv = np.fft.fftn(v.reshape(grid.shape))
    return convolve_spectrum(grid, fv, rho.reshape(grid.shape)).ravel()


def grid_fft(a: np.ndarray, d: int, transform=np.fft.fft) -> np.ndarray:
    """fftn of a over its trailing d axes (ifftn with transform=np.fft.ifft).

    One 1-D call per axis, last axis first as np.fft.fftn orders them, so the
    result is bitwise that of fftn without its per-call argument handling,
    which dominates at a few lattice points.
    """
    for axis in range(-1, -d - 1, -1):
        a = transform(a, axis=axis)
    return a


def convolve_spectrum(grid: LatticeGrid, fv: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """v*rho from fv = fftn(v), over the trailing grid axes of rho.

    rho is shaped like the grid, or (S, *grid.shape) for a batch; fv broadcasts.
    """
    spectrum = fv * grid_fft(rho, grid.d)
    return grid.cell_volume * grid_fft(spectrum, grid.d, np.fft.ifft).real


def separable_profile(grid: LatticeGrid, prof: np.ndarray) -> np.ndarray:
    """prof(x_1) * ... * prof(x_d) from one axis profile, flattened row-major."""
    return functools.reduce(np.multiply.outer, [prof] * grid.d).ravel()


# --- initial single-particle states ---------------------------------------

def gaussian_packet(grid: LatticeGrid, center: float | None = None,
                    width: float | None = None) -> WaveFunction:
    """Normalized periodic Gaussian packet centered at `center` on every axis."""
    L = grid.length
    c = L / 2 if center is None else center
    w = L / 8 if width is None else width
    x = grid.axis_coordinates()
    # minimal-image distance on the circle
    dx = (x - c + L / 2) % L - L / 2
    with np.errstate(all="ignore"):  # a non-finite profile fails in normalize
        amps = separable_profile(grid, np.exp(-dx ** 2 / (2.0 * w ** 2)))
    return normalize(WaveFunction(grid, amps.astype(np.complex128)))


def uniform_state(grid: LatticeGrid) -> WaveFunction:
    amps = np.ones(grid.n_sites, dtype=np.complex128)
    return normalize(WaveFunction(grid, amps))


def plane_wave(grid: LatticeGrid, mode: int = 1) -> WaveFunction:
    """e^{2 pi i mode x / L} along the first axis, unit h-weighted norm."""
    x = grid.axis_coordinates()
    phase = np.exp(2j * np.pi * mode * x / grid.length)
    return normalize(WaveFunction(grid, np.repeat(phase, grid.m ** (grid.d - 1))))
