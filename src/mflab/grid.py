"""Periodic lattice discretization of a d-dimensional box and discrete calculus.

All inner products and norms carry the cell volume h^d so that discrete
quantities converge to their continuum counterparts under refinement.
The unit-norm rule (check_unit), the same-grid one (check_grid), the evenness one
(LatticeGrid.is_even) and the one FFT (grid_fft) live here.
"""
from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

# how far from 1 the norm of a state that must be a unit vector may be
NORM_TOL = 1e-12


def check_unit(norm: float, what: str) -> None:
    """Reject a norm farther than NORM_TOL from 1; NaN fails too."""
    if not (abs(norm - 1.0) <= NORM_TOL):
        raise DomainError(f"{what} requires a unit state, norm = {norm!r}")


def check_grid(got: LatticeGrid, want: LatticeGrid, what: str) -> None:
    """Reject an object on another grid: two grids with the same number of sites
    are not interchangeable."""
    if got != want:
        raise DimensionError(f"{what} lives on {got}, not on {want}")


@dataclass(frozen=True)
class LatticeGrid:
    """Periodic box [0, L)^d sampled at M points per axis, spacing h = L/M:
    integers d in {1, 2, 3} and M >= 2, L > 0 and h in [2^-40, 2^40]."""

    d: int
    m: int
    length: float

    def __post_init__(self):
        if not (isinstance(self.d, numbers.Integral) and self.d in (1, 2, 3)):
            raise DomainError(f"dimension must be 1, 2 or 3, got {self.d}")
        if not (isinstance(self.m, numbers.Integral) and self.m >= 2):
            raise DomainError(f"sites per axis must be an integer >= 2, got {self.m}")
        if not (self.length > 0):
            raise DomainError(f"box length must be positive, got {self.length}")
        # for h in [2^-40, 2^40] every power formed is a normal double: h^{d/2} (the
        # observable's columns and X's row), 1/h^2, and h^d (cell_volume) for a dense
        # kernel, which is one-particle; no power grows with p
        if not (2.0 ** -40 <= self.h <= 2.0 ** 40):
            raise DomainError(f"box length {self.length!r} on {self.m} sites gives "
                              f"spacing h = {self.h!r}, outside [2^-40, 2^40]")

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

    def inversion(self) -> np.ndarray:
        """The flat index of the site -x mod M per axis, for each site x: the
        inversion x -> -x as a permutation of the sites (the identity at M = 2)."""
        coords = np.indices(self.shape).reshape(self.d, -1)
        return np.ravel_multi_index(tuple(-coords % self.m), self.shape)

    def is_even(self, values: np.ndarray) -> bool:
        """Whether the site values equal their image under the inversion bit for
        bit, a NaN matching a NaN."""
        return np.array_equal(values[self.inversion()], values, equal_nan=True)


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


def normalize(psi: WaveFunction) -> WaveFunction:
    """psi scaled to unit norm; a DomainError unless its norm is finite and positive."""
    n = psi.norm()
    if not (0 < n < np.inf):
        raise DomainError(f"cannot normalize a state of norm {n!r}")
    return WaveFunction(psi.grid, psi.amplitudes / n)


def lattice_dispersion(grid: LatticeGrid) -> np.ndarray:
    """Eigenvalues of -Lap per Fourier multi-index, shaped like the grid."""
    lam_axis = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(grid.m) / grid.m)) / grid.h ** 2
    return sum(np.meshgrid(*[lam_axis] * grid.d, indexing="ij"))


def convolve(grid: LatticeGrid, v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Periodic convolution (v*rho)(x) = h^d sum_y v(x-y) rho(y), via FFT."""
    v = np.asarray(v, dtype=np.float64).ravel()
    rho = np.asarray(rho, dtype=np.float64).ravel()
    if v.size != grid.n_sites or rho.size != grid.n_sites:
        raise DimensionError(
            f"convolve expects vectors of {grid.n_sites} sites, got {v.size} and {rho.size}"
        )
    fv = grid_fft(v.reshape(grid.shape), grid.d)
    return convolve_spectrum(grid, fv, rho.reshape(grid.shape)).ravel()


def grid_fft(a: np.ndarray, d: int, transform=np.fft.fft) -> np.ndarray:
    """fftn of a over its trailing d axes (ifftn with transform=np.fft.ifft), the
    one FFT of mflab; leading axes are a batch.

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
        amps = separable_profile(grid, np.exp(-dx ** 2 / (2.0 * np.float64(w) ** 2)))
    return normalize(WaveFunction(grid, amps.astype(np.complex128)))


def uniform_state(grid: LatticeGrid) -> WaveFunction:
    amps = np.ones(grid.n_sites, dtype=np.complex128)
    return normalize(WaveFunction(grid, amps))


def plane_wave(grid: LatticeGrid, mode: int = 1) -> WaveFunction:
    """e^{2 pi i mode x / L} along the first axis, unit h-weighted norm."""
    x = grid.axis_coordinates()
    phase = np.exp(2j * np.pi * mode * x / grid.length)
    return normalize(WaveFunction(grid, np.repeat(phase, grid.m ** (grid.d - 1))))
