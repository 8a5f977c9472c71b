"""Hartree flow i d/dt psi = -Lap psi + (v * |psi|^2) psi on the lattice.

Integrated by Strang splitting (Lubich, Math. Comp. 77, 2008): half-step
nonlinear phase, full kinetic step in Fourier space with the exact lattice
dispersion, half-step phase with the updated density. Each substep is
unitary, so the norm is conserved up to roundoff of about an ulp per step.

The flow is batched: the states of S fields are one (S, *grid.shape) complex
array, transformed over the grid axes only, so one `hartree_step` call moves
every field one step. fft(v) is taken once per field and the kinetic phases
once per run. The batch holds S * M^d * 16 B, times a few temporaries per
step; `evolve_hartree` of one field is the case S = 1.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimensionError, DomainError
from .grid import (LatticeGrid, WaveFunction, _laplacian_array, convolve,
                   convolve_spectrum, grid_fft)
from .observables import PObservable
from .random_field import RandomField

_NORM_TOL = 1e-12
# about 2,000 times the default t_final / dt of 512 steps
_MAX_STEPS = 10**6


@dataclass(frozen=True)
class HartreeRunParams:
    """Evolution horizon and step size; dt is snapped so steps*dt = t_final,
    and t_final / dt is at most _MAX_STEPS.

    The grid is not a parameter: the flow runs on the initial state's grid.
    """

    t_final: float
    dt: float

    def __post_init__(self):
        if not (0 <= self.t_final < np.inf):
            raise DomainError(f"t_final must be finite and nonnegative, got {self.t_final}")
        if not (self.dt > 0):
            raise DomainError(f"dt must be positive, got {self.dt}")
        if not (self.t_final / self.dt <= _MAX_STEPS):
            raise DomainError(f"dt = {self.dt!r} needs t_final / dt = "
                              f"{self.t_final / self.dt!r} steps, "
                              f"beyond the cap {_MAX_STEPS}")

    @property
    def steps(self) -> int:
        return max(1, round(self.t_final / self.dt)) if self.t_final else 0

    @property
    def effective_dt(self) -> float:
        return self.t_final / self.steps if self.steps else self.dt


def lattice_dispersion(grid: LatticeGrid) -> np.ndarray:
    """Eigenvalues of -Lap per Fourier multi-index, shaped like the grid."""
    lam_axis = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(grid.m) / grid.m)) / grid.h ** 2
    return sum(np.meshgrid(*[lam_axis] * grid.d, indexing="ij"))


def field_spectra(fields: Sequence[RandomField], grid: LatticeGrid) -> np.ndarray:
    """fftn(v) of every field, stacked as (S, *grid.shape)."""
    if any(v.grid != grid for v in fields):
        raise DimensionError("field and wavefunction live on different grids")
    return np.stack([np.fft.fftn(v.values.reshape(grid.shape)) for v in fields])


def potential_phase(psi: np.ndarray, fv: np.ndarray, dt: float,
                    grid: LatticeGrid) -> np.ndarray:
    """Pointwise phase e^{-i dt (v * |psi|^2)} on a batch, with fv = fftn(v)."""
    return psi * np.exp(-1j * dt * convolve_spectrum(grid, fv, np.abs(psi) ** 2))


def hartree_step(psi: np.ndarray, fv: np.ndarray, dt: float, grid: LatticeGrid,
                 kinetic_phases: np.ndarray) -> np.ndarray:
    """One Strang step of the batch psi, shape (S, *grid.shape)."""
    out = potential_phase(psi, fv, dt / 2, grid)
    out = grid_fft(grid_fft(out, grid.d) * kinetic_phases, grid.d, np.fft.ifft)
    return potential_phase(out, fv, dt / 2, grid)


def evolve_hartree_batch(phi: WaveFunction, fields: Sequence[RandomField],
                         params: HartreeRunParams) -> list[WaveFunction]:
    """psi_t of phi under each field, all fields advanced together on phi's grid.

    The norm is checked at entry to 1e-12, and per field at exit to 1e-12 plus
    an ulp per step of roundoff; an exit failure carries its field's `row`.
    """
    grid = phi.grid
    fv = field_spectra(fields, grid)
    if not (abs(phi.norm() - 1.0) <= _NORM_TOL):
        raise DomainError(f"the Hartree flow requires a unit state, norm = {phi.norm()!r}")
    steps, dt = params.steps, params.effective_dt
    phases = np.exp(-1j * dt * lattice_dispersion(grid))
    psi = np.repeat(phi.amplitudes.reshape(1, *grid.shape), len(fields), axis=0)
    for _ in range(steps):
        psi = hartree_step(psi, fv, dt, grid, phases)
    states = [WaveFunction(grid, row) for row in psi]
    for row, state in enumerate(states):
        if not (abs(state.norm() - 1.0) <= _NORM_TOL + steps * np.finfo(float).eps):
            exc = DomainError(f"Hartree norm drifted to {state.norm()!r} after {steps} steps")
            exc.row = row
            raise exc
    return states


def evolve_hartree(phi: WaveFunction, v: RandomField,
                   params: HartreeRunParams) -> WaveFunction:
    """psi_t of phi under one field: the batch of one."""
    return evolve_hartree_batch(phi, [v], params)[0]


def hartree_expectation(psi: WaveFunction, a: PObservable) -> float:
    """X = <psi^(x)p, a psi^(x)p> for a self-adjoint kernel; real by construction."""
    grid = psi.grid
    if a.sites != grid.n_sites:
        raise DimensionError("observable kernel does not match the state's grid")
    vec = psi.amplitudes
    for _ in range(a.p - 1):
        vec = np.kron(vec, psi.amplitudes)
    val = grid.cell_volume ** (2 * a.p) * np.vdot(vec, a.kernel @ vec)
    if not (abs(val.imag) < 1e-10):
        raise ConsistencyError(f"expectation has imaginary part {val.imag:.3e}; "
                               "observable not self-adjoint?")
    return float(val.real)


def hartree_energy(psi: WaveFunction, v: RandomField) -> float:
    """Discrete energy: kinetic quadratic form plus half the interaction term."""
    grid, amps = psi.grid, psi.amplitudes
    kin = -grid.cell_volume * np.vdot(amps, _laplacian_array(grid, amps)).real
    density = np.abs(amps) ** 2
    pot = 0.5 * grid.cell_volume * float(np.sum(convolve(grid, v.values, density) * density))
    return float(kin + pot)
