"""Hartree flow i d/dt psi = -Lap psi + (v * |psi|^2) psi on the lattice.

Integrated by Strang splitting (Lubich, Math. Comp. 77, 2008): half-step
nonlinear phase V(dt/2), full kinetic step K(dt) in Fourier space with the
exact lattice dispersion, half-step phase with the updated density. Each
substep is unitary, so the norm is conserved up to roundoff of about an ulp
per step. V leaves |psi|^2 as it is, so V(dt/2) V(dt/2) = V(dt): the closing
half-step of one Strang step and the opening one of the next merge ("first
same as last", McLachlan & Quispel, Acta Numerica 11, 2002), and `steps`
Strang steps run as V(dt/2), `steps` x [K(dt), V(dt)], V(-dt/2), one
mean-field evaluation per step. X reads the observable's SpectralFactors by
one product of the row conj(h^{d/2} psi) with their one-particle columns.

The flow is batched: the states of S fields are one (S, *grid.shape) complex
array, transformed over the grid axes only, so one `hartree_step` call moves
every field one step. fft(v) is taken once per field and the kinetic phases
once per run. The batch holds S * M^d * 16 B, times a few temporaries per
step.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import (NORM_TOL, LatticeGrid, WaveFunction, check_grid, check_unit, convolve,
                   convolve_spectrum, grid_fft, lattice_dispersion)
from .random_field import RandomField

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


def field_spectra(fields: Sequence[RandomField], grid: LatticeGrid) -> np.ndarray:
    """fftn(v) of every field, stacked as (S, *grid.shape)."""
    for v in fields:
        check_grid(v.grid, grid, "the field")
    return grid_fft(np.stack([v.values.reshape(grid.shape) for v in fields]), grid.d)


def potential_phase(psi: np.ndarray, fv: np.ndarray, dt: float,
                    grid: LatticeGrid) -> np.ndarray:
    """Pointwise phase e^{-i dt (v * |psi|^2)} on a batch, with fv = fftn(v);
    it leaves |psi|^2 as it is."""
    return psi * np.exp(-1j * dt * convolve_spectrum(grid, fv, np.abs(psi) ** 2))


def hartree_step(psi: np.ndarray, fv: np.ndarray, dt: float, grid: LatticeGrid,
                 kinetic_phases: np.ndarray) -> np.ndarray:
    """The kinetic step K(dt), then the phase V(dt), of the batch psi, shape
    (S, *grid.shape).

    Looped alone this is the first-order Lie splitting, not a Strang step:
    `evolve_hartree_batch` wraps the loop in V(dt/2) ... V(-dt/2) to make it one.
    """
    out = grid_fft(grid_fft(psi, grid.d) * kinetic_phases, grid.d, np.fft.ifft)
    return potential_phase(out, fv, dt, grid)


def evolve_hartree_batch(phi: WaveFunction, fields: Sequence[RandomField],
                         params: HartreeRunParams) -> list[WaveFunction]:
    """psi_t of phi under each field, all fields advanced together on phi's grid.

    The norm is checked at entry by check_unit, and per field at exit to NORM_TOL plus
    an ulp per step of roundoff; an exit failure carries its field's `row`.
    """
    grid = phi.grid
    fv = field_spectra(fields, grid)
    check_unit(phi.norm(), "the Hartree flow")
    steps, dt = params.steps, params.effective_dt
    phases = np.exp(-1j * dt * lattice_dispersion(grid))
    psi = np.repeat(phi.amplitudes.reshape(1, *grid.shape), len(fields), axis=0)
    if steps:
        psi = potential_phase(psi, fv, dt / 2, grid)
        for _ in range(steps):
            psi = hartree_step(psi, fv, dt, grid, phases)
        psi = potential_phase(psi, fv, -dt / 2, grid)
    states = [WaveFunction(grid, row) for row in psi]
    for row, state in enumerate(states):
        if not (abs(state.norm() - 1.0) <= NORM_TOL + steps * np.finfo(float).eps):
            exc = DomainError(f"Hartree norm drifted to {state.norm()!r} after {steps} steps")
            exc.row = row
            raise exc
    return states


def hartree_expectation(psi: WaveFunction, factors) -> float:
    """X = <psi^(x)p, a psi^(x)p> = sum_k mu_k |<u_k, h^{d/2} psi>|^{2p} from the
    observable's SpectralFactors: one (1, sites) @ (sites, r) product."""
    check_grid(factors.grid, psi.grid, "the observable")
    row = math.sqrt(psi.grid.cell_volume) * psi.amplitudes.conj()
    return factors.weighted_squares([(row.reshape(1, -1) @ factors.u) ** factors.p])


def hartree_energy(psi: WaveFunction, v: RandomField) -> float:
    """Discrete energy: the kinetic form h^d sum_k lambda_k |fftn(psi)_k|^2 / M^d
    (Parseval, with the flow's dispersion) plus half the interaction term."""
    grid, amps = psi.grid, psi.amplitudes
    check_grid(v.grid, grid, "the field")
    spectrum = np.abs(grid_fft(amps.reshape(grid.shape), grid.d)) ** 2
    kin = grid.cell_volume * np.sum(lattice_dispersion(grid) * spectrum) / grid.n_sites
    density = np.abs(amps) ** 2
    pot = 0.5 * grid.cell_volume * float(np.sum(convolve(grid, v.values, density) * density))
    return float(kin + pot)
