"""Numerical lab for the mean-field limit of bosons with random interactions.

Pairs exact N-boson lattice dynamics with the Hartree flow over Monte Carlo
sampled interaction fields and checks that the gap between the quantum and
the mean-field expectations shrinks as N grows.
"""

from .ensemble import (EnsembleResult, ExperimentPlan, SummaryRow, estimate,
                       run_ensemble, tail_diagnostic)
from .grid import (LatticeGrid, WaveFunction, convolve, convolve_spectrum,
                   gaussian_packet, normalize, plane_wave, uniform_state)
from .hartree import (HartreeRunParams, evolve_hartree_batch, field_spectra,
                      hartree_expectation, hartree_step, potential_phase)
from .manybody import (FockBasis, ManyBodyState, assemble_hamiltonian,
                       build_fock_basis, evolve_manybody, manybody_expectation,
                       product_state_lift, reduced_density_matrix)
from .observables import (SpectralFactors, condensate_projector, site_multiplier,
                          spectral_factors)
from .random_field import FieldSpec, RandomField, mix_seed, sample_field

__all__ = [
    "EnsembleResult", "ExperimentPlan", "SummaryRow", "estimate",
    "run_ensemble", "tail_diagnostic",
    "LatticeGrid", "WaveFunction", "convolve",
    "convolve_spectrum", "gaussian_packet", "normalize", "plane_wave",
    "uniform_state",
    "HartreeRunParams", "evolve_hartree_batch",
    "field_spectra", "hartree_expectation", "hartree_step", "potential_phase",
    "FockBasis", "ManyBodyState", "assemble_hamiltonian", "build_fock_basis",
    "evolve_manybody", "manybody_expectation", "product_state_lift",
    "reduced_density_matrix",
    "SpectralFactors", "condensate_projector", "site_multiplier",
    "spectral_factors", "FieldSpec", "RandomField", "mix_seed", "sample_field",
]

__version__ = "0.1.0"
