"""Monte Carlo over field realizations.

Each sample draws one interaction realization and runs the Hartree flow and
the exact N-body dynamics for every N in the sweep against that same field
(common random numbers), so the pathwise gap Y_N = |X - X_N| is estimated
with low variance. A run is one sequential pipeline: build each N's sector,
run one batched Hartree flow over every field, then the many-body work of
each sample in order. Each field is seeded from (base_seed, sample_index), so
a sample's values do not depend on which other samples run with it.
The plan checks its largest sector against the dimension and propagation caps
and its samples against SAMPLE_MEMORY_CAP, holds the observable as its spectral
factors and derives their norm max|mu|, the roundoff slack, the Hartree time
grid and the site mirror of its sectors once, at construction: the inversion
x -> -x when the initial state is even bit for bit, so that each sector is
built, lifted and propagated as its mirror-even block, about half its states.
run_ensemble bounds |X| and |X_N| by norm + slack.
A run's product is one EnsembleResult table, X_N per (N, sample) next to X
per sample, which estimate and tail_diagnostic reduce row by row.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConsistencyError, DimensionError, DomainError, MFLabError,
                     ResourceError)
from .grid import NORM_TOL, LatticeGrid, WaveFunction
from .hartree import HartreeRunParams, evolve_hartree_batch, hartree_expectation
from .manybody import (assemble_hamiltonian, build_fock_basis, check_fock_dimension,
                       check_propagation, evolve_manybody, manybody_expectation,
                       product_state_lift)
from .observables import SpectralFactors
from .random_field import FieldSpec, check_mode_count, mix_seed, sample_field

# bytes that run_ensemble may hold along its sample axis, like DIMENSION_CAP a
# module constant and not a parameter
SAMPLE_MEMORY_CAP = 2 ** 30


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment from a unit state, K < M/2 modes and an integer base_seed in
    [0, 2^64), whose largest Fock sector fits the dimension cap and propagates to
    t_final, whose samples fit SAMPLE_MEMORY_CAP, whose observable's factors hold on
    its grid and whose statistics stay finite; its init=False fields are derived once."""

    grid: LatticeGrid
    field_spec: FieldSpec
    initial_state: WaveFunction
    observable: SpectralFactors
    t_final: float
    dt: float
    particle_counts: tuple[int, ...]
    samples: int
    base_seed: int
    observable_norm: float = field(init=False)
    # slack on X, which scales with the norm as X does: the pathwise bound and the
    # triangle check grant it, and the log-log slope leaves out gaps at or below it
    roundoff: float = field(init=False)
    hartree_params: HartreeRunParams = field(init=False)
    # the inversion x -> -x if the initial state equals its image bit for bit,
    # else the identity: H commutes with the inversion, so an even Psi_0 stays
    # even and each sector runs as its mirror-even block
    mirror: np.ndarray = field(init=False)

    def __post_init__(self):
        check_mode_count(self.field_spec, self.grid)
        seed = self.base_seed
        if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2 ** 64):
            raise DomainError(f"base_seed must fit in 64 unsigned bits, got {seed!r}")
        if not all(isinstance(n, numbers.Integral)
                   for n in (*self.particle_counts, self.samples)):
            raise DomainError(f"particle counts and samples must be integers, got "
                              f"{tuple(self.particle_counts)} and {self.samples!r}")
        counts = tuple(int(n) for n in self.particle_counts)
        if not counts:
            raise DomainError("particle_counts must be nonempty")
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise DomainError("particle_counts must be strictly ascending")
        if counts[0] < 1:
            raise DomainError("particle counts must be positive")
        if self.observable.p > counts[0]:
            raise DomainError(f"observable.p = {self.observable.p} exceeds the "
                              f"smallest particle count {counts[0]}")
        check_fock_dimension(counts[-1], self.grid)
        check_propagation(counts[-1], self.grid, self.t_final)
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        # a sample holds its seed and field, its row of the batched Hartree flow
        # (the state, the field's spectrum and the FFT temporaries: 105-118 bytes
        # per site measured) and its X and X_N's
        held = self.samples * (1024 + 128 * self.grid.n_sites + 8 * (len(counts) + 1))
        if held > SAMPLE_MEMORY_CAP:
            raise ResourceError(
                f"{self.samples} samples would hold about {held / 2 ** 30:.3g} GiB of seeds, "
                f"fields, Hartree states and results, above the cap of "
                f"{SAMPLE_MEMORY_CAP // 2 ** 30} GiB")
        if self.initial_state.grid != self.grid:
            raise DimensionError("the initial state and the plan live on different grids")
        if not (abs(self.initial_state.norm() - 1.0) <= NORM_TOL):
            raise DomainError(f"initial state norm {self.initial_state.norm()!r} is not 1")
        object.__setattr__(self, "particle_counts", counts)
        object.__setattr__(self, "base_seed", int(seed))
        object.__setattr__(self, "hartree_params", HartreeRunParams(self.t_final, self.dt))
        inversion, amps = self.grid.inversion(), self.initial_state.amplitudes
        even = np.array_equal(amps[inversion], amps)
        mirror = inversion if even else np.arange(self.grid.n_sites)
        mirror.setflags(write=False)
        object.__setattr__(self, "mirror", mirror)
        self.observable.check_grid(self.grid)
        norm = float(np.abs(self.observable.mu).max(initial=0.0))
        # each |Y| <= 2 norm, and np.std in estimate sums `samples` squares
        if not (self.samples * (2 * norm) * (2 * norm) < math.inf):
            raise DomainError(f"observable norm {norm!r}: samples * (2 norm)^2 overflows")
        object.__setattr__(self, "observable_norm", norm)
        object.__setattr__(self, "roundoff", 1e-12 * norm)


@dataclass(frozen=True)
class EnsembleResult:
    """X_N per (N, sample) next to X per sample: counts ascending, samples in
    index order; at least one of each, and every shape consistent."""

    counts: tuple[int, ...]
    seeds: tuple[int, ...]
    x_hartree: np.ndarray
    x_manybody: np.ndarray

    def __post_init__(self):
        k, s = len(self.counts), len(self.seeds)
        if not (k and s and self.x_hartree.shape == (s,)
                and self.x_manybody.shape == (k, s)):
            raise DomainError(f"a result table needs >= 1 N, >= 1 sample and shapes ({s},) "
                              f"and ({k}, {s}); got {self.x_hartree.shape} and "
                              f"{self.x_manybody.shape}")

    @property
    def y(self) -> np.ndarray:
        """The gap Y_N = |X - X_N| per (N, sample)."""
        return np.abs(self.x_hartree - self.x_manybody)


@dataclass(frozen=True)
class SummaryRow:
    n: int
    mean_x_manybody: float
    mean_x_hartree: float
    mean_y: float
    ci95_y: float
    samples: int


def _in_sample(exc: MFLabError, i: int, seeds: tuple[int, ...]) -> MFLabError:
    """The same error, prefixed with the sample it happened in."""
    return type(exc)(f"sample {i} (seed {seeds[i]}): {exc}")


def _bounded(x: float, name: str, plan: ExperimentPlan) -> float:
    """x, once |x| <= the observable norm + the plan's roundoff; NaN fails too."""
    if not (abs(x) <= plan.observable_norm + plan.roundoff):
        raise ConsistencyError(f"|{name}| = {abs(x)!r} exceeds the observable "
                               f"norm {plan.observable_norm!r}")
    return x


def run_ensemble(plan: ExperimentPlan) -> EnsembleResult:
    """The result table of all samples, run one after another in index order.

    Each N's lifted initial state, whose basis is the sector with the gather
    of the observable's order, is built first, so the work done once per plan
    precedes the first field; then the Hartree flow runs once for all the
    fields, and each sample does its many-body work against its own field.
    Each seed is derived once and serves the field, the sample's error prefix
    and the table alike.
    """
    lifted = [product_state_lift(plan.initial_state,
                                 build_fock_basis(n, plan.grid, plan.observable.p,
                                                  plan.mirror))
              for n in plan.particle_counts]
    seeds = tuple(mix_seed(plan.base_seed, i) for i in range(plan.samples))
    fields = []
    for i, seed in enumerate(seeds):
        try:
            fields.append(sample_field(plan.field_spec, seed, plan.grid))
        except MFLabError as exc:
            raise _in_sample(exc, i, seeds) from exc
    try:
        states = evolve_hartree_batch(plan.initial_state, fields, plan.hartree_params)
    except MFLabError as exc:
        raise _in_sample(exc, getattr(exc, "row", 0), seeds) from exc
    x_h = np.empty(plan.samples)
    x_mb = np.empty((len(lifted), plan.samples))
    for i, (v, psi_t) in enumerate(zip(fields, states)):
        try:
            x_h[i] = _bounded(hartree_expectation(psi_t, plan.observable), "X", plan)
            for k, psi in enumerate(lifted):
                psi_n = evolve_manybody(psi, assemble_hamiltonian(psi.basis, v), plan.t_final)
                x_mb[k, i] = _bounded(manybody_expectation(psi_n, plan.observable),
                                      "X_N", plan)
        except MFLabError as exc:
            raise _in_sample(exc, i, seeds) from exc
    return EnsembleResult(plan.particle_counts, seeds, x_h, x_mb)


def estimate(result: EnsembleResult) -> list[SummaryRow]:
    """Per-N sample means with 95% normal-approximation half-widths."""
    s = len(result.seeds)
    mean_x_hartree = float(np.mean(result.x_hartree))
    rows = []
    for n, xs, ys in zip(result.counts, result.x_manybody, result.y):
        sd = float(np.std(ys, ddof=1)) if s > 1 else 0.0
        rows.append(SummaryRow(n=n, mean_x_manybody=float(np.mean(xs)),
                               mean_x_hartree=mean_x_hartree, mean_y=float(np.mean(ys)),
                               ci95_y=1.96 * sd / math.sqrt(s), samples=s))
    return rows


def check_beta(beta: float) -> None:
    """Reject a tail threshold that is not positive; NaN fails too."""
    if not (beta > 0):
        raise DomainError(f"beta must be positive, got {beta!r}")


def tail_diagnostic(result: EnsembleResult, beta: float
                    ) -> tuple[dict[int, float], float]:
    """Empirical E(|X_N| 1{|X_N| >= beta}) per N, and the same for X."""
    check_beta(beta)
    x = np.abs(np.vstack([result.x_hartree, result.x_manybody]))
    hartree_tail, *per_n = (float(np.mean(row)) for row in np.where(x >= beta, x, 0.0))
    return dict(zip(result.counts, per_n)), hartree_tail
