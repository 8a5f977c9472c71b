"""Monte Carlo over field realizations.

Each sample draws one interaction realization and runs the Hartree flow and
the exact N-body dynamics for every N in the sweep against that same field
(common random numbers), so the pathwise gap Y_N = |X - X_N| is estimated
with low variance. A run is one sequential pipeline: build each N's sector,
run one batched Hartree flow over every field, then the many-body work of
each sample in order. Each field is seeded from (base_seed, sample_index), so
a sample's values do not depend on which other samples run with it.
The plan checks the bytes its shapes take against MEMORY_CAP (check_memory)
and its largest sector against the propagation cap (check_propagation),
holds the observable as its spectral factors and derives their norm max|mu|,
the roundoff slack, the Hartree time grid and whether its sectors are halved
once, at construction: when M > 2 and the initial state is even
(LatticeGrid.is_even) under x -> -x, each sector is built, lifted and
propagated as its mirror-even block, about half its states.
run_ensemble bounds |X| and |X_N| by norm + slack.
A run's product is one EnsembleResult table, X_N per (N, sample) next to X
per sample, which estimate and tail_diagnostic reduce row by row.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DomainError, MFLabError, ResourceError
from .grid import LatticeGrid, WaveFunction, check_grid, check_unit
from .hartree import HartreeRunParams, evolve_hartree_batch, hartree_expectation
from .manybody import (_BLOCK_ROWS, assemble_hamiltonian, build_fock_basis,
                       check_propagation, evolve_manybody, manybody_expectation,
                       product_state_lift)
from .observables import SpectralFactors
from .random_field import FieldSpec, check_mode_count, mix_seed, sample_field

# the bytes a plan may build and hold, a module constant and not a parameter
MEMORY_CAP = 2 ** 30


def check_memory(grid: LatticeGrid, counts, p: int, samples: int, halved: bool,
                 columns: int) -> float:
    """The bytes a plan of these shapes builds and holds, summed from named terms
    read from the code; past MEMORY_CAP, a ResourceError with the total and the
    largest term. halved: each sector is its mirror-even block, about half its
    states; columns: the observable's r. True and 0 give a lower bound, and
    shapes a plan refuses are read as the nearest it accepts, for it to name."""
    def states(n, sites):  # fock_dimension from lgamma: it may have millions of digits
        log = math.lgamma(n + sites) - math.lgamma(n + 1) - math.lgamma(sites) if n >= 0 else -1e9
        return math.exp(min(log, 709))
    big = 2 ** 62  # one shape at 2^62 passes the cap; below it every term is a float
    counts = sorted({min(n, big) for n in counts if n >= 1}) or [1]
    p, s, top = min(max(p, 1), counts[0]), min(grid.n_sites, big), counts[-1]
    share, deg = (0.5 if halved else 1), grid.degree
    dim, below, occ = states(top, s), states(top - 1, s), s * np.min_scalar_type(top).itemsize
    rows = min(_BLOCK_ROWS, below)
    # building the top N beyond what it keeps (the sector and its copy in _enumerate,
    # or the orbits and _one_body's row blocks), then one sample (V, assemble's row
    # block, h, the Chebyshev vectors, X_N's row block and lower steps for p >= 2)
    build = dim * occ + max(dim * occ, 48 * dim + 40 * rows * s)
    sample = (16 * s * (s + min(_BLOCK_ROWS, share * dim)) + 96 * share * dim + 24 * rows * s
              + 16 * columns * (rows + (p > 1) * (2 * below + rows * s)))
    terms = {
        # per N: 5 KiB of objects, occupations, orbit sizes, indptr, lifted state,
        # the hopping CSR (12 B per neighbour of each (k, x) of the top gather)
        # and the p gathers (12 B per site of each state of N-p..N-1)
        "the sectors": sum(
            5120 + share * states(n, s) * (s * np.min_scalar_type(n).itemsize + 21)
            + 12 * s * (share * deg * states(n - 1, s) + states(n - 1, s + 1)
                        - states(n - p - 1, s + 1)) for n in counts),
        f"building N={top}" if build > sample else "one sample's many-body work":
            max(build, sample),
        # a seed, a field, a Hartree row (105-118 B per site measured), X and X_N's
        "the samples": min(max(samples, 1), big) * (1032 + 128 * s + 8 * len(counts)),
        "the observable and the plan": 16 * s * columns + 16384,
    }
    total = sum(terms.values())
    if total > MEMORY_CAP:
        name = max(terms, key=terms.get)
        raise ResourceError(f"the plan would hold about {total / 2 ** 30:.3g} GiB, above the cap "
                            f"of {MEMORY_CAP / 2 ** 30:g} GiB; the largest term is {name}, "
                            f"{terms[name] / 2 ** 30:.3g} GiB")
    return total


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment from a unit state, K < M/2 modes and a base_seed in [0, 2^64),
    within MEMORY_CAP and the r*t cap, whose factors hold on its grid and whose
    statistics and N^p stay finite; its init=False fields are derived once."""

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
    # M > 2 and the initial state equals its inversion x -> -x bit for bit: H
    # commutes with the inversion, so an even Psi_0 stays even and each sector
    # runs as its mirror-even block (at M = 2 the inversion fixes every site)
    halved: bool = field(init=False)

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
        if self.observable.p * math.log2(counts[-1]) >= 1000:  # X_N divides by N^p
            raise DomainError(f"N^p = {counts[-1]}^{self.observable.p} is beyond 2^1000")
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        check_grid(self.initial_state.grid, self.grid, "the initial state")
        check_unit(self.initial_state.norm(), "the plan")
        halved = self.grid.m > 2 and self.grid.is_even(self.initial_state.amplitudes)
        check_memory(self.grid, counts, self.observable.p, self.samples, halved,
                     len(self.observable.mu))
        # HartreeRunParams checks t_final before check_propagation reads it
        object.__setattr__(self, "hartree_params", HartreeRunParams(self.t_final, self.dt))
        check_propagation(counts[-1], self.grid, self.t_final)
        object.__setattr__(self, "particle_counts", counts)
        object.__setattr__(self, "base_seed", int(seed))
        object.__setattr__(self, "halved", halved)
        check_grid(self.observable.grid, self.grid, "the observable")
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
                                                  plan.halved))
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
