"""Acceptance suite: each criterion prints one PASS/FAIL line when it runs."""
import itertools
import math
import time

import numpy as np
import pytest
import scipy.linalg

from mflab.cli import run_experiment
from mflab.config import RunOptions
from mflab.ensemble import ExperimentPlan, estimate, run_ensemble, tail_diagnostic
from mflab.grid import WaveFunction, build_grid, convolve, gaussian_packet, normalize
from mflab.hartree import HartreeRunParams, evolve_hartree_batch
from mflab.manybody import (ManyBodyState, assemble_hamiltonian,
                            build_fock_basis, energy_expectation,
                            evolve_manybody, manybody_expectation,
                            product_state_lift)
from mflab.observables import (PObservable, condensate_projector, lift_factor,
                               operator_norm)
from mflab.random_field import FieldSpec, sample_field


GRID = build_grid(1, 8, 8.0)
PHI = gaussian_packet(GRID)
OBS = condensate_projector(PHI)

CONSTANT_SPEC = FieldSpec(base="zero", gaussian_mean=0.7)
RANDOM_SPEC = FieldSpec(base="gaussian_bump(1.0, 1.5)",
                        mode_stddevs=(0.5, 0.3, 0.1))

CONSTANT_PLAN = ExperimentPlan(
    grid=GRID, field_spec=CONSTANT_SPEC, initial_state=PHI, observable=OBS,
    t_final=0.5, dt=1 / 512, particle_counts=(1, 2, 3, 4), samples=4,
    base_seed=20240817)

CONVERGENCE_PLAN = ExperimentPlan(
    grid=GRID, field_spec=RANDOM_SPEC, initial_state=PHI, observable=OBS,
    t_final=0.5, dt=1 / 512, particle_counts=(2, 4, 6), samples=64,
    base_seed=20240817)


def _verdict(num, name, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance criterion {num}: {name}")


@pytest.fixture(scope="module")
def constant_results():
    return run_ensemble(CONSTANT_PLAN)


@pytest.fixture(scope="module")
def convergence_results():
    return run_ensemble(CONVERGENCE_PLAN)


def test_criterion_1_constant_interaction_exactness(constant_results):
    name = "constant-interaction exactness"
    ok = False
    try:
        start = time.time()
        for r in constant_results:
            for n in CONSTANT_PLAN.particle_counts:
                assert r.y[n] < 1e-8, f"sample {r.sample_index}, N={n}: y={r.y[n]}"
        assert time.time() - start < 10.0
        ok = True
    finally:
        _verdict(1, name, ok)


def test_criterion_2_convergence_trend(convergence_results):
    name = "convergence trend over N = 2, 4, 6"
    ok = False
    try:
        rows = {row.n: row for row in estimate(convergence_results)}
        y2, y4, y6 = rows[2].mean_y, rows[4].mean_y, rows[6].mean_y
        assert y2 > y4 > y6, f"mean_y not strictly decreasing: {y2}, {y4}, {y6}"
        # 0.6 reduction with 95% CI separation
        assert y6 + rows[6].ci95_y < 0.6 * (y2 - rows[2].ci95_y), (
            f"insufficient separation: {y6}+{rows[6].ci95_y} vs 0.6*({y2}-{rows[2].ci95_y})"
        )
        ln_n = np.log([2, 4, 6])
        ln_y = np.log([y2, y4, y6])
        slope = float(np.polyfit(ln_n, ln_y, 1)[0])
        print(f"\n  informational log-log slope of mean_y vs N: {slope:+.3f}")
        ok = True
    finally:
        _verdict(2, name, ok)


def test_criterion_3_pathwise_bound_and_tails(constant_results,
                                              convergence_results):
    name = "pathwise bound |X_N| <= ||a|| and vanishing tails"
    ok = False
    try:
        bound = operator_norm(OBS, GRID)
        for results in (constant_results, convergence_results):
            for r in results:
                assert abs(r.x_hartree) <= bound + 1e-12
                for x in r.x_manybody.values():
                    assert abs(x) <= bound + 1e-12
            per_n, hartree_tail = tail_diagnostic(results, 1.1 * bound)
            assert hartree_tail == 0.0
            assert all(v == 0.0 for v in per_n.values())
        ok = True
    finally:
        _verdict(3, name, ok)


def test_criterion_4_conservation_suite():
    name = "norm and energy conservation"
    ok = False
    try:
        v = sample_field(RANDOM_SPEC, 20240817, GRID)
        # Hartree norm over 10^3 steps
        params = HartreeRunParams(t_final=1.0, dt=1e-3)
        assert params.steps == 1000
        psi_t = evolve_hartree_batch(PHI, [v], params)[0]
        assert abs(psi_t.norm() - 1.0) < 1e-10
        # many-body norm and energy
        n = 5
        basis = build_fock_basis(n, GRID)
        h = assemble_hamiltonian(basis, v)
        psi0 = product_state_lift(PHI, basis)
        e0 = energy_expectation(psi0, h)
        psi_n = evolve_manybody(psi0, h, 1.0)
        assert abs(psi_n.norm() - 1.0) < 1e-10
        assert abs(energy_expectation(psi_n, h) - e0) / abs(e0) < 1e-8
        ok = True
    finally:
        _verdict(4, name, ok)


def _symmetrizer(n, sites):
    dim = sites ** n
    p = np.zeros((dim, dim))
    for perm in itertools.permutations(range(n)):
        idx = np.zeros(dim, dtype=int)
        digits = []
        rest = np.arange(dim)
        for _ in range(n):
            digits.append(rest % sites)
            rest = rest // sites
        digits = digits[::-1]
        for pos in range(n):
            idx = idx * sites + digits[perm[pos]]
        p[np.arange(dim), idx] += 1.0
    return p / math.factorial(n)


def _occupation_to_full(coeffs, basis, sites):
    n = basis.n_particles
    full = np.zeros(sites ** n, dtype=complex)
    for tup in itertools.product(range(sites), repeat=n):
        occ = tuple(tup.count(x) for x in range(sites))
        w = math.sqrt(math.prod(math.factorial(k) for k in occ)
                      / math.factorial(n))
        flat = 0
        for x in tup:
            flat = flat * sites + x
        full[flat] = coeffs[basis.rank(occ)] * w
    return full


def test_criterion_5_oracle_equivalence():
    name = "oracle equivalence (propagator, FFT, operator lift, Hamiltonian)"
    ok = False
    try:
        # (a) propagator vs dense matrix exponential, basis dimension 1716
        n = 6
        basis = build_fock_basis(n, GRID)
        assert len(basis) <= 2000
        v = sample_field(RANDOM_SPEC, 31337, GRID)
        h = assemble_hamiltonian(basis, v)
        psi0 = product_state_lift(PHI, basis)
        propagated = evolve_manybody(psi0, h, 0.5).coefficients
        dense_h = basis.one_body.toarray() + np.diag(h)
        dense = scipy.linalg.expm(-1j * 0.5 * dense_h) @ psi0.coefficients
        assert np.linalg.norm(propagated - dense) < 1e-9

        # (b) FFT vs direct double-sum convolution
        rng = np.random.default_rng(0)
        vv = rng.standard_normal(GRID.n_sites)
        rho = rng.standard_normal(GRID.n_sites)
        direct = np.zeros(GRID.n_sites)
        for x in range(GRID.m):
            direct[x] = GRID.cell_volume * sum(
                vv[(x - y) % GRID.m] * rho[y] for y in range(GRID.m))
        assert np.max(np.abs(convolve(GRID, vv, rho) - direct)) < 1e-10

        # (c) brute-force lifted operator vs RDM route, N = 3, M = 3, p = 1, 2
        g3 = build_grid(1, 3, 3.0)
        n3 = 3
        b3 = build_fock_basis(n3, g3)
        for p in (1, 2):
            raw = (rng.standard_normal((3 ** p, 3 ** p))
                   + 1j * rng.standard_normal((3 ** p, 3 ** p)))
            a = PObservable(p, raw + raw.conj().T)
            a_l2 = g3.cell_volume ** p * a.kernel
            ps = _symmetrizer(n3, 3)
            lifted = lift_factor(n3, p) * ps @ np.kron(
                a_l2, np.eye(3 ** (n3 - p))) @ ps
            for trial in range(3):
                c = (rng.standard_normal(len(b3))
                     + 1j * rng.standard_normal(len(b3)))
                c /= np.linalg.norm(c)
                full = _occupation_to_full(c, b3, 3)
                oracle = np.vdot(full, lifted @ full).real
                got = manybody_expectation(ManyBodyState(b3, c), a)
                assert abs(got - oracle) < 1e-10

        # (d) second- vs first-quantized Hamiltonian, N = 2, M = 3
        from mflab.manybody import kinetic_matrix
        b2 = build_fock_basis(2, g3)
        v3 = sample_field(FieldSpec(base="gaussian_bump(1.0, 0.8)",
                                    mode_stddevs=(0.6,)), 99, g3)
        h2q = b2.one_body.toarray() + np.diag(assemble_hamiltonian(b2, v3))
        t = kinetic_matrix(g3).toarray()
        pair = np.array([v3.values[(x - y) % 3]
                         for x in range(3) for y in range(3)])
        h_full = np.kron(t, np.eye(3)) + np.kron(np.eye(3), t) + np.diag(pair) / 2
        cols = np.array([_occupation_to_full(np.eye(6)[i], b2, 3)
                         for i in range(6)]).T.real
        h1q = cols.T @ h_full @ cols
        assert np.max(np.abs(h2q - h1q)) < 1e-12
        ok = True
    finally:
        _verdict(5, name, ok)


def test_criterion_6_determinism_across_runs_and_threads(tmp_path):
    name = "byte-identical CSV outputs across runs"
    ok = False
    try:
        resolved = {"placeholder": "acceptance determinism run"}
        blobs = []
        for sub in ("run-a", "run-b"):
            options = RunOptions(output_dir=str(tmp_path / sub),
                                 beta=CONVERGENCE_PLAN.observable_norm / 2,
                                 resolved=resolved)
            assert run_experiment(CONVERGENCE_PLAN, options) == 0
            blobs.append(((tmp_path / sub / "samples.csv").read_bytes(),
                          (tmp_path / sub / "summary.csv").read_bytes()))
        assert blobs[0] == blobs[1]
        ok = True
    finally:
        _verdict(6, name, ok)
