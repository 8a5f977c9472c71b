import warnings

import numpy as np
import pytest

from mflab.errors import ConfigError, DomainError
from mflab.grid import LatticeGrid
from mflab.random_field import FieldSpec, _base_profile, mix_seed, sample_field


GRID = LatticeGrid(1, 8, 8.0)


def test_degenerate_spec_gives_zero_field():
    spec = FieldSpec(base="zero", gaussian_mean=0.0, mode_stddevs=())
    f = sample_field(spec, 123, GRID)
    assert np.all(f.values == 0.0)
    assert np.max(np.abs(f.values)) == 0.0


def test_variance_zero_cosine_base_is_deterministic():
    spec = FieldSpec(base="cosine(1.0, 1)", mode_stddevs=())
    x = GRID.axis_coordinates()
    expected = np.cos(2 * np.pi * x / GRID.length)
    for seed in (0, 1, 999):
        f = sample_field(spec, seed, GRID)
        assert np.allclose(f.values, expected, atol=1e-15)


def test_cosine_amplitude_bound():
    spec = FieldSpec(base="cosine(2.0, 1)", mode_stddevs=())
    f = sample_field(spec, 7, GRID)
    assert np.max(np.abs(f.values)) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_bump_of_overflowing_width_is_its_amplitude(d):
    grid = LatticeGrid(d, 4, 4.0)
    wide = sample_field(FieldSpec(base="gaussian_bump(1.0, 1e200)",
                                  mode_stddevs=(0.5,)), 31, grid)
    flat = sample_field(FieldSpec(base="zero", gaussian_mean=1.0,
                                  mode_stddevs=(0.5,)), 31, grid)
    assert np.array_equal(wide.values, flat.values)


def test_sampling_is_bit_deterministic():
    spec = FieldSpec(base="gaussian_bump(0.7, 1.0)", gaussian_mean=0.2,
                     mode_stddevs=(0.5, 0.3, 0.1))
    a = sample_field(spec, 9001, GRID)
    b = sample_field(spec, 9001, GRID)
    assert a.values.tobytes() == b.values.tobytes()
    c = sample_field(spec, 9002, GRID)
    assert not np.array_equal(a.values, c.values)


def test_evenness_after_symmetrization():
    # v equals its reflection bitwise: 0.5 * (a + b) is commutative
    for d, m, sigmas in [(1, 8, (1.0, 0.5, 0.2)), (1, 7, (0.8, 0.3)), (2, 4, (1.0,)),
                         (2, 5, (0.6, 0.4)), (3, 4, (0.9,)), (3, 5, (0.5, 0.25))]:
        g = LatticeGrid(d, m, 0.9 * m)
        reflect = np.ix_(*[(-np.arange(m)) % m] * d)
        for base in ("zero", "gaussian_bump(0.7, 1.1)", "cosine(1.3, 1)"):
            spec = FieldSpec(base=base, gaussian_mean=0.3, mode_stddevs=sigmas)
            for seed in range(5):
                vals = sample_field(spec, seed, g).values.reshape(g.shape)
                assert np.array_equal(vals, vals[reflect])


def test_evenness_2d():
    g = LatticeGrid(2, 4, 4.0)
    spec = FieldSpec(base="zero", mode_stddevs=(1.0,))
    vals = sample_field(spec, 3, g).values.reshape(g.shape)
    for j in range(4):
        for k in range(4):
            assert vals[j, k] == vals[(4 - j) % 4, (4 - k) % 4]


def _loop_reference(spec, seed, grid):
    """sample_field as one Python loop per mode, then the even part."""
    vals = (_base_profile(spec.base, grid) + spec.gaussian_mean).reshape(grid.shape)
    K = len(spec.mode_stddevs)
    if K > 0:
        coeffs = np.random.Generator(np.random.Philox(key=seed)).standard_normal(
            (grid.d, K, 2))
        x = grid.axis_coordinates()
        for axis in range(grid.d):
            axis_field = np.zeros(grid.m)
            for k in range(1, K + 1):
                a_k, b_k = coeffs[axis, k - 1]
                ang = 2.0 * np.pi * k * x / grid.length
                axis_field += spec.mode_stddevs[k - 1] * (a_k * np.cos(ang)
                                                          + b_k * np.sin(ang))
            shape = [1] * grid.d
            shape[axis] = grid.m
            vals = vals + axis_field.reshape(shape)
    reflected = vals
    for axis in range(grid.d):
        reflected = np.flip(np.roll(reflected, -1, axis=axis), axis=axis)
    return (0.5 * (vals + reflected)).ravel()


@pytest.mark.parametrize("d, sites", [(1, (2, 5, 8, 33, 101)), (2, (3, 8, 13)),
                                      (3, (4, 7))], ids=["d1", "d2", "d3"])
def test_mode_sums_are_bitwise_the_loop_reference(d, sites):
    rng = np.random.default_rng(d)
    for m in sites:
        g = LatticeGrid(d, m, 0.7 * m + 0.3)
        for K in range((m + 1) // 2):  # every K < M/2
            spec = FieldSpec(base="gaussian_bump(0.7, 1.1)", gaussian_mean=0.17,
                             mode_stddevs=tuple(rng.uniform(0, 2, K)))
            for seed in (0, 1, 2**64 - 1):
                assert np.array_equal(sample_field(spec, seed, g).values,
                                      _loop_reference(spec, seed, g))


def test_non_finite_field_rejected_where_it_is_made():
    for spec in (FieldSpec(gaussian_mean=1e308), FieldSpec(gaussian_mean=float("nan")),
                 FieldSpec(mode_stddevs=(1e308, 1e308))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is the error below, not a warning
            with pytest.raises(DomainError, match="sampled field is not finite"):
                sample_field(spec, 3, GRID)


def test_single_mode_is_pure_cosine_when_even():
    spec = FieldSpec(base="zero", mode_stddevs=(1.0,))
    x = GRID.axis_coordinates()
    cos1 = np.cos(2 * np.pi * x / GRID.length)
    for seed in range(5):
        vals = sample_field(spec, seed, GRID).values
        # projection onto cos fixes the amplitude; the residual must vanish
        amp = 2 / GRID.m * np.dot(vals, cos1)
        assert np.allclose(vals, amp * cos1, atol=1e-12)


def test_site_mean_over_many_seeds():
    mean = 0.25
    spec = FieldSpec(base="zero", gaussian_mean=mean, mode_stddevs=(1.0,))
    n = 10_000
    acc = np.zeros(GRID.n_sites)
    acc2 = np.zeros(GRID.n_sites)
    for seed in range(n):
        vals = sample_field(spec, seed, GRID).values
        acc += vals
        acc2 += vals ** 2
    emp_mean = acc / n
    emp_sd = np.sqrt(np.maximum(acc2 / n - emp_mean ** 2, 0.0))
    stderr = emp_sd / np.sqrt(n)
    # site 2 sits at a cosine node: the field is deterministic there
    mask = stderr > 0
    assert np.all(np.abs(emp_mean[mask] - mean) <= 3 * stderr[mask])
    assert np.all(np.abs(emp_mean[~mask] - mean) < 1e-12)


def test_mode_coefficient_variance_calibration():
    s = 0.7
    spec = FieldSpec(base="zero", mode_stddevs=(s,))
    x = GRID.axis_coordinates()
    cos1 = np.cos(2 * np.pi * x / GRID.length)
    n = 10_000
    coeffs = np.empty(n)
    for seed in range(n):
        vals = sample_field(spec, seed, GRID).values
        coeffs[seed] = 2 / GRID.m * np.dot(vals, cos1)
    var = np.var(coeffs, ddof=1)
    se_var = s ** 2 * np.sqrt(2.0 / (n - 1))  # sampling error of a normal variance
    assert abs(var - s ** 2) <= 3 * se_var


def test_too_many_modes_rejected():
    spec = FieldSpec(base="zero", mode_stddevs=(0.1, 0.1, 0.1, 0.1))
    with pytest.raises(DomainError):
        sample_field(spec, 0, GRID)  # K = 4 is not < M/2 = 4


def test_negative_sigma_rejected():
    for s in (-0.1, float("nan")):
        with pytest.raises(DomainError):
            FieldSpec(base="zero", mode_stddevs=(0.5, s))


def test_bad_base_preset_rejected():
    with pytest.raises(ConfigError):
        FieldSpec(base="sawtooth(1.0)")
    with pytest.raises(ConfigError):
        FieldSpec(base="cosine(1.0)")


def test_mix_seed_is_deterministic_and_spread():
    seeds = [mix_seed(20240817, i) for i in range(256)]
    assert seeds == [mix_seed(20240817, i) for i in range(256)]
    assert len(set(seeds)) == 256
    assert all(0 <= s < 2 ** 64 for s in seeds)
