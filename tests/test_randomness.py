import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from skorokhod_kit import GenerationError, InitialLaw, RngSeed, TimeGrid, brownian_sample
from skorokhod_kit import gaussian_kernel
from skorokhod_kit.randomness import (
    brownian_increments,
    brownian_paths,
    normal_matrix,
    normal_tile,
    standard_normals,
)


def test_identical_seed_bit_identical():
    grid = TimeGrid.uniform(1.0, 500)
    a = brownian_sample(grid, 2, InitialLaw.point_mass([0.0, 0.0]), RngSeed(123, 4))
    b = brownian_sample(grid, 2, InitialLaw.point_mass([0.0, 0.0]), RngSeed(123, 4))
    assert np.array_equal(a.values, b.values)


def test_distinct_streams_differ():
    grid = TimeGrid.uniform(1.0, 100)
    a = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(123, 0))
    b = brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(123, 1))
    assert not np.array_equal(a.values, b.values)
    corr = np.corrcoef(np.diff(a.scalar_values), np.diff(b.scalar_values))[0, 1]
    assert abs(corr) < 0.35


def test_truncated_grid_is_a_prefix():
    long = brownian_sample(TimeGrid.uniform(2.0, 200), 1, InitialLaw.point_mass(0.0), RngSeed(9))
    short = brownian_sample(TimeGrid.uniform(1.0, 100), 1, InitialLaw.point_mass(0.0), RngSeed(9))
    # same step width, so the first 100 increments coincide bit for bit
    assert np.array_equal(np.diff(short.scalar_values), np.diff(long.scalar_values)[:100])


def test_point_mass_start_is_exact():
    grid = TimeGrid.uniform(1.0, 10)
    path = brownian_sample(grid, 3, InitialLaw.point_mass([1.0, -2.0, 0.25]), RngSeed(0))
    assert np.array_equal(path.values[0, 0], [1.0, -2.0, 0.25])
    scalar = brownian_sample(grid, 2, InitialLaw.point_mass(0.0), RngSeed(0))
    assert np.array_equal(scalar.values[0, 0], [0.0, 0.0])


def test_custom_law_draws_and_dimension_check():
    grid = TimeGrid.uniform(1.0, 4)
    law = InitialLaw.custom(lambda gen, d: gen.random(d))
    path = brownian_sample(grid, 2, law, RngSeed(11))
    assert np.all(path.values[0, 0] >= 0.0) and np.all(path.values[0, 0] < 1.0)
    bad = InitialLaw.custom(lambda gen, d: np.zeros(d + 1))
    with pytest.raises(ValueError):
        brownian_sample(grid, 2, bad, RngSeed(11))


def test_non_finite_start_is_a_generation_fault():
    grid = TimeGrid.uniform(1.0, 4)
    law = InitialLaw.custom(lambda gen, d: np.full(d, np.nan))
    with pytest.raises(GenerationError):
        brownian_sample(grid, 1, law, RngSeed(0))


def test_initial_law_requires_exactly_one_variant():
    with pytest.raises(ValueError):
        InitialLaw()
    with pytest.raises(ValueError):
        InitialLaw(point=np.zeros(1), sampler=lambda gen, d: np.zeros(d))


def test_increment_moments():
    # mean and variance of each increment within 4 standard errors
    n_paths, n_steps = 10_000, 8
    grid = TimeGrid.uniform(0.4, n_steps)
    dt = 0.4 / n_steps
    z = normal_matrix(RngSeed(2024), n_paths, n_steps)
    increments = z * np.sqrt(dt)
    means = increments.mean(axis=0)
    varis = increments.var(axis=0, ddof=1)
    se_mean = np.sqrt(dt / n_paths)
    se_var = dt * np.sqrt(2.0 / (n_paths - 1))
    assert np.all(np.abs(means) <= 4.0 * se_mean)
    assert np.all(np.abs(varis - dt) <= 4.0 * se_var)


def test_terminal_variance_close_to_horizon():
    # var of B_1 within 3 standard errors of 1 across sampled paths
    n_paths = 10_000
    grid = TimeGrid.uniform(1.0, 64)
    terminals = np.array(
        [
            brownian_sample(grid, 1, InitialLaw.point_mass(0.0), RngSeed(77, i)).scalar_values[-1]
            for i in range(200)
        ]
    )
    # same draws through the bulk generator, same arithmetic order
    z = normal_matrix(RngSeed(77), n_paths, 64)
    big = np.cumsum(z * np.sqrt(grid.deltas), axis=1)[:, -1]
    se = np.sqrt(2.0 / (n_paths - 1))
    assert abs(big.var(ddof=1) - 1.0) <= 3.0 * se
    assert np.array_equal(terminals, big[:200])


def test_standard_normals_prefix_and_range():
    gen = RngSeed(5).generator()
    a = standard_normals(gen, 100)
    gen2 = RngSeed(5).generator()
    b = standard_normals(gen2, 300)
    assert np.array_equal(a, b[:100])
    assert np.all(np.isfinite(b))


@pytest.mark.parametrize("seed", [0, -5, 2**63, 2**64 + 3])
@pytest.mark.parametrize("first_stream", [0, 2**32, 2**64 - 2])
@pytest.mark.parametrize("n_cols", [0, 1, 7, 1001])
def test_normal_matrix_rows_match_per_stream_draws(seed, first_stream, n_cols):
    # the last first_stream makes row 2 wrap the stream key to 0
    z = normal_matrix(RngSeed(seed), 3, n_cols, first_stream=first_stream)
    assert z.shape == (3, n_cols)
    for i in range(3):
        gen = RngSeed(seed, first_stream + i).generator()
        assert np.array_equal(z[i], standard_normals(gen, n_cols))


@pytest.mark.parametrize("col_start, n_cols", [(0, 16), (4, 100), (1024, 512), (2048, 3)])
def test_normal_tile_is_a_slice_of_normal_matrix(col_start, n_cols):
    # (2048, 3) is the odd-width end tile of a 2051-column matrix
    rng = RngSeed(31, 2**32 + 7)
    whole = normal_matrix(rng, 5, 2051, first_stream=9)
    tile = normal_tile(rng, 5, col_start, n_cols, first_stream=9)
    assert np.array_equal(tile, whole[:, col_start : col_start + n_cols])
    out = np.empty((5, n_cols))
    assert normal_tile(rng, 5, col_start, n_cols, first_stream=9, out=out) is out
    assert np.array_equal(out, tile)


@pytest.mark.parametrize("col_start", [1, 2, 3, 1026])
def test_normal_tile_starts_on_a_philox_block(col_start):
    with pytest.raises(ValueError, match="multiple of 4"):
        normal_tile(RngSeed(1), 2, col_start, 8)


@pytest.mark.parametrize("prior", [0, 1, 2])
@pytest.mark.parametrize("stream", [0, 1, 2**32 + 7, 2**64 - 1])
def test_standard_normals_equal_the_integer_midpoint_route(prior, stream):
    # reference: (k + 0.5) / 2**53 over 53-bit integers k, then ndtri;
    # the same values and the same generator state afterwards
    from scipy.special import ndtri

    gen, ref = RngSeed(9, stream).generator(), RngSeed(9, stream).generator()
    gen.random(prior)
    ref.random(prior)
    for n in (0, 1, 1000):
        k = ref.integers(0, 2**53, size=n, dtype=np.uint64)
        expected = ndtri((k.astype(np.float64) + 0.5) / 2.0**53)
        assert standard_normals(gen, n).tobytes() == expected.tobytes()
    assert repr(gen.bit_generator.state) == repr(ref.bit_generator.state)  # arrays inside


@given(st.integers(min_value=0, max_value=2**53 - 1))
@example(0)
@example(1)
@example(2**52 - 1)
@example(2**52)
@example(2**53 - 1)
def test_uniform_fill_plus_half_ulp_is_the_midpoint_map(k):
    # standard_normals adds 2**-54 to Generator.random's k * 2**-53, which
    # rounds as the midpoint (k + 0.5) / 2**53: both round (2k + 1) * 2**-54
    assert float(k) * 2.0**-53 + 2.0**-54 == (float(k) + 0.5) / 2.0**53
    u = np.array([k], dtype=np.uint64).astype(np.float64)
    assert np.array_equal(u * 2.0**-53 + 2.0**-54, (u + 0.5) / 2.0**53)


def test_brownian_paths_match_per_path_samples():
    grid = TimeGrid.uniform(0.7, 90)
    x0 = [0.25, -1.5, 3.0]
    values = brownian_paths(RngSeed(6, 2**32), 5, grid, 3, x0, first_stream=1)
    assert values.shape == (5, 91, 3)
    for i in range(5):
        B = brownian_sample(grid, 3, InitialLaw.point_mass(x0), RngSeed(6, 2**32 + 1 + i))
        assert np.array_equal(values[i], B.values[0])
    with pytest.raises(GenerationError):
        brownian_paths(RngSeed(6), 2, grid, 2, [np.inf, 0.0])


def test_brownian_increments_are_the_sample_increments():
    # the rows' running sums are brownian_sample from 0, bit for bit, on a
    # nonuniform grid
    grid = TimeGrid(np.array([0.0, 0.1, 0.15, 0.6, 1.0, 1.7]))
    dB = brownian_increments(RngSeed(11, 3), 4, grid, 2)
    assert dB.shape == (4, 5, 2)
    for i in range(4):
        B = brownian_sample(grid, 2, InitialLaw.point_mass([0.0, 0.0]), RngSeed(11, 3 + i))
        assert np.array_equal(np.cumsum(dB[i], axis=0), B.values[0, 1:])


def test_stream_blocks_draw_distinct_rows():
    # row i comes from stream rng.stream + first_stream + i, so a second
    # stream block of one seed shares no row with the first
    grid = TimeGrid.uniform(1.0, 16)
    block0 = brownian_increments(RngSeed(13, 0), 3, grid)
    block1 = brownian_increments(RngSeed(13, 2**32), 3, grid)
    assert not np.any(np.all(block0 == block1, axis=(1, 2)))
    shifted = brownian_increments(RngSeed(13), 3, grid, first_stream=2**32)
    assert np.array_equal(block1, shifted)
    z = normal_matrix(RngSeed(13, 2**32), 2, 8, first_stream=5)
    for i in range(2):
        gen = RngSeed(13, 2**32 + 5 + i).generator()
        assert np.array_equal(z[i], standard_normals(gen, 8))


def test_gaussian_kernel_values():
    assert gaussian_kernel(1.0, 0.0) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), abs=1e-12)
    assert gaussian_kernel(0.5, [0.0, 0.0]) == pytest.approx(1.0 / np.pi, abs=1e-12)
    # d=2 kernel equals the product of two d=1 kernels
    x = np.array([0.3, -1.2])
    prod = gaussian_kernel(0.5, x[0]) * gaussian_kernel(0.5, x[1])
    assert gaussian_kernel(0.5, x) == pytest.approx(prod, rel=1e-12)


def test_gaussian_kernel_decays_monotonically():
    radii = np.linspace(0.0, 5.0, 30)
    vals = [gaussian_kernel(2.0, [r, 0.0]) for r in radii]
    assert np.all(np.diff(vals) < 0.0)


def test_gaussian_kernel_domain_error():
    with pytest.raises(ValueError):
        gaussian_kernel(0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_kernel(-1.0, 0.0)
