import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scipy.special import ndtri

from skorokhod_kit import GenerationError, RngSeed, TimeGrid, brownian_sample
from skorokhod_kit import randomness
from skorokhod_kit.randomness import (
    brownian_increments,
    brownian_path_blocks,
    brownian_paths,
    inverse_cdf,
    keyed_uniforms,
    normal_blocks,
    normal_matrix,
    path_values,
)


def generator_normals(gen, n):
    """Oracle: n normals of a Philox generator by inverse CDF at the 53-bit cell midpoints."""
    return ndtri(gen.random(n) + 2**-54)


def test_identical_seed_bit_identical():
    grid = TimeGrid.uniform(1.0, 500)
    a = brownian_sample(grid, 2, [0.0, 0.0], RngSeed(123, 4))
    b = brownian_sample(grid, 2, [0.0, 0.0], RngSeed(123, 4))
    assert np.array_equal(a.values, b.values)


def test_distinct_streams_differ():
    grid = TimeGrid.uniform(1.0, 100)
    a = brownian_sample(grid, 1, 0.0, RngSeed(123, 0))
    b = brownian_sample(grid, 1, 0.0, RngSeed(123, 1))
    assert not np.array_equal(a.values, b.values)
    corr = np.corrcoef(np.diff(a.scalar_values), np.diff(b.scalar_values))[0, 1]
    assert abs(corr) < 0.35


def test_truncated_grid_is_a_prefix():
    long = brownian_sample(TimeGrid.uniform(2.0, 200), 1, 0.0, RngSeed(9))
    short = brownian_sample(TimeGrid.uniform(1.0, 100), 1, 0.0, RngSeed(9))
    # same step width, so the first 100 increments coincide bit for bit
    assert np.array_equal(np.diff(short.scalar_values), np.diff(long.scalar_values)[:100])


def test_point_mass_start_is_exact():
    grid = TimeGrid.uniform(1.0, 10)
    path = brownian_sample(grid, 3, [1.0, -2.0, 0.25], RngSeed(0))
    assert np.array_equal(path.values[0, 0], [1.0, -2.0, 0.25])
    scalar = brownian_sample(grid, 2, 0.0, RngSeed(0))
    assert np.array_equal(scalar.values[0, 0], [0.0, 0.0])


def test_start_needs_one_or_d_coordinates():
    grid = TimeGrid.uniform(1.0, 4)
    for x0 in ([0.0, 0.0], np.zeros(4)):
        with pytest.raises(ValueError, match=r"x0 needs 1 or d = 3 coordinates \(d >= 1\), got "):
            brownian_sample(grid, 3, x0, RngSeed(11))
        with pytest.raises(ValueError, match=r"x0 needs 1 or d = 3 coordinates \(d >= 1\), got "):
            brownian_paths(RngSeed(11), 2, grid, 3, x0)
    with pytest.raises(ValueError, match=r"d = 0 coordinates \(d >= 1\), got 1"):
        brownian_paths(RngSeed(11), 2, grid, 0)


def test_non_finite_start_is_a_generation_fault():
    grid = TimeGrid.uniform(1.0, 4)
    with pytest.raises(GenerationError):
        brownian_sample(grid, 1, np.nan, RngSeed(0))


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
            brownian_sample(grid, 1, 0.0, RngSeed(77, i)).scalar_values[-1]
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
    # a stream's first 100 normals are a prefix of its first 300
    a = normal_matrix(RngSeed(5), 2, 100)
    b = normal_matrix(RngSeed(5), 2, 300)
    assert np.array_equal(a, b[:, :100])
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
        assert np.array_equal(z[i], generator_normals(gen, n_cols))


def drawn_blocks(rng, n_rows, col_start, scale, first_stream=0):
    """normal_blocks' rows gathered in one array, and (first_row, rows) of each finish."""
    rows = np.full((n_rows, len(scale)), np.nan)
    finished, lock = [], threading.Lock()

    def finish(first_row, block):
        with lock:
            finished.append((first_row, len(block)))
        rows[first_row : first_row + len(block)] = block

    normal_blocks(rng, n_rows, col_start, scale, finish, first_stream)
    return rows, sorted(finished)


@pytest.mark.parametrize("col_start, n_cols", [(0, 16), (4, 100), (1024, 512), (2048, 3)])
def test_normal_tile_is_a_slice_of_normal_matrix(col_start, n_cols):
    # (2048, 3) is the odd-width end tile of a 2051-column matrix
    rng = RngSeed(31, 2**32 + 7)
    whole = normal_matrix(rng, 5, 2051, first_stream=9)
    tile, _ = drawn_blocks(rng, 5, col_start, np.ones(n_cols), first_stream=9)
    assert np.array_equal(tile, whole[:, col_start : col_start + n_cols])
    out = np.empty((5, n_cols))
    assert keyed_uniforms(rng, 5, col_start, n_cols, first_stream=9, out=out) is out
    assert inverse_cdf(out) is out
    assert np.array_equal(out, tile)


@pytest.mark.parametrize("workers", ["1", "2", "3"])
@pytest.mark.parametrize("n_rows", [5, 64, 130])
def test_normal_blocks_finish_every_row_once_with_its_scaled_slice(
    workers, n_rows, monkeypatch, bounded
):
    # 130 rows are blocks of 64, 64 and 2; 5 rows one short block
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
    rng = RngSeed(4, 2**32)
    scale = np.linspace(0.05, 3.0, 12)
    before = set(threading.enumerate())
    rows, finished = bounded(lambda: drawn_blocks(rng, n_rows, 8, scale, first_stream=3))
    assert finished == [(a, min(64, n_rows - a)) for a in range(0, n_rows, 64)]
    expected = normal_matrix(rng, n_rows, 20, first_stream=3)[:, 8:] * scale
    assert rows.tobytes() == expected.tobytes()
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("workers", ["1", "2", "3"])
@pytest.mark.parametrize(
    "n_rows, n_cols, rows",
    [(130, 12, 64), (130, 2048, 64), (60, 5000, 26), (3, 100_000, 1)],
)
def test_normal_blocks_hold_at_most_64_rows_and_1_mib(
    workers, n_rows, n_cols, rows, monkeypatch, bounded
):
    # blocks of `rows` rows, the last one short: 64, 64 and 2 rows; 26, 26
    # and 8 rows of 5000 columns; one row each of 100,000 columns
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
    rng = RngSeed(6, 11)
    scale = np.linspace(0.5, 2.0, n_cols)
    got, finished = bounded(lambda: drawn_blocks(rng, n_rows, 8, scale))
    assert finished == [(a, min(rows, n_rows - a)) for a in range(0, n_rows, rows)]
    assert all(m <= 64 and m * n_cols <= 1 << 17 for _, m in finished)
    expected = normal_matrix(rng, n_rows, 8 + n_cols)[:, 8:] * scale
    assert got.tobytes() == expected.tobytes()


def _keyed_uniforms_oracle(rng, n_rows, col_start, n_cols, first_stream):
    return [
        RngSeed(rng.seed, rng.stream + first_stream + i).generator().random(col_start + n_cols)[
            col_start:
        ]
        for i in range(n_rows)
    ]


def test_reused_thread_generator_leaks_no_state():
    # Each thread re-keys one Philox across calls. Widths that are not a
    # multiple of 4 leave its 4-word output buffer partly used, the column
    # starts move the counter back and forth, two threads interleave their
    # calls, and the stream keys wrap at 2**64.
    calls = [
        (RngSeed(2**64 + 5, 2**64 - 3), 5, col_start, n_cols, first_stream)
        for col_start in (0, 4, 1024, 4, 0)
        for n_cols, first_stream in ((3, 0), (7, 1), (1, 2**64), (10, 0))
    ]
    mismatches = []

    def run(order, barrier):
        try:
            for rng, n_rows, col_start, n_cols, first_stream in order:
                barrier.wait()
                u = keyed_uniforms(rng, n_rows, col_start, n_cols, first_stream)
                expected = _keyed_uniforms_oracle(rng, n_rows, col_start, n_cols, first_stream)
                if not all(np.array_equal(row, ref) for row, ref in zip(u, expected)):
                    mismatches.append((threading.current_thread().name, col_start, n_cols))
        except Exception as err:  # recorded, and the other thread released
            mismatches.append(repr(err))
            barrier.abort()

    barrier = threading.Barrier(2, timeout=60)
    threads = [
        threading.Thread(target=run, args=(order, barrier), name=name, daemon=True)
        for name, order in (("forward", calls), ("backward", calls[::-1]))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    run([calls[0], calls[-1], calls[0]], threading.Barrier(1))  # this thread, after the others
    assert mismatches == []


@pytest.mark.parametrize("col_start", [1, 2, 3, 1026])
def test_normal_tile_starts_on_a_philox_block(col_start):
    with pytest.raises(ValueError, match="multiple of 4"):
        drawn_blocks(RngSeed(1), 2, col_start, np.ones(8))


@pytest.mark.parametrize(
    "n_rows, col_start, n_cols, out, message",
    [
        (3, 0, 4, np.full((5, 4), -1.0), r"out shaped \(3, 4\), got \(5, 4\)"),
        (2, 0, 8, np.empty((2, 3)), r"out shaped \(2, 8\), got \(2, 3\)"),
        (2, -4, 8, None, "col_start must be a non-negative multiple of 4, got -4"),
    ],
    ids=["out-has-more-rows", "out-has-fewer-cols", "negative-col-start"],
)
def test_keyed_uniforms_rejects_a_misshapen_out_and_a_negative_col_start(
    n_rows, col_start, n_cols, out, message
):
    with pytest.raises(ValueError, match=message):
        keyed_uniforms(RngSeed(1), n_rows, col_start, n_cols, out=out)


@pytest.mark.parametrize("prior", [0, 1, 2])
@pytest.mark.parametrize("stream", [0, 1, 2**32 + 7, 2**64 - 1])
def test_standard_normals_equal_the_integer_midpoint_route(prior, stream):
    # reference: (k + 0.5) / 2**53 over 53-bit integers k, then ndtri, for
    # tiles that start after `prior` Philox blocks of 4 normals
    rng = RngSeed(9, stream)
    for n in (0, 1, 1000):
        ref = rng.generator()
        ref.random(4 * prior)
        k = ref.integers(0, 2**53, size=n, dtype=np.uint64)
        expected = ndtri((k.astype(np.float64) + 0.5) / 2.0**53)
        assert drawn_blocks(rng, 1, 4 * prior, np.ones(n))[0][0].tobytes() == expected.tobytes()


@given(st.integers(min_value=0, max_value=2**53 - 1))
@example(0)
@example(1)
@example(2**52 - 1)
@example(2**52)
@example(2**53 - 1)
def test_uniform_fill_plus_half_ulp_is_the_midpoint_map(k):
    # inverse_cdf adds 2**-54 to Generator.random's k * 2**-53, which
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
        B = brownian_sample(grid, 3, x0, RngSeed(6, 2**32 + 1 + i))
        assert np.array_equal(values[i], B.values[0])
    with pytest.raises(GenerationError):
        brownian_paths(RngSeed(6), 2, grid, 2, [np.inf, 0.0])


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_brownian_path_blocks_are_the_brownian_paths_rows(workers, monkeypatch, bounded):
    # blocks of 7 rows: 30 paths make four blocks of 7 and a short one of 2
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
    monkeypatch.setattr(randomness, "_block_rows", lambda n_cols: 7)
    grid = TimeGrid(np.array([0.0, 0.1, 0.15, 0.6, 1.0, 1.7]))
    rng = RngSeed(8, 2**32 + 3)
    got_dB = np.full((30, len(grid) - 1), np.nan)
    got = np.full((30, len(grid)), np.nan)
    firsts = []

    def finish(a, dB, values):
        firsts.append((a, len(values)))
        got_dB[a : a + len(dB)] = dB
        got[a : a + len(values)] = values

    bounded(lambda: brownian_path_blocks(rng, 30, grid, finish, first_stream=5))
    assert sorted(firsts) == [(0, 7), (7, 7), (14, 7), (21, 7), (28, 2)]
    increments = normal_matrix(rng, 30, len(grid) - 1, first_stream=5) * np.sqrt(grid.deltas)
    assert got_dB.tobytes() == increments.tobytes()
    assert got.tobytes() == brownian_paths(rng, 30, grid, first_stream=5)[..., 0].tobytes()

    # an inf increment in the middle of a row makes the rest of that path
    # non-finite: a GenerationError, and finish never sees the block
    drawn = randomness.normal_blocks

    def poisoned(rng, n_rows, col_start, scale, finish, first_stream=0):
        def poison(a, dB):
            if a == 14:
                dB[3, 2] = np.inf
            finish(a, dB)

        drawn(rng, n_rows, col_start, scale, poison, first_stream)

    monkeypatch.setattr(randomness, "normal_blocks", poisoned)
    firsts.clear()
    with pytest.raises(GenerationError, match="non-finite"):
        bounded(lambda: brownian_path_blocks(rng, 30, grid, finish, first_stream=5))
    assert (14, 7) not in firsts


def test_brownian_increments_are_the_sample_increments():
    # the rows' running sums are brownian_sample from 0, bit for bit, on a
    # nonuniform grid
    grid = TimeGrid(np.array([0.0, 0.1, 0.15, 0.6, 1.0, 1.7]))
    dB = brownian_increments(RngSeed(11, 3), 4, grid, 2)
    assert dB.shape == (4, 5, 2)
    for i in range(4):
        B = brownian_sample(grid, 2, [0.0, 0.0], RngSeed(11, 3 + i))
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
        assert np.array_equal(z[i], generator_normals(gen, 8))


@pytest.mark.parametrize("shape", [(5, 300, 1), (5, 300, 2), (300, 1), (2, 3, 40, 1)])
def test_path_values_equal_one_nd_cumsum(shape):
    # d = 1 sums one row per call, d > 1 one n-d cumsum: both are the n-d
    # running sum plus x0, bit for bit
    increments = np.random.default_rng(shape[-2]).standard_normal(shape)
    x0 = np.linspace(0.5, 1.0, shape[-1])
    want = np.concatenate(
        [np.broadcast_to(x0, shape[:-2] + (1, shape[-1])), np.cumsum(increments, axis=-2) + x0],
        axis=-2,
    )
    assert path_values(x0, increments).tobytes() == want.tobytes()
