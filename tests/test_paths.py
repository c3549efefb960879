import numpy as np
import pytest

from skorokhod_kit import PathKind, SampledPath, TimeGrid


def test_uniform_grid_matches_arithmetic_sequence():
    T, n = 1.0, 3
    grid = TimeGrid.uniform(T, n)
    expected = np.array([k * (T / n) for k in range(n + 1)])
    assert np.array_equal(grid.times, expected)
    assert grid.times[0] == 0.0
    assert grid.horizon == grid.times[-1]


def test_uniform_grid_is_close_to_exact_ratio():
    grid = TimeGrid.uniform(math_t := 0.7, 13)
    for k, t in enumerate(grid.times):
        assert t == pytest.approx(k * math_t / 13, rel=4e-16, abs=0.0)


@pytest.mark.parametrize(
    "times",
    [
        [0.0],  # too short
        [0.0, 1.0, 1.0],  # zero step
        [0.0, 2.0, 1.0],  # decreasing
        [0.5, 1.0],  # does not start at 0
        [0.0, np.inf],
    ],
)
def test_bad_grids_rejected(times):
    with pytest.raises(ValueError):
        TimeGrid(np.array(times))


def test_degenerate_uniform_grid_rejected():
    with pytest.raises(ValueError):
        TimeGrid.uniform(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid.uniform(0.0, 10)


def test_sampled_path_shapes_and_dim():
    grid = TimeGrid.uniform(1.0, 2)
    p1 = SampledPath.continuous(grid, [0.0, 1.0, 2.0])
    assert p1.dim == 1
    assert p1.values.shape == (1, 3, 1)
    assert np.array_equal(p1.scalar_values, [0.0, 1.0, 2.0])
    p2 = SampledPath.step(grid, np.zeros((3, 2)))
    assert p2.dim == 2
    assert p2.values.shape == (1, 3, 2)
    assert p2.n_paths == 1
    with pytest.raises(ValueError):
        p2.scalar_values


def test_sampled_path_validation():
    grid = TimeGrid.uniform(1.0, 2)
    with pytest.raises(ValueError):
        SampledPath.continuous(grid, [0.0, 1.0])  # wrong length
    with pytest.raises(ValueError):
        SampledPath.continuous(grid, [0.0, np.nan, 1.0])


def test_values_frozen():
    grid = TimeGrid.uniform(1.0, 2)
    p = SampledPath.continuous(grid, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        p.values[0, 0] = 5.0
    with pytest.raises(ValueError):
        grid.times[0] = 1.0


def test_with_kind_and_scale():
    grid = TimeGrid.uniform(1.0, 2)
    p = SampledPath.continuous(grid, [0.0, -3.0, 2.0])
    assert p.with_kind(PathKind.STEP).kind is PathKind.STEP
    assert p.scale() == 3.0
    tiny = SampledPath.continuous(grid, [0.0, 0.1, 0.2])
    assert tiny.scale() == 1.0


# --- the batch carrier -------------------------------------------------------


def test_batches_of_one_from_grid_and_grid_by_d_input():
    grid = TimeGrid.uniform(1.0, 3)
    scalar = SampledPath.continuous(grid, [0.0, 1.0, -2.0, 0.5])
    column = SampledPath.continuous(grid, [[0.0], [1.0], [-2.0], [0.5]])
    batch = SampledPath.continuous(grid, [[[0.0], [1.0], [-2.0], [0.5]]])
    for p in (scalar, column, batch):
        assert p.values.shape == (1, 4, 1)
        assert p.n_paths == 1
        assert p.values.tobytes() == scalar.values.tobytes()
    plane = SampledPath.step(grid, np.arange(8.0).reshape(4, 2))
    assert plane.values.shape == (1, 4, 2)
    assert np.array_equal(plane.values[0], np.arange(8.0).reshape(4, 2))


@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 3, 2)])
def test_batch_values_are_read_only(shape):
    grid = TimeGrid.uniform(1.0, 2)
    source = np.zeros(shape)
    p = SampledPath.step(grid, source)
    with pytest.raises(ValueError):
        p.values[-1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        p[-1].values[0, 0, 0] = 1.0
    # the values are not copied, so the source array is frozen too
    with pytest.raises(ValueError):
        source[0] = 1.0


@pytest.mark.parametrize("shape", [(0, 3, 2), (0, 3, 1)])
def test_zero_path_batch_rejected(shape):
    grid = TimeGrid.uniform(1.0, 2)
    with pytest.raises(ValueError, match="at least one path"):
        SampledPath.continuous(grid, np.zeros(shape))
    two = SampledPath.continuous(grid, np.zeros((2, 3, shape[2])))
    with pytest.raises(ValueError, match="at least one path"):
        two[2:]


def test_scalar_values_refuses_a_batch_naming_its_shape():
    grid = TimeGrid.uniform(1.0, 2)
    two = SampledPath.continuous(grid, np.zeros((2, 3, 1)))
    with pytest.raises(ValueError, match=r"\(2, 3, 1\)"):
        two.scalar_values
    assert np.array_equal(two[1].scalar_values, np.zeros(3))


def test_row_selection_equals_the_batch_of_one_built_from_the_row():
    grid = TimeGrid(np.array([0.0, 0.5, 1.25, 2.0]))
    values = np.random.default_rng(3).standard_normal((5, 4, 2))
    batch = SampledPath.step(grid, values)
    for i in range(-5, 5):
        row = batch[i]
        solo = SampledPath.step(grid, values[i])
        assert row.kind is PathKind.STEP and row.grid is grid
        assert row.values.shape == solo.values.shape == (1, 4, 2)
        assert row.values.tobytes() == solo.values.tobytes()
    assert batch[1:4].values.tobytes() == values[1:4].tobytes()
    with pytest.raises(IndexError):
        batch[5]


def test_scale_per_path():
    grid = TimeGrid(np.array([0.0, 1.0, 3.0]))
    values = np.array([[[0.0], [2.0], [4.0]], [[0.0], [-0.5], [0.25]]])
    assert np.array_equal(SampledPath.continuous(grid, values).scale(), [4.0, 1.0])
