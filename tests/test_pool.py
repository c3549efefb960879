import numpy as np
import pytest

from skorokhod_kit.pool import accumulate_rows

ACCUMULATIONS = [(np.add, np.cumsum), (np.minimum, np.minimum.accumulate)]


@pytest.mark.parametrize("ufunc, reference", ACCUMULATIONS)
@pytest.mark.parametrize("shape", [(1, 100_001), (26, 5001), (3, 2), (2, 3, 50), (7,)])
def test_accumulate_rows_equals_the_nd_accumulate(ufunc, reference, shape):
    src = np.random.default_rng(sum(shape)).standard_normal(shape)
    out = np.full(shape, np.nan)
    assert accumulate_rows(ufunc, src, out) is out
    assert out.tobytes() == reference(src, axis=-1).tobytes()


@pytest.mark.parametrize("ufunc, reference", ACCUMULATIONS)
def test_accumulate_rows_over_chunks_with_a_short_last_chunk(ufunc, reference):
    # 60 rows of 5001 points in the pool's row chunks of 26: 26, 26 and 8
    src = np.random.default_rng(60).standard_normal((60, 5001))
    out = np.empty_like(src)
    for start in range(0, 60, 26):
        accumulate_rows(ufunc, src[start : start + 26], out[start : start + 26])
    assert out.tobytes() == reference(src, axis=-1).tobytes()


def test_accumulate_rows_rejects_overlap_and_a_misshapen_out():
    a = np.ones((4, 10))
    with pytest.raises(ValueError, match="shares no memory"):
        accumulate_rows(np.add, a, a)
    with pytest.raises(ValueError, match="shares no memory"):
        accumulate_rows(np.add, a[:, :-1], a[:, 1:])
    with pytest.raises(ValueError, match=r"out shaped \(4, 10\), got \(3, 10\)"):
        accumulate_rows(np.add, a, np.empty((3, 10)))
