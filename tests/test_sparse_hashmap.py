"""Unit and property-based tests for packed coordinate keys."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import pack_coords, unpack_coords


def test_pack_unpack_round_trip():
    coords = np.array([[0, 0, 0], [191, 191, 191], [1, 2, 3]])
    assert np.array_equal(unpack_coords(pack_coords(coords)), coords)


def test_pack_rejects_negative_and_oversized():
    with pytest.raises(ValueError):
        pack_coords(np.array([[-1, 0, 0]]))
    with pytest.raises(ValueError):
        pack_coords(np.array([[1 << 21, 0, 0]]))


def test_pack_preserves_lexicographic_order():
    rng = np.random.default_rng(0)
    coords = rng.integers(0, 500, size=(200, 3))
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    keys = pack_coords(coords[order])
    assert np.all(np.diff(keys) >= 0)


@given(
    st.lists(
        st.tuples(st.integers(0, 2**21 - 1), st.integers(0, 2**21 - 1),
                  st.integers(0, 2**21 - 1)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_pack_is_injective(coord_list):
    coords = np.array(coord_list, dtype=np.int64)
    keys = pack_coords(coords)
    unique_coords = np.unique(coords, axis=0)
    assert len(np.unique(keys)) == len(unique_coords)
