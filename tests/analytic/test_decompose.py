"""Tests for the trace decomposition's request grouping."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.decompose import _group_spans

spans_st = st.integers(min_value=1, max_value=3).flatmap(
    lambda k: st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=21)] * k), max_size=60
    )
)


class TestGroupSpans:
    @given(rows=spans_st)
    @settings(max_examples=200, deadline=None)
    def test_matches_row_sort(self, rows):
        """Same tuples, same lexicographic order and same masks as
        ``np.unique(axis=0)`` over the stacked columns."""
        if not rows:
            assert list(_group_spans(np.zeros(0, dtype=np.int64))) == []
            return
        columns = [np.array(c, dtype=np.int64) for c in zip(*rows)]
        uniq, inverse = np.unique(
            np.stack(columns, axis=1), axis=0, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        groups = list(_group_spans(*columns))
        assert [combo for combo, _ in groups] == [tuple(map(int, u)) for u in uniq]
        for i, (_, mask) in enumerate(groups):
            assert np.array_equal(mask, inverse == i)
