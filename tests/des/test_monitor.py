"""Unit tests for the Tally and TimeWeighted statistics collectors."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import Tally, TimeWeighted


class TestTally:
    def test_empty(self):
        t = Tally()
        assert t.count == 0
        assert math.isnan(t.mean)
        assert math.isnan(t.variance)
        assert math.isnan(t.percentile(50))

    def test_single_observation(self):
        t = Tally()
        t.observe(5.0)
        assert t.count == 1
        assert t.mean == 5.0
        assert t.min == 5.0
        assert t.max == 5.0
        assert math.isnan(t.variance)

    def test_known_statistics(self):
        t = Tally()
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        for x in data:
            t.observe(x)
        assert t.mean == pytest.approx(5.0)
        assert t.variance == pytest.approx(np.var(data, ddof=1))
        assert t.std == pytest.approx(np.std(data, ddof=1))
        assert t.min == 2.0
        assert t.max == 9.0
        assert t.percentile(50) == pytest.approx(np.percentile(data, 50))

    def test_no_samples_mode(self):
        t = Tally(keep_samples=False)
        t.observe(1.0)
        t.observe(3.0)
        assert t.mean == 2.0
        with pytest.raises(ValueError, match="keep_samples=True"):
            t.percentile(50)
        with pytest.raises(ValueError, match="keep_samples=False"):
            _ = t.samples

    def test_percentile_error_names_the_alternative(self):
        # The message should steer users toward the histogram that works
        # without a sample store.
        t = Tally(keep_samples=False)
        t.observe(1.0)
        with pytest.raises(ValueError, match="repro.obs.Histogram"):
            t.percentile(95)

    def test_percentile_empty_with_samples_is_nan(self):
        t = Tally(keep_samples=True)
        assert math.isnan(t.percentile(50))

    def test_percentile_with_samples(self):
        t = Tally(keep_samples=True)
        for x in (1.0, 2.0, 3.0, 4.0):
            t.observe(x)
        assert t.percentile(0) == 1.0
        assert t.percentile(100) == 4.0
        assert t.percentile(50) == 2.5

    def test_samples_array(self):
        t = Tally()
        for x in (1.0, 2.0, 3.0):
            t.observe(x)
        np.testing.assert_array_equal(t.samples, [1.0, 2.0, 3.0])

    def test_merge(self):
        a, b = Tally(), Tally()
        xs = [1.0, 5.0, 2.0]
        ys = [10.0, -3.0, 0.5, 7.0]
        for x in xs:
            a.observe(x)
        for y in ys:
            b.observe(y)
        m = a.merge(b)
        all_data = xs + ys
        assert m.count == 7
        assert m.mean == pytest.approx(np.mean(all_data))
        assert m.variance == pytest.approx(np.var(all_data, ddof=1))
        assert m.min == min(all_data)
        assert m.max == max(all_data)

    def test_merge_with_empty(self):
        a = Tally()
        a.observe(4.0)
        m = a.merge(Tally())
        assert m.count == 1
        assert m.mean == 4.0

    def test_merge_two_empty(self):
        m = Tally().merge(Tally())
        assert m.count == 0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=100))
    def test_matches_numpy(self, data):
        t = Tally()
        for x in data:
            t.observe(x)
        assert t.mean == pytest.approx(np.mean(data), rel=1e-9, abs=1e-9)
        assert t.variance == pytest.approx(np.var(data, ddof=1), rel=1e-6, abs=1e-6)

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=50),
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=50),
    )
    def test_merge_equals_sequential(self, xs, ys):
        a, b, ref = Tally(), Tally(), Tally()
        for x in xs:
            a.observe(x)
            ref.observe(x)
        for y in ys:
            b.observe(y)
            ref.observe(y)
        m = a.merge(b)
        assert m.count == ref.count
        assert m.mean == pytest.approx(ref.mean, rel=1e-9, abs=1e-9)
        assert m.variance == pytest.approx(ref.variance, rel=1e-6, abs=1e-6)


class TestTimeWeighted:
    def test_constant_signal(self):
        tw = TimeWeighted(0.0, 3.0)
        assert tw.mean(10.0) == pytest.approx(3.0)

    def test_step_signal(self):
        tw = TimeWeighted(0.0, 0.0)
        tw.update(5.0, 10.0)  # 0 for 5 units, then 10 for 5 units
        assert tw.mean(10.0) == pytest.approx(5.0)

    def test_add(self):
        tw = TimeWeighted(0.0, 1.0)
        tw.add(2.0, +1)  # 2.0 from t=2
        tw.add(4.0, -2)  # 0.0 from t=4
        # area = 1*2 + 2*2 + 0*2 = 6 over 6
        assert tw.mean(6.0) == pytest.approx(1.0)
        assert tw.value == 0.0

    def test_min_max_tracking(self):
        tw = TimeWeighted(0.0, 5.0)
        tw.update(1.0, 9.0)
        tw.update(2.0, -1.0)
        assert tw.max == 9.0
        assert tw.min == -1.0

    def test_time_backwards_rejected(self):
        tw = TimeWeighted(10.0, 0.0)
        with pytest.raises(ValueError):
            tw.update(5.0, 1.0)

    def test_mean_before_last_change_rejected(self):
        """A queue that held 1 from t=10 has no mean at t=5 (it was -1)."""
        tw = TimeWeighted(0.0, 0.0)
        tw.add(10.0, 1)
        with pytest.raises(ValueError, match="time went backwards"):
            tw.mean(5.0)
        assert tw.mean(10.0) == 0.0

    def test_mean_of_empty_span_is_nan(self):
        tw = TimeWeighted(0.0, 1.0)
        assert math.isnan(tw.mean(0.0))

    def test_utilization_pattern(self):
        """Busy/idle indicator integrates to utilization."""
        tw = TimeWeighted(0.0, 0.0)
        # busy [1, 4), idle [4, 6), busy [6, 10)
        tw.update(1.0, 1.0)
        tw.update(4.0, 0.0)
        tw.update(6.0, 1.0)
        assert tw.mean(10.0) == pytest.approx(0.7)


def _tw_state(tw):
    return (tw._area, tw._value, tw.min, tw.max, tw._last_time)


class TestTimeWeightedAddMatchesUpdate:
    """``add(t, d)`` is ``update(t, value + d)``, float for float."""

    _finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)

    @given(
        start=_finite,
        value=_finite,
        steps=st.lists(
            st.tuples(
                st.floats(min_value=-5.0, max_value=1e3, allow_nan=False),
                st.one_of(st.sampled_from([1.0, -1.0, 1, -1]), _finite),
            ),
            max_size=40,
        ),
    )
    def test_add_equals_update(self, start, value, steps):
        via_add = TimeWeighted(start, value)
        via_update = TimeWeighted(start, value)
        t = start
        for dt, delta in steps:
            t += dt
            expected = via_update._value + delta
            try:
                via_update.update(t, expected)
            except ValueError as err:
                with pytest.raises(ValueError) as caught:
                    via_add.add(t, delta)
                assert str(caught.value) == str(err)
                t -= dt
            else:
                via_add.add(t, delta)
            assert _tw_state(via_add) == _tw_state(via_update)

    def test_backwards_add_raises_and_leaves_state(self):
        tw = TimeWeighted(10.0, 2.0)
        tw.add(12.0, 1)
        before = _tw_state(tw)
        with pytest.raises(ValueError, match="time went backwards: 11.0 < 12.0"):
            tw.add(11.0, 1)
        assert _tw_state(tw) == before
