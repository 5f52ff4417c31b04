"""Tests for the analytical models, including cross-checks against the
discrete-event simulator."""

import math

import numpy as np
import pytest

from repro.des import Environment
from repro.disk import AccessKind, Disk, DiskGeometry, DiskRequest, SeekModel
from repro.layout import ParityPlacement
from repro.models import (
    mg1_response_time,
    mg1_waiting_time,
    preferred_placement,
    zero_load_response,
)
from repro.models.gray import ZeroLoadModel
from repro.models.parity_placement import (
    data_area_access_rate,
    parity_area_access_rate,
)
from repro.models.queueing import mm1_response_time


class TestParityPlacementRule:
    def test_rates(self):
        assert data_area_access_rate(10) == pytest.approx(0.01)
        assert parity_area_access_rate(10, 0.1) == pytest.approx(0.01)

    def test_paper_cutoff_for_trace1(self):
        """w = 0.1: middle placement for N > 10, end for N < 10."""
        assert preferred_placement(20, 0.1) is ParityPlacement.MIDDLE
        assert preferred_placement(15, 0.1) is ParityPlacement.MIDDLE
        assert preferred_placement(5, 0.1) is ParityPlacement.END

    def test_high_write_fraction_prefers_middle(self):
        assert preferred_placement(5, 0.5) is ParityPlacement.MIDDLE

    def test_validation(self):
        with pytest.raises(ValueError):
            data_area_access_rate(0)
        with pytest.raises(ValueError):
            parity_area_access_rate(10, 1.5)


class TestZeroLoadModel:
    @pytest.fixture(scope="class")
    def model(self):
        return ZeroLoadModel(DiskGeometry(), SeekModel.fit())

    def test_read_components(self, model):
        assert model.read(1) == pytest.approx(11.2 + 11.111 / 2 + 1.852, abs=0.01)

    def test_rmw_adds_revolution(self, model):
        assert model.rmw_update(1) - model.write(1) == pytest.approx(
            model.geometry.revolution_time
        )

    def test_mirrored_write_slower_than_plain(self, model):
        assert model.mirrored_write(1) > model.write(1)

    def test_wrapper_dispatch(self):
        assert zero_load_response("base", False) == zero_load_response("raid5", False)
        assert zero_load_response("raid5", True) > zero_load_response("base", True)
        with pytest.raises(ValueError):
            zero_load_response("raid6", True)

    def test_simulation_matches_read_model(self, model):
        """Empirical check: mean idle-disk read response over random
        blocks converges to the model."""
        env = Environment()
        geo, sm = DiskGeometry(), SeekModel.fit()
        disk = Disk(env, geo, sm)
        rng = np.random.default_rng(3)
        times = []

        def proc(env):
            for _ in range(400):
                # Re-randomise arm position and rotation phase.
                disk.cylinder = int(rng.integers(0, geo.cylinders))
                yield env.timeout(float(rng.uniform(0, 50)))
                t0 = env.now
                req = disk.submit(DiskRequest(AccessKind.READ, int(rng.integers(0, geo.total_blocks))))
                yield req.done
                times.append(env.now - t0)

        env.process(proc(env))
        env.run()
        assert np.mean(times) == pytest.approx(model.read(1), rel=0.05)

    def test_simulation_matches_rmw_model(self, model):
        env = Environment()
        geo, sm = DiskGeometry(), SeekModel.fit()
        disk = Disk(env, geo, sm)
        rng = np.random.default_rng(4)
        times = []

        def proc(env):
            for _ in range(400):
                disk.cylinder = int(rng.integers(0, geo.cylinders))
                yield env.timeout(float(rng.uniform(0, 50)))
                t0 = env.now
                req = disk.submit(DiskRequest(AccessKind.RMW, int(rng.integers(0, geo.total_blocks))))
                yield req.done
                times.append(env.now - t0)

        env.process(proc(env))
        env.run()
        assert np.mean(times) == pytest.approx(model.rmw_update(1), rel=0.05)


class TestQueueingModels:
    def test_mg1_reduces_to_mm1(self):
        lam, mean = 0.02, 20.0
        second = 2 * mean * mean  # exponential: E[S^2] = 2 E[S]^2
        assert mg1_response_time(lam, mean, second) == pytest.approx(
            mm1_response_time(lam, mean)
        )

    def test_deterministic_service_halves_waiting(self):
        lam, mean = 0.02, 20.0
        w_det = mg1_waiting_time(lam, mean, mean * mean)
        w_exp = mg1_waiting_time(lam, mean, 2 * mean * mean)
        assert w_det == pytest.approx(w_exp / 2)

    def test_zero_arrival_rate_waits_exactly_zero(self):
        """Regression: an empty arrival stream must wait exactly 0 —
        the P–K numerator (λ E[S²]) must not leak a spurious epsilon or
        0·inf through the zero-load branch."""
        assert mg1_waiting_time(0.0, 20.0, 800.0) == 0.0
        assert mg1_response_time(0.0, 20.0, 800.0) == 20.0

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            mg1_waiting_time(0.06, 20.0, 800.0)
        with pytest.raises(ValueError):
            mm1_response_time(0.06, 20.0)

    def test_impossible_moments_rejected(self):
        with pytest.raises(ValueError):
            mg1_waiting_time(0.01, 20.0, 100.0)

    def test_simulator_approaches_mg1(self):
        """A single simulated disk under Poisson single-block reads has
        a response time within ~15% of the M/G/1 prediction."""
        env = Environment()
        geo, sm = DiskGeometry(), SeekModel.fit()
        disk = Disk(env, geo, sm)
        rng = np.random.default_rng(5)
        lam = 1 / 40.0  # one request every 40 ms -> utilization ~0.6
        times = []

        def source(env):
            for _ in range(4000):
                yield env.timeout(float(rng.exponential(1 / lam)))
                env.process(one(env))

        def one(env):
            t0 = env.now
            req = disk.submit(
                DiskRequest(AccessKind.READ, int(rng.integers(0, geo.total_blocks)))
            )
            yield req.done
            times.append(env.now - t0)

        env.process(source(env))
        env.run()
        service = np.array(times)  # includes queueing; need service moments
        model = ZeroLoadModel(geo, sm)
        s_mean = model.read(1)
        # Approximate E[S^2] from the component distributions: seek +
        # latency + constant transfer, treated as independent.
        d = np.arange(1, geo.cylinders, dtype=float)
        w = 2.0 * (geo.cylinders - d)
        w /= w.sum()
        seek_var = float(np.sum(w * sm.seek_times(d) ** 2) - sm.average_seek_time() ** 2)
        lat_var = geo.revolution_time**2 / 12.0
        s_second = s_mean**2 + seek_var + lat_var
        predicted = mg1_response_time(lam, s_mean, s_second)
        assert np.mean(times) == pytest.approx(predicted, rel=0.15)
