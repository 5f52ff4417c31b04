"""Values the analytic model does not solve are refused, not ignored.

The M/G/1 solver has no equations for disk scheduling, spindle
synchronization or the destage policy, so it solves only their
defaults; it models synchronization only as SI or DF, so RF, RF/PR and
DF/PR are refused too (:data:`repro.analytic.SOLVED_VALUES`).  A
config that sets such a value is refused with the field named, and a
campaign under ``--backend analytic`` runs those points on the DES
instead of printing one answer for every variant.
"""

import json

import pytest

from repro.analytic import AnalyticUnsupportedError, SOLVED_VALUES, solve_trace
from repro.experiments.__main__ import main
from repro.experiments.parallel import run_campaign
from repro.experiments.points import Point, TraceSpec, with_backend
from repro.experiments.registry import get_experiment
from repro.sim import run_trace
from tests.analytic.workload import config, poisson_trace

SCALE = 0.01

#: Unsolved values, keyed ``field`` or ``field-value``.
REFUSED = {
    "disk_scheduler": dict(disk_scheduler="sstf"),
    "spindle_sync": dict(spindle_sync=True),
    "destage_policy": dict(destage_policy="lru_demand", cached=True, cache_mb=4),
    "sync_policy-RF": dict(sync_policy="RF"),
    "sync_policy-RF/PR": dict(sync_policy="RF/PR"),
    "sync_policy-DF/PR": dict(sync_policy="DF/PR"),
}


def test_every_unmodelled_field_is_covered():
    assert {case.split("-")[0] for case in REFUSED} == set(SOLVED_VALUES)


@pytest.mark.parametrize("field", sorted(REFUSED))
def test_solver_refuses_and_names_the_field(field):
    with pytest.raises(AnalyticUnsupportedError, match=field.split("-")[0]):
        solve_trace(config("raid5", **REFUSED[field]), poisson_trace(0.05, n=200))


@pytest.mark.parametrize("policy", SOLVED_VALUES["sync_policy"])
def test_solved_sync_policies_are_solved(policy):
    # Spelled as the DES accepts it: policy names are case-insensitive.
    cfg = config("raid5", sync_policy=policy.lower())
    assert solve_trace(cfg, poisson_trace(0.05, n=200)).mean_response_ms > 0


def test_run_trace_refuses_through_the_same_rule():
    with pytest.raises(AnalyticUnsupportedError, match="disk_scheduler='sstf'"):
        run_trace(config("raid5", disk_scheduler="sstf"), poisson_trace(0.05, n=200),
                  backend="analytic")


def test_destage_policy_of_an_uncached_config_is_solved():
    cfg = config("raid5", destage_policy="decoupled")
    assert solve_trace(cfg, poisson_trace(0.05, n=200)).mean_response_ms > 0


def test_des_reason_ignores_run_arguments():
    def point(**overrides):
        return Point.sim("demo", (1,), TraceSpec(1, SCALE), "raid5", **overrides)

    assert point(keep_samples=True, disk_scheduler="sstf").des_reason == "disk_scheduler"
    assert point(keep_samples=True).des_reason is None


def test_des_reason_of_a_fig4_rf_point_is_sync_policy():
    by_policy = {
        dict(point.overrides)["sync_policy"]: point.des_reason
        for point in get_experiment("fig4").points(SCALE)
    }
    assert by_policy == {
        "SI": None, "DF": None,
        "RF": "sync_policy", "RF/PR": "sync_policy", "DF/PR": "sync_policy",
    }


@pytest.mark.parametrize(
    "exp_id,field",
    [
        ("ext-scheduler", "disk_scheduler"),
        ("ext-spindle", "spindle_sync"),
        ("ext-destage", "destage_policy"),
        ("ext-rebuild", "failures"),
        ("fig4", "sync_policy"),
    ],
)
def test_campaign_keeps_unmodelled_points_on_the_des(exp_id, field):
    points = get_experiment(exp_id).points(SCALE)
    for point, routed in zip(points, with_backend(points, "analytic")):
        backend = dict(routed.overrides).get("backend", "des")
        assert point.des_reason in (None, field)
        assert backend == ("des" if point.des_reason else "analytic")
    assert any(point.des_reason for point in points)
    assert not all(point.des_reason for point in points)


def test_non_default_variants_equal_the_des_run(capsys, tmp_path):
    des = [r.to_dict() for r in run_campaign(["ext-scheduler"], SCALE)["ext-scheduler"]]
    out = tmp_path / "analytic.json"
    argv = ["ext-scheduler", "--scale", str(SCALE), "--backend", "analytic", "--json", str(out)]
    assert main(argv) == 0
    assert "sets disk_scheduler" in capsys.readouterr().err
    analytic = json.loads(out.read_text())
    for d, a in zip(des, analytic):
        for ds, as_ in zip(d["series"], a["series"]):
            sstf = ds["xs"].index("sstf")
            assert as_["ys"][sstf] == ds["ys"][sstf]
            assert as_["ys"][1 - sstf] != ds["ys"][1 - sstf]  # fcfs: solved analytically
