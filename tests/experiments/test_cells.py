"""The campaign's cells, pinned without simulating anything.

``cells.json`` lists, for every registered experiment in registry
order, the ``(kind, point_key)`` of each of its points at two scales, in
point order.  A change to how experiments are declared must leave it
as it is: the same cells, in the same order, with the same override
types (:func:`~repro.experiments.points.point_key` hashes each
override's ``repr``, so ``8`` and ``8.0`` are different cells).

After an *intentional* change to the campaign, regenerate with::

    PYTHONPATH=src python -m pytest tests/experiments/test_cells.py --regen-golden

and review the fixture diff like any other code change.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.points import point_key
from repro.experiments.registry import EXPERIMENTS

FIXTURE = Path(__file__).with_name("cells.json")
SCALES = ("1.0", "0.25")


def live_cells() -> dict:
    return {
        exp_id: {
            scale: [f"{p.kind} {point_key(p)}" for p in exp.points(float(scale))]
            for scale in SCALES
        }
        for exp_id, exp in EXPERIMENTS.items()
    }


@pytest.fixture(scope="module")
def cells(request):
    live = live_cells()
    if request.config.getoption("--regen-golden"):
        FIXTURE.write_text(json.dumps(live, indent=1) + "\n")
    return live, json.loads(FIXTURE.read_text())


def test_registry_order(cells):
    live, pinned = cells
    assert list(live) == list(pinned)


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
@pytest.mark.parametrize("scale", SCALES)
def test_cells_unchanged(cells, exp_id, scale):
    live, pinned = cells
    assert live[exp_id][scale] == pinned[exp_id][scale]
