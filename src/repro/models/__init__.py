"""Analytical models from the paper and its related work.

The queueing toolbox powers the fast solver in :mod:`repro.analytic`;
the rest are independent cross-checks for the simulation (tests
compare zero-load simulated response times against
:mod:`repro.models.gray`) and the paper's back-of-envelope analyses
(the §4.2.3 parity-placement rule).
"""

from repro.models.parity_placement import (
    data_area_access_rate,
    parity_area_access_rate,
    preferred_placement,
)
from repro.models.gray import zero_load_response
from repro.models.queueing import (
    fork_join_response,
    mg1_priority_waiting_times,
    mg1_response_time,
    mg1_waiting_time,
    mm1_response_time,
)
from repro.models.seek_affinity import empirical_seek_profile
from repro.models.reliability import ReliabilityModel, storage_overhead

__all__ = [
    "ReliabilityModel",
    "data_area_access_rate",
    "empirical_seek_profile",
    "fork_join_response",
    "mg1_priority_waiting_times",
    "mg1_response_time",
    "mg1_waiting_time",
    "mm1_response_time",
    "parity_area_access_rate",
    "preferred_placement",
    "storage_overhead",
    "zero_load_response",
]
