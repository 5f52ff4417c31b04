"""M/G/1 queueing building blocks for the analytic backend.

A single disk under Poisson arrivals is well approximated by an M/G/1
queue; the Pollaczek–Khinchine formula gives the mean waiting time from
the first two moments of the service time.  On top of that this module
provides the standard extensions the analytic solver composes
(Thomasian's RAID tutorial, arXiv:2306.08763, surveys all of them):

* **fork-join approximations** for requests that fan out over several
  disks and complete when the slowest sub-request does (mirrored writes,
  RAID small-write data+parity updates, striped multi-block reads);
* **non-preemptive (HOL) priority** waiting times for the cached
  organizations, where foreground read misses overtake background
  destage writes in the disk queues.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence, Tuple

__all__ = [
    "mg1_waiting_time",
    "mg1_response_time",
    "mm1_response_time",
    "mg1_priority_waiting_times",
    "fork_join_max_exponential",
    "fork_join_response",
]


def mg1_waiting_time(arrival_rate: float, service_mean: float, service_second_moment: float) -> float:
    """Mean M/G/1 waiting time (Pollaczek–Khinchine).

    Parameters are in consistent units (e.g. 1/ms and ms).  Zero load
    (``arrival_rate == 0``) waits exactly 0; raises if the queue is
    unstable (utilization ≥ 1).
    """
    if arrival_rate < 0 or service_mean <= 0:
        raise ValueError("rates and means must be positive")
    # Compare against mean*mean, not mean**2: libm pow can land 1 ulp
    # above the product callers compute as `mean * mean * (1 + scv)`,
    # making a perfectly deterministic moment look "impossible".
    if service_second_moment < service_mean * service_mean:
        raise ValueError("second moment below mean² is impossible")
    if arrival_rate == 0.0:
        # An empty arrival stream never queues; the second-moment term
        # must not leak through as a 0 * inf or spurious epsilon.
        return 0.0
    rho = arrival_rate * service_mean
    if rho >= 1.0:
        raise ValueError(f"unstable queue: utilization {rho:.3f} >= 1")
    return arrival_rate * service_second_moment / (2.0 * (1.0 - rho))


def mg1_response_time(arrival_rate: float, service_mean: float, service_second_moment: float) -> float:
    """Mean M/G/1 response (waiting + service)."""
    return service_mean + mg1_waiting_time(arrival_rate, service_mean, service_second_moment)


def mm1_response_time(arrival_rate: float, service_mean: float) -> float:
    """Mean M/M/1 response time (exponential service)."""
    rho = arrival_rate * service_mean
    if rho >= 1.0:
        raise ValueError(f"unstable queue: utilization {rho:.3f} >= 1")
    if math.isclose(rho, 0.0):
        return service_mean
    return service_mean / (1.0 - rho)


def mg1_priority_waiting_times(
    classes: Sequence[Tuple[float, float, float]],
) -> list[float]:
    """Mean waiting time per class under non-preemptive (HOL) priority.

    ``classes`` is a sequence of ``(arrival_rate, service_mean,
    service_second_moment)`` tuples ordered from *highest* to *lowest*
    priority.  The classic Cobham formula:

    .. math::
        W_k = \\frac{W_0}{(1 - \\sigma_{k-1})(1 - \\sigma_k)},
        \\qquad
        W_0 = \\sum_i \\lambda_i E[S_i^2] / 2,
        \\quad \\sigma_k = \\sum_{i \\le k} \\rho_i .

    An access in service is never preempted, so the residual term
    ``W_0`` sums over *all* classes; raises when the total utilization
    reaches 1.
    """
    if not classes:
        raise ValueError("at least one class is required")
    w0 = 0.0
    rhos = []
    for lam, mean, second in classes:
        if lam < 0 or mean <= 0:
            raise ValueError("rates and means must be positive")
        if second < mean * mean:
            raise ValueError("second moment below mean² is impossible")
        w0 += lam * second / 2.0
        rhos.append(lam * mean)
    if sum(rhos) >= 1.0:
        raise ValueError(f"unstable queue: utilization {sum(rhos):.3f} >= 1")
    waits = []
    sigma_prev = 0.0
    for rho in rhos:
        sigma = sigma_prev + rho
        waits.append(w0 / ((1.0 - sigma_prev) * (1.0 - sigma)) if w0 else 0.0)
        sigma_prev = sigma
    return waits


#: Branch count above which inclusion–exclusion (2^m terms) is replaced
#: by numerical integration of the survival function.
_EXACT_MAX_BRANCHES = 12


def fork_join_max_exponential(means: Sequence[float]) -> float:
    """``E[max]`` of independent exponentials with the given means.

    For up to :data:`_EXACT_MAX_BRANCHES` branches, inclusion–exclusion
    over the branch subsets: ``E[max] = Σ_S (−1)^{|S|+1} / Σ_{i∈S}
    1/m_i`` — exact for independent exponential branches.  Wider
    fan-outs (a RAID5 request spanning 20+ disks would need 2^21 subset
    terms) integrate ``E[max] = ∫₀^∞ (1 − Π_i F_i(t)) dt`` on a
    composite-Simpson grid instead; the exponential tail is truncated at
    40 times the slowest branch mean, far below the quadrature error.
    """
    if not means:
        raise ValueError("at least one branch is required")
    if any(m <= 0 for m in means):
        raise ValueError("branch means must be positive")
    if len(means) > _EXACT_MAX_BRANCHES:
        return _max_exponential_quadrature(means)
    rates = [1.0 / m for m in means]
    total = 0.0
    for size in range(1, len(rates) + 1):
        sign = 1.0 if size % 2 else -1.0
        for subset in combinations(rates, size):
            total += sign / sum(subset)
    return total


def _max_exponential_quadrature(means: Sequence[float]) -> float:
    """``E[max]`` of independent exponentials by Simpson integration."""
    import numpy as np

    rates = 1.0 / np.asarray(means, dtype=float)
    upper = 40.0 * float(max(means))
    n = 4096  # even panel count; error ~ (upper/n)^4 * f'''' — negligible
    t = np.linspace(0.0, upper, n + 1)
    survival = 1.0 - np.prod(-np.expm1(-np.outer(rates, t)), axis=0)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((upper / n) / 3.0 * np.dot(weights, survival))


def fork_join_response(branch_means: Sequence[float], utilization: float = 0.0) -> float:
    """Approximate fork-join response over branches with the given mean
    response times.

    Each branch is treated as an independent exponential whose ``E[max]``
    is computed exactly (:func:`fork_join_max_exponential`), then scaled
    by the Nelson–Tantawi synchronization factor ``(12 − ρ)/12`` — for
    two homogeneous M/M/1 branches this reproduces their classic
    ``R₂ = (12 − ρ)/8 · R`` result (simultaneous arrivals at both queues
    correlate the branch responses, pulling ``E[max]`` below
    independence).  The result is floored at the slowest branch mean,
    which also makes the single-branch case exact.
    """
    if not 0.0 <= utilization <= 1.0:
        raise ValueError("utilization must be in [0, 1]")
    if len(branch_means) == 1:
        return branch_means[0]
    independent = fork_join_max_exponential(branch_means)
    return max(max(branch_means), independent * (12.0 - utilization) / 12.0)
