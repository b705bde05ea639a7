"""Exact law of the relay-capture count, shared by the capture tests.

select_relays draws a primary cell's relay uniformly over every node in the
cell, both tiers, so the cell keeps a primary-tier relay with probability
n_c / (n_c + m_c), independently of every other cell. Given the deployments,
the number of uncaptured cells in a pool is therefore Poisson-binomial over
those probabilities. The capture tests check two things against that law:
the pooled expected capture fraction clears 1 - 2n/m (a property of the
deployments and the rule), and the realized uncaptured count is not in the
far upper tail (a property of the draw).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from tiersim.deployment import SimConfig, build_deployment, rng_streams
from tiersim.routing import select_relays

# Reject a draw when P(X >= x) is at most this. Five acceptance grid points
# give the whole test a false-alarm rate of at most 1e-3.
TAIL_LEVEL = 2e-4


def poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """P(X = k) for k = 0..len(p), X a sum of independent Bernoulli(p_i)."""
    pmf = np.ones(1)
    for q in np.asarray(p, dtype=float):
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - q)
        nxt[1:] += pmf * q
        pmf = nxt
    return pmf


def upper_tail(p: np.ndarray) -> np.ndarray:
    """P(X >= k) for k = 0..len(p), summed from the top for small tails."""
    return np.cumsum(poisson_binomial_pmf(p)[::-1])[::-1]


@dataclass(frozen=True)
class CapturePool:
    """Relay-holding primary cells pooled over several deployments.

    n_c and m_c are the cells' node counts per tier; uncaptured is how many
    of them the drawn relays left with a primary-tier relay.
    """

    n_c: np.ndarray
    m_c: np.ndarray
    uncaptured: int

    @property
    def cells(self) -> int:
        return len(self.n_c)

    @property
    def p_primary(self) -> np.ndarray:
        """Per-cell probability that the relay rule keeps a primary relay."""
        return self.n_c / (self.n_c + self.m_c)

    @property
    def realized_fraction(self) -> float:
        return 1.0 - self.uncaptured / self.cells

    @property
    def expected_fraction(self) -> float:
        return 1.0 - float(self.p_primary.mean())

    @cached_property
    def tail_law(self) -> np.ndarray:
        """P(X >= k) for k = 0..cells under the relay rule."""
        return upper_tail(self.p_primary)

    @property
    def tail(self) -> float:
        """P(X >= uncaptured), the upper-tail p-value of the drawn relays."""
        return float(self.tail_law[self.uncaptured])


def capture_pool(n: float, seeds: range) -> CapturePool:
    """Build each seed's deployment and draw its relays as a run would."""
    n_c, m_c, uncaptured = [], [], 0
    for seed in seeds:
        dep = build_deployment(SimConfig(n=n, seed=seed))
        relays = select_relays(dep, rng_streams(seed)[2])
        has = dep.primary_counts + dep.secondary_index_primary_grid.counts > 0
        n_c.append(dep.primary_counts[has])
        m_c.append(dep.secondary_index_primary_grid.counts[has])
        uncaptured += int((~relays.primary_relay_is_secondary[has]).sum())
    return CapturePool(np.concatenate(n_c), np.concatenate(m_c), uncaptured)
