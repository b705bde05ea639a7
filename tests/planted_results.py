"""Synthetic results lying exactly on every scaling law.

The fit harness must recover slope 1 with near-zero residual from these,
which makes them a self-test of the fitting code in tiersim.harness.
"""

from __future__ import annotations

import math

from tiersim.harness import ExperimentResult
from tiersim.transport import relay_count


def planted_results(n_values=(64, 128, 256, 512, 1024), beta: float = 2.0) -> list:
    """Synthetic results lying exactly on every power-law curve.

    Each quantity is set to its law's formula with unit constant, so every
    exponent fit must recover slope 1.0 with ~zero residual and both
    constancy ratios must be ~1. The inter-tier linear relation is NOT
    planted: an affine offset cannot coexist with exact power laws.
    """
    out = []
    for n in n_values:
        m = float(n) ** beta
        a_p = 2.0 * math.log(n) / n
        a_s = 2.0 * math.log(m) / m
        lambda_s = 1.0 / (m * math.sqrt(a_s))
        lambda_p = 1.0 / (n * a_p)
        out.append(ExperimentResult(
            n=float(n), beta=beta, alpha=4.0, ap_scale=1.0, m=m,
            a_p=a_p, a_s=a_s,
            k_p=max(2, round(1.0 / math.sqrt(a_p))),
            k_s=max(2, round(1.0 / math.sqrt(a_s))),
            N=relay_count(m),
            lambda_p=lambda_p, T_p=1.0 / a_p,
            D_p=math.sqrt(m * math.log(m)) / (n * a_p),
            lambda_s=lambda_s, T_s=1.0 / math.sqrt(a_s),
            D_s=1.0 / math.sqrt(a_s),
            min_sinr_primary=1.0, min_sinr_delivery=1.0, min_sinr_secondary=1.0,
            drop_rate=0.0, valid=True, seed=0, frames=0, warmup=0,
            pairs_p=int(round(1.0 / (a_p * lambda_p))),
            pairs_s=int(round(m)),
            low_confidence=False, capture_fraction=1.0))
    return out
