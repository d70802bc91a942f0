"""Equation 4: accuracy of the GCD stride algorithm vs sample count.

The paper proves that with k unique sampled addresses the probability
of over-estimating the stride is below ``sum over primes p of p^-k``,
so k >= 10 gives > 99% accuracy. This experiment puts three curves side
by side: the closed-form lower bound, the exact combinatorial value,
and the Monte-Carlo behaviour of the actual ``gcd_stride``
implementation.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..core.stride import (
    accuracy_lower_bound,
    corrected_accuracy,
    empirical_accuracy,
    exact_accuracy,
)
from .report import Table


def run_accuracy_sweep(
    ks: Sequence[int] = tuple(range(2, 15)),
    *,
    n: int = 10_000,
    trials: int = 2_000,
    true_stride: int = 16,
    seed: int = 7,
) -> Table:
    """Sweep the unique-sample count k and tabulate four curves.

    The "corrected" column is this reproduction's finding: the paper's
    Eq 4 counts only the aligned residue class per prime; weighting each
    prime by its p classes tracks the measured accuracy (see DESIGN.md).
    """
    rng = random.Random(seed)
    table = Table(
        "Eq 4: GCD stride-recovery accuracy vs unique samples k",
        ["k", "lower bound", "exact (Eq 4)", "corrected", "measured"],
        note=f"stream of {n} addresses, true stride {true_stride}, "
        f"{trials} trials per k",
    )
    for k in ks:
        table.add_row(
            k,
            accuracy_lower_bound(k),
            exact_accuracy(n, k),
            corrected_accuracy(n, k),
            empirical_accuracy(n, k, trials=trials, true_stride=true_stride, rng=rng),
        )
    return table


def samples_needed(target_accuracy: float = 0.99, *, max_k: int = 64) -> int:
    """Smallest k whose Eq 4 lower bound meets ``target_accuracy``.

    The paper's headline claim is that this is about 10.
    """
    for k in range(2, max_k + 1):
        if accuracy_lower_bound(k) >= target_accuracy:
            return k
    raise ValueError(f"bound never reaches {target_accuracy} below k={max_k}")
