"""Bivariate n-gram-to-topic association.

An n-gram is associated with a topic when it strictly exceeds the 75th
percentile (configurable) of both usage variability and similarity to that
topic: the upper-right quadrant of the (variability, similarity) scatter.

N-grams are rows: index i of a similarity column or of the variability
array is the i-th n-gram in sorted key order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConsistencyError, InputError

# The budget of every blockwise pass, cut by `_blocks`: what a pass holds
# at once beside its input and output does not grow with the data. It
# counts elements: tokens, instances and count cells in the n-gram build
# and counts, instances plus (instance × term) entries in the similarity
# kernel, cells rendered to text by pipeline's writers and cells reduced in
# float temporaries by relative_std_devs. A pass makes a few 8-byte
# temporaries per element: at 2**14 elements each is 128 KiB and a block's
# sum about 1 MiB, small beside the arrays a run keeps.
_BLOCK = 1 << 14


def _blocks(ends: np.ndarray, budget: int) -> Iterator[slice]:
    """Consecutive slices of the rows whose cumulative costs are `ends`:
    from where the last one stopped, the longest run of rows whose summed
    cost fits `budget`, and at least one row."""
    lo = 0
    while lo < len(ends):
        spent = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, spent + budget, side="right")), lo + 1)
        yield slice(lo, hi)
        lo = hi


def relative_std_dev(trend: Sequence[float]) -> float:
    """Population standard deviation of the trend divided by its mean.

    Scalar reference for `relative_std_devs`."""
    values = np.asarray(trend, dtype=float)
    if values.size == 0:
        raise InputError("cannot compute relative standard deviation of an empty trend")
    mean = float(values.mean())
    if mean <= 0.0:
        raise ConsistencyError(
            "trend mean is not positive; every tabled n-gram occurs at least once"
        )
    return float(values.std() / mean)


def relative_std_devs(usage: np.ndarray) -> np.ndarray:
    """`relative_std_dev` of every row of a (n-grams × bins) usage array.

    Rows are taken a block of at most _BLOCK cells at a time, so the
    float temporaries of mean and std stay small whatever the array's size;
    each row's value does not depend on the block it falls in."""
    rsd = np.empty(len(usage))
    for rows in _blocks(usage.shape[1] * np.arange(1, len(usage) + 1), _BLOCK):
        block = usage[rows]
        mean = block.mean(axis=1)
        if not (mean > 0.0).all():
            raise ConsistencyError(
                "trend mean is not positive; every tabled n-gram occurs at least once"
            )
        rsd[rows] = block.std(axis=1) / mean
    return rsd


def percentile(values: Sequence[float], p: float) -> float:
    """Percentile with linear interpolation between closest ranks, rank =
    (p/100) * (N - 1): np.percentile(values, p, method="linear") to the bit
    for finite values, with numpy's ranks and `_lerp` rule but no numpy.ma."""
    if len(values) == 0:
        raise InputError("cannot take a percentile of an empty list")
    if not 0.0 <= p <= 100.0:
        raise InputError(f"percentile must lie in [0, 100], got {p}")
    rank = (len(values) - 1) * (float(p) / 100)
    # From the last rank on, numpy interpolates the largest value with itself.
    below, above = (int(rank), int(rank) + 1) if rank < len(values) - 1 else (-1, -1)
    ordered = np.partition(np.asarray(values, dtype=float), sorted({0, -1, below, above}))
    lo, hi, t = ordered.item(below), ordered.item(above), rank - below
    return hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t


@dataclass(frozen=True)
class TopicAssociation:
    """N-grams associated with one topic, as row indices, plus the thresholds
    that admitted them. Members are sorted by descending similarity, ties in
    row order."""

    topic_id: str
    members: tuple[int, ...]
    sim_threshold: float
    rsd_threshold: float


def associate(
    topic_id: str,
    similarities: np.ndarray,
    variabilities: np.ndarray,
    sim_threshold: float,
    rsd_threshold: float,
) -> TopicAssociation:
    """Select the rows strictly above both thresholds: the upper-right
    quadrant of the (variability, similarity) scatter. The thresholds are
    percentiles that `pipeline.compute_associations` takes."""
    if similarities.shape != variabilities.shape:
        raise ConsistencyError(
            f"topic {topic_id!r}: {similarities.shape[0]} similarities but "
            f"{variabilities.shape[0]} variabilities"
        )
    rows = np.flatnonzero((similarities > sim_threshold) & (variabilities > rsd_threshold))
    rows = rows[np.lexsort((rows, -similarities[rows]))]
    return TopicAssociation(
        topic_id=topic_id,
        members=tuple(rows.tolist()),
        sim_threshold=sim_threshold,
        rsd_threshold=rsd_threshold,
    )
