"""Topic usage trends, salience trends, salience matrices, normalization.

A topic's usage trend sums the relative usage trends of its associated
n-grams; its salience trend averages their discrete time derivatives.
Members are row indices into the (n-grams × bins) usage array, and their
rows are added one at a time in member order, so a topic's trend does not
depend on how numpy would group a sum. Topics with no associated n-grams
keep zero trends so matrices retain the full framework shape.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConsistencyError, InputError
from .runs import NORMALIZATIONS

if TYPE_CHECKING:
    from .topics import TopicFramework


def time_derivative(trend: Sequence[float]) -> np.ndarray:
    """Backward first difference with d[0] = 0."""
    values = np.asarray(trend, dtype=float)
    if values.size == 0:
        raise InputError("cannot differentiate an empty trend")
    out = np.zeros_like(values)
    out[1:] = values[1:] - values[:-1]
    return out


def topic_usage_trend(members: Sequence[int], usage: np.ndarray) -> np.ndarray:
    """Component-wise sum of the members' rows of `usage`, in member order."""
    acc = np.zeros(usage.shape[1])
    for row in members:
        acc += usage[row]
    return acc


def topic_salience_trend(members: Sequence[int], usage: np.ndarray) -> np.ndarray:
    """Mean of the members' usage-trend time derivatives, summed in member
    order."""
    acc = np.zeros(usage.shape[1])
    for row in members:
        acc += time_derivative(usage[row])
    return acc / len(members) if members else acc


def salience_matrix(framework: TopicFramework, salience: np.ndarray) -> np.ndarray:
    """The (topics × bins) `salience`, whose rows are in framework topic
    order, with its rows put in matrix order (`TopicFramework.grid_order`):
    row-major over the grid or, without one, topic order. Column t is bin
    t's matrix."""
    if salience.shape[0] != len(framework.topics):
        raise ConsistencyError(
            f"{salience.shape[0]} salience trends for {len(framework.topics)} topics"
        )
    return salience[framework.grid_order()]


def normalize_salience(salience: np.ndarray, method: str = "zscore") -> np.ndarray:
    """Normalize the (topics × bins) salience array across topics within
    each bin.

    zscore: (v - mean) / population std per bin; minmax: (v - min) /
    (max - min). A degenerate bin, whose topics all hold one value, maps to
    0. The zscore moments are exactly rounded sums (math.fsum), so they do
    not depend on the topics' order. Both are monotone per bin, so each
    bin's topic ranking is unchanged.
    """
    if method not in NORMALIZATIONS:
        raise InputError(f"unknown normalization {method!r}; use one of {NORMALIZATIONS}")
    topics = salience.shape[0]
    if topics < 2:
        raise InputError("per-bin normalization needs at least 2 topics")
    low, high = salience.min(axis=0), salience.max(axis=0)
    if method == "zscore":
        center = _column_sums(salience) / topics
        spread = np.sqrt(_column_sums(np.square(salience - center)) / topics)
    else:
        center, spread = low, high - low
    flat = low == high
    return np.where(flat, 0.0, (salience - center) / np.where(flat, 1.0, spread))


def _column_sums(values: np.ndarray) -> np.ndarray:
    """Each column's exactly rounded sum, which no order of the rows
    changes; one column is a Python list at a time."""
    return np.array([math.fsum(column.tolist()) for column in values.T])
