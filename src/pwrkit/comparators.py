"""Baseline journal metrics and ranking comparison statistics.

The citation factor, PageRank, and HITS serve as contrast metrics for the
iterated power-weakness ratio; Pearson and Spearman coefficients quantify how
two rankings over the same journals relate.  Externally published metrics can
be wrapped in a :class:`MetricVector` and compared on equal footing.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.stats import rankdata

from .engine import ContractError, PwrOptions, ZeroDivision, pwr_trace
from .matrix import CitationMatrix, column_sums, grand_total

_DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class MetricVector:
    """One named real value per labelled node."""

    name: str
    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if vals.shape != (len(self.labels),):
            raise ValueError(
                f"metric {self.name!r} has {vals.size} values for {len(self.labels)} labels"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.labels)

    def value_of(self, label: str) -> float:
        try:
            return float(self.values[self.labels.index(label)])
        except ValueError:
            raise KeyError(f"unknown label: {label!r}") from None


@dataclass(frozen=True)
class RankingComparison:
    """Pearson and Spearman agreement between two aligned metric vectors."""

    labels: tuple[str, ...]
    x: MetricVector
    y: MetricVector
    pearson_r: float
    spearman_rho: float

    @property
    def n(self) -> int:
        return len(self.labels)


class IterationLimitError(RuntimeError):
    """An iterative solver ran out of iterations; carries the last iterate."""

    def __init__(self, message: str, last: object) -> None:
        super().__init__(message)
        self.last = last


def citation_factor(
    z: CitationMatrix, zero_division: ZeroDivision | str = ZeroDivision.ZERO
) -> MetricVector:
    """Citations received over references given, per journal.

    Delegates to the ratio engine at k=1 so the two agree bit for bit.
    """
    opts = PwrOptions(k_max=1, zero_division=zero_division)
    trace = pwr_trace(z, opts)
    return MetricVector("cf", z.labels, trace.ratio_at(1))


def pagerank(
    z: CitationMatrix,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iter: int = _DEFAULT_MAX_ITER,
) -> MetricVector:
    """Stationary random-surfer distribution over the citation graph.

    Mass flows in the direction a citation confers credit: from citing
    journal j to cited journal i with probability proportional to Z[i][j].
    Journals citing nothing in-set spread their mass uniformly.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if z.n < 1:
        raise ValueError("matrix must have at least one node")
    cols = column_sums(z)
    dangling = cols == 0.0
    inverse = np.divide(1.0, cols, out=np.zeros_like(cols), where=~dangling)
    if z.is_sparse:
        walk = (z.entries @ sparse.diags(inverse)).tocsr()
    else:
        walk = z.entries * inverse[np.newaxis, :]

    n = z.n
    v = np.full(n, 1.0 / n)
    uniform = (1.0 - damping) / n
    for _ in range(max_iter):
        dangling_share = float(v[dangling].sum()) / n
        nxt = damping * (np.asarray(walk @ v).ravel() + dangling_share) + uniform
        if float(np.abs(nxt - v).sum()) <= tol:
            return MetricVector("pagerank", z.labels, nxt)
        v = nxt
    raise IterationLimitError(
        f"pagerank did not converge within {max_iter} iterations", last=v
    )


def hits(
    z: CitationMatrix, tol: float = 1e-9, max_iter: int = _DEFAULT_MAX_ITER
) -> tuple[MetricVector, MetricVector]:
    """Mutually reinforcing hub and authority scores, unit-sum normalized.

    Authorities live on the cited side (rows), hubs on the citing side
    (columns).  Returns (hubs, authorities).
    """
    if z.n < 1:
        raise ContractError("matrix must have at least one node")
    if grand_total(z) == 0.0:
        raise ContractError("matrix has no citations; hub and authority scores are undefined")
    n = z.n
    mat = z.entries
    mat_t = mat.T
    authorities = np.full(n, 1.0 / n)
    hubs = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        new_authorities = _unit_sum(np.asarray(mat @ hubs).ravel(), "authority")
        new_hubs = _unit_sum(np.asarray(mat_t @ new_authorities).ravel(), "hub")
        drift = float(np.abs(new_authorities - authorities).sum())
        drift += float(np.abs(new_hubs - hubs).sum())
        authorities = new_authorities
        hubs = new_hubs
        if drift <= tol:
            return (
                MetricVector("hits_hub", z.labels, hubs),
                MetricVector("hits_authority", z.labels, authorities),
            )
    raise IterationLimitError(
        f"hits did not converge within {max_iter} iterations", last=(hubs, authorities)
    )


def _unit_sum(scores: np.ndarray, name: str) -> np.ndarray:
    """Scale HITS scores to sum to one; refuse a zero or overflowing total."""
    with np.errstate(over="ignore"):
        total = float(scores.sum())
    if total == 0.0:
        raise ContractError(f"{name} scores collapsed to zero")
    if not math.isfinite(total):
        raise ContractError(f"{name} scores overflow double range")
    scores /= total
    return scores


def _aligned_values(x: MetricVector, y: MetricVector) -> tuple[np.ndarray, np.ndarray]:
    if x.labels != y.labels:
        x_names, y_names = set(x.labels), set(y.labels)
        only_x = [name for name in x.labels if name not in y_names]
        only_y = [name for name in y.labels if name not in x_names]
        if only_x or only_y:
            raise ValueError(
                f"metric labels differ: only in {x.name!r}: {only_x}; only in {y.name!r}: {only_y}"
            )
        raise ValueError(f"metrics {x.name!r} and {y.name!r} order their labels differently")
    if x.n < 2:
        raise ContractError("correlation needs at least two nodes")
    return x.values, y.values


def _pearson_of(a: np.ndarray, b: np.ndarray) -> float:
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ContractError("correlation inputs must be finite")
    ac = a - a.mean()
    bc = b - b.mean()
    sa = float(np.sqrt((ac * ac).sum()))
    sb = float(np.sqrt((bc * bc).sum()))
    if sa == 0.0 or sb == 0.0:
        raise ContractError("correlation is undefined for a zero-variance input")
    r = float((ac * bc).sum() / (sa * sb))
    return max(-1.0, min(1.0, r))


def pearson(x: MetricVector, y: MetricVector) -> float:
    """Sample Pearson correlation of two metrics over the same labels."""
    a, b = _aligned_values(x, y)
    return _pearson_of(a, b)


def spearman(x: MetricVector, y: MetricVector) -> float:
    """Pearson correlation of average-tied ranks."""
    a, b = _aligned_values(x, y)
    return _pearson_of(rankdata(a), rankdata(b))


def align_to(reference: MetricVector, other: MetricVector) -> MetricVector:
    """Reorder a metric to the reference label order; labels must match as sets."""
    if other.labels == reference.labels:
        return other
    position: dict[str, int] = {}
    for i, name in enumerate(other.labels):
        position.setdefault(name, i)
    reference_names = set(reference.labels)
    missing = [name for name in reference.labels if name not in position]
    extra = [name for name in other.labels if name not in reference_names]
    if missing or extra:
        raise ValueError(
            f"metric {other.name!r} labels do not match: missing {missing}, unexpected {extra}"
        )
    values = other.values[[position[name] for name in reference.labels]]
    return MetricVector(other.name, reference.labels, values)


def compare_rankings(metrics: Sequence[MetricVector]) -> list[list[RankingComparison]]:
    """All pairwise Pearson/Spearman comparisons, aligned to the first metric."""
    if not metrics:
        raise ContractError("need at least one metric to compare")
    aligned = [metrics[0]] + [align_to(metrics[0], m) for m in metrics[1:]]
    table: list[list[RankingComparison]] = []
    for x in aligned:
        row = []
        for y in aligned:
            row.append(
                RankingComparison(
                    labels=x.labels,
                    x=x,
                    y=y,
                    pearson_r=pearson(x, y),
                    spearman_rho=spearman(x, y),
                )
            )
        table.append(row)
    return table
