"""Iterated power-weakness ratio computation with convergence reporting.

For a citation matrix Z the power vector p(k) is proportional to the row sums
of Z^k and the weakness vector w(k) to its column sums.  Both are obtained by
repeated matrix-vector products starting from the ones vector, optionally
renormalized to unit sum every step so large matrices cannot overflow at high
k.  The per-node quotient r_i(k) = p_i(k) / w_i(k) is the power-weakness
ratio; the sequence of k-to-k changes of r drives the convergence diagnostic.

The unit-sum renormalization never changes a ratio: p(k) and w(k) are both
scaled by the grand total of Z^k, which cancels in the quotient.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .matrix import (
    CitationMatrix, Entries, _label_index, bounded_list, column_sums, row_sums, zero_diagonal,
)

log = logging.getLogger(__name__)


class SelfCitations(str, Enum):
    """Whether the main diagonal takes part in the iteration."""

    INCLUDE = "include"
    EXCLUDE = "exclude"


class ZeroDivision(str, Enum):
    """What a ratio becomes when a node's weakness is zero."""

    ZERO = "zero"
    INFINITE = "infinite"
    ERROR = "error"


class ContractError(ValueError):
    """A result is undefined on well-formed input (the CLI exits 2 on it)."""


class ZeroWeaknessError(ContractError):
    """Raised under the error policy when a weakness entry hits zero."""

    def __init__(self, label: str, k: int) -> None:
        super().__init__(f"weakness of {label!r} is zero at iteration k={k}")
        self.label = label
        self.k = k


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol


@dataclass(frozen=True)
class PwrOptions:
    """Iteration controls; the defaults mirror common desk practice."""

    k_max: int = 20
    tol: float = 1e-6
    self_citations: SelfCitations = SelfCitations.INCLUDE
    zero_division: ZeroDivision = ZeroDivision.ZERO
    normalize_each_iteration: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_max", int(self.k_max))
        object.__setattr__(self, "tol", _check_tol(self.tol))
        object.__setattr__(self, "self_citations", SelfCitations(self.self_citations))
        object.__setattr__(self, "zero_division", ZeroDivision(self.zero_division))
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")


@dataclass(frozen=True, eq=False)
class TraceTable:
    """Power, weakness and ratio per iteration as (k_max, n) arrays; row k-1 is k."""

    labels: tuple[str, ...]
    powers: np.ndarray = field(repr=False)
    weaknesses: np.ndarray = field(repr=False)
    ratios: np.ndarray = field(repr=False)

    @property
    def k_max(self) -> int:
        return self.ratios.shape[0]

    def power_at(self, k: int) -> np.ndarray:
        return self.powers[k - 1]

    def weakness_at(self, k: int) -> np.ndarray:
        return self.weaknesses[k - 1]

    def ratio_at(self, k: int) -> np.ndarray:
        return self.ratios[k - 1]

    def series(self, label: str, column: str = "ratio") -> list[float]:
        """One label's power, weakness or ratio for k = 1..k_max."""
        table = {"power": self.powers, "weakness": self.weaknesses, "ratio": self.ratios}
        return table[column][:, _label_index(self.labels, label)].tolist()


@dataclass(frozen=True, eq=False)
class PwrTrace(TraceTable):
    """A trace as the engine computed it, with its scale divisors and options."""

    power_scales: tuple[float, ...]
    weakness_scales: tuple[float, ...]
    options: PwrOptions
    degenerate: bool = False


@dataclass(frozen=True)
class ConvergenceReport:
    """Max ratio change per iteration and where it first dips below tol."""

    deltas: tuple[float, ...]
    converged: bool
    k_converged: int | None
    flagged: tuple[str, ...]
    tol: float

    def delta_at(self, k: int) -> float:
        """Change between r(k-1) and r(k); defined for k >= 2."""
        if k < 2 or k > len(self.deltas) + 1:
            raise ValueError(f"delta is defined for 2 <= k <= {len(self.deltas) + 1}")
        return self.deltas[k - 2]

    @property
    def iterations_to_converge(self) -> int | None:
        """Homogeneity hint: small values mean a homogeneous set."""
        return self.k_converged


# pwr_trace holds powers, weaknesses and ratios, each (k_max, n) float64, at once.
_TRACE_ARRAYS = 3


def _physical_memory() -> int:
    """Bytes of physical memory on this host, or 0 where the OS does not say."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return 0
    # sysconf answers -1 for a limit it cannot determine
    return pages * size if pages > 0 and size > 0 else 0


def _check_trace_fits(k_max: int, n: int) -> None:
    """Refuse a trace that cannot fit in physical memory before filling it."""
    need = _TRACE_ARRAYS * 8 * k_max * n
    have = _physical_memory()
    if have and need > have:
        raise MemoryError(
            f"a trace of k_max={k_max} iterations over {n} nodes needs {need} bytes, "
            f"more than the {have} bytes of physical memory; lower --k-max"
        )


def _trace_vectors(
    a: Entries, k_max: int, normalize: bool
) -> tuple[np.ndarray, tuple[float, ...], str | None]:
    """Iterates A^k 1 for k = 1..k_max on stored entries A, each into its row of one array.

    The third value says why the trace is degenerate (a zero iterate, or the
    first k whose iterate sum is not finite), or is None.
    """
    v = np.ones(a.shape[0], dtype=np.float64)
    vectors = np.empty((k_max, v.size), dtype=np.float64)
    # np.empty only reserves address space: a request the host refuses
    # outright has raised MemoryError already, and one it grants is checked
    # before any page of it is written.
    _check_trace_fits(k_max, v.size)
    scales: list[float] = []
    problem: str | None = None
    for k, row in enumerate(vectors, start=1):
        row[:] = a @ v
        v = row
        total = float(v.sum())
        if problem is None and total == 0.0:
            problem = "a zero iterate"
        elif problem is None and not math.isfinite(total):
            problem = f"an iterate sum that is not finite, first at k={k}"
        if normalize and total > 0.0:
            v /= total
            scales.append(total)
        else:
            scales.append(0.0 if normalize else 1.0)
    return vectors, tuple(scales), problem


def _warn_one_sided(z: CitationMatrix) -> None:
    for sums, wording in (
        (column_sums(z), "cite nothing within the set and will score extreme ratios"),
        (row_sums(z), "are never cited within the set"),
    ):
        nodes = np.flatnonzero(sums == 0.0)
        if len(nodes):
            shown = bounded_list(map(z.labels.__getitem__, nodes), len(nodes), ", ".join)
            log.warning("%d node(s) %s: %s", len(nodes), wording, shown)


def pwr_trace(z: CitationMatrix, options: PwrOptions | None = None) -> PwrTrace:
    """Full iteration trace with the self-citation and zero-division policies.  Weaknesses
    iterate ``entries.T.copy()``, which sums as a stored Z^T does (a ``.T`` view does not)."""
    opts = options if options is not None else PwrOptions()
    if z.n < 1:
        raise ValueError("matrix must have at least one node")
    mat = zero_diagonal(z) if opts.self_citations is SelfCitations.EXCLUDE else z
    _warn_one_sided(mat)
    normalize = opts.normalize_each_iteration
    # overflow is reported once through the degenerate flag, not per numpy call
    with np.errstate(over="ignore", invalid="ignore"):
        powers, p_scales, p_problem = _trace_vectors(mat.entries, opts.k_max, normalize)
        weaknesses, w_scales, w_problem = _trace_vectors(mat.entries.T.copy(), opts.k_max, normalize)
        divisible = weaknesses != 0.0
        if opts.zero_division is ZeroDivision.ERROR and not divisible.all():
            step = int(np.argmin(divisible.all(axis=1)))
            offender = z.labels[int(np.argmin(divisible[step]))]
            raise ZeroWeaknessError(offender, step + 1)
        fill = 0.0 if opts.zero_division is ZeroDivision.ZERO else math.inf
        ratios = np.full(powers.shape, fill)
        np.divide(powers, weaknesses, out=ratios, where=divisible)

    problem = p_problem or w_problem
    if problem:
        log.warning("matrix has %s; trace flagged as degenerate", problem)
    return PwrTrace(
        labels=z.labels,
        powers=powers,
        weaknesses=weaknesses,
        ratios=ratios,
        power_scales=p_scales,
        weakness_scales=w_scales,
        options=opts,
        degenerate=problem is not None,
    )


def convergence_report(trace: PwrTrace, tol: float) -> ConvergenceReport:
    """Per-k max absolute ratio change, skipping non-finite sentinel entries.

    A step with no finite pair of ratios has delta nan.  A degenerate trace
    never converges, and a trace with k_max = 1 has no deltas at all.
    """
    tol = _check_tol(tol)
    ratios = trace.ratios
    finite = np.isfinite(ratios)
    flagged = tuple(trace.labels[i] for i in np.nonzero(~finite.all(axis=0))[0])
    usable = finite[1:] & finite[:-1]
    change = np.zeros(usable.shape)
    np.subtract(ratios[1:], ratios[:-1], out=change, where=usable)
    deltas = np.abs(change, out=change).max(axis=1)
    deltas[~usable.any(axis=1)] = math.nan
    below = deltas <= tol
    converged = bool(below.any()) and not trace.degenerate
    return ConvergenceReport(
        deltas=tuple(deltas.tolist()),
        converged=converged,
        k_converged=int(np.argmax(below)) + 2 if converged else None,
        flagged=flagged,
        tol=tol,
    )


def converged_pwr(
    z: CitationMatrix, options: PwrOptions | None = None
) -> tuple[np.ndarray, ConvergenceReport]:
    """Ratio vector at the convergence point, or at k_max when never reached.

    Non-convergence is a diagnostic outcome, not an error: the report says
    so and the k_max vector is returned.
    """
    opts = options if options is not None else PwrOptions()
    trace = pwr_trace(z, opts)
    report = convergence_report(trace, opts.tol)
    final_k = report.k_converged if report.converged else trace.k_max
    # a copy, so the returned vector does not keep the whole (k_max, n) trace alive
    return trace.ratio_at(final_k).copy(), report
