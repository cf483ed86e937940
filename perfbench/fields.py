"""Seeded field-structured citation generator, written as Pajek ``.net`` text.

``fields(n, seed)`` places journal ``i`` in field ``i mod F`` with
``F = n / 200`` fields of 200 journals each and labels ``J000000``...  It makes
``10 n`` reference draws: the citing journal is uniform; with probability 0.85
the cited journal lies in the citing journal's field, otherwise in a uniform
field; the cited journal's rank within its field is ``min(Zipf(1.6) - 1, 199)``
(field member ``f + F * rank``); each draw carries an integer weight in 1..19,
and repeated (cited, citing) pairs are summed.  These numbers are the ones the
workloads in spec.json pass in.  Within-field citing dominates, so the
citing-pattern similarity graph has real community structure, and the Zipf
tail leaves many journals never cited.

The bytes depend only on this file, numpy's ``default_rng`` and the seed, never
on the package under test.
"""

from __future__ import annotations

import numpy as np


def fields(
    n: int,
    seed: int,
    *,
    field_size: int,
    draws_per_journal: int,
    in_field_p: float,
    zipf_a: float,
    max_weight: int,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Labels and the summed arcs as (cited, citing, weight), row-major sorted.

    The parameters come from the workload's ``generator`` entry in spec.json.
    """
    if n < field_size or n % field_size:
        raise ValueError(f"n must be a positive multiple of {field_size}, got {n}")
    n_fields = n // field_size
    draws = draws_per_journal * n
    rng = np.random.default_rng(seed)
    citing = rng.integers(0, n, size=draws)
    in_field = rng.random(draws) < in_field_p
    other_field = rng.integers(0, n_fields, size=draws)
    rank = np.minimum(rng.zipf(zipf_a, size=draws) - 1, field_size - 1)
    weight = rng.integers(1, max_weight + 1, size=draws)
    field = np.where(in_field, citing % n_fields, other_field)
    cited = field + n_fields * rank
    key, inverse = np.unique(cited * n + citing, return_inverse=True)
    summed = np.bincount(inverse, weights=weight, minlength=key.size).astype(np.int64)
    labels = [f"J{i:06d}" for i in range(n)]
    return labels, key // n, key % n, summed


def pajek_text(labels: list[str], cited: np.ndarray, citing: np.ndarray, weight: np.ndarray) -> str:
    """Pajek text in pwrkit's convention: an arc ``src dst w`` adds w to Z[src][dst]."""
    out = [f"*Vertices {len(labels)}"]
    out.extend(f'{i} "{name}"' for i, name in enumerate(labels, start=1))
    out.append("*Arcs")
    out.extend(
        f"{s} {d} {w}" for s, d, w in zip((cited + 1).tolist(), (citing + 1).tolist(), weight.tolist())
    )
    return "\n".join(out) + "\n"
