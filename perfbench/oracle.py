"""Expected join results from the repository's brute-force oracles.

The natural join is checked against :func:`repro.baselines.reference.reference_join`
and ``overlaps`` against :func:`repro.variants.allen_joins.allen_join`.
Both are restricted to key-equal pairs (the reference join runs once per
key group; ``allen_join`` groups by key itself), which keeps them exact
while cutting the pairs they try by the number of keys.

Results compare as sorted row lists, i.e. as multisets: the join defines
no output order.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.baselines.reference import reference_join
from repro.model.relation import ValidTimeRelation
from repro.time.allen import AllenRelation
from repro.variants.allen_joins import allen_join

Row = Tuple


def rows_of(relation: Iterable) -> List[Row]:
    """A result as a sorted list of ``(key, payload, start, end)`` rows."""
    return sorted((t.key, t.payload, t.vs, t.ve) for t in relation)


def natural(r: ValidTimeRelation, s: ValidTimeRelation) -> List[Row]:
    groups = s.group_by_key()
    rows: List[Row] = []
    for key, outer in r.group_by_key().items():
        inner = groups.get(key)
        if inner:
            rows.extend(
                rows_of(
                    reference_join(
                        ValidTimeRelation(r.schema, outer),
                        ValidTimeRelation(s.schema, inner),
                    )
                )
            )
    return sorted(rows)


def overlaps(r: ValidTimeRelation, s: ValidTimeRelation) -> List[Row]:
    return rows_of(allen_join(r, s, {AllenRelation.OVERLAPS}))


PREDICATES = {"natural": natural, "overlaps": overlaps}
