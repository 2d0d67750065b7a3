"""Negative controls for suite entries.

Each entry in CASES must fail when one of the spaces it compares loses a
basis vector: the listed kind's cached solution space, or the named span.
The targets are chosen so that no other check of the entry (idempotency,
one-sided units, the dimension checks) can catch the loss.  `prop-4.2` must
fail when its truncated verification refuses a star.
"""

import dataclasses

import pytest

from bicompat import suite
from bicompat.compat import Kind
from bicompat.linalg import Subspace

ENTRIES = {entry_id: fn for entry_id, _, fn in suite.SUITE}
ONE_SIDED = [Kind.SWAP_MATCHING, Kind.INTERCHANGEABLE, Kind.TOTALLY_COMPATIBLE]
CASES = [
    ("prop-2.2", "mutation_span"),
    *(("prop-2.5", t) for t in (Kind.SWAP_MATCHING, Kind.INTERCHANGEABLE, "centroid_product_span")),
    *(("prop-3.1", t) for t in (Kind.INTERCHANGEABLE, Kind.TOTALLY_COMPATIBLE)),
    *(("prop-3.2", t) for t in (Kind.SWAP_MATCHING, Kind.TOTALLY_COMPATIBLE)),
    *(("prop-left-right-zero", t) for t in (*ONE_SIDED, "centroid_product_span")),
    *(("prop-id-enough-idemp", t) for t in (Kind.ID_MATCHING, "mutation_span")),
    *(("prop-comp-enough-idemp", t) for t in (*ONE_SIDED, "centroid_product_span")),
]


def _less_one(space):
    return Subspace(space.field, space.ambient_dim, space.basis[1:])


@pytest.mark.parametrize(
    "entry_id, target", CASES, ids=[f"{e}-{getattr(t, 'value', t)}" for e, t in CASES]
)
def test_entry_fails_when_a_compared_space_loses_a_vector(monkeypatch, entry_id, target):
    assert ENTRIES[entry_id]()[0]
    if isinstance(target, Kind):
        solve = suite.cached_solve

        def shrunk(kind, dot):
            ps = solve(kind, dot)
            return dataclasses.replace(ps, space=_less_one(ps.space)) if kind == target else ps

        monkeypatch.setattr(suite, "cached_solve", shrunk)
    else:
        span = getattr(suite, target)
        monkeypatch.setattr(suite, target, lambda dot: _less_one(span(dot)))
    assert ENTRIES[entry_id]()[0] is False


def test_prop_42_fails_when_truncated_verification_refuses(monkeypatch):
    assert ENTRIES["prop-4.2"]()[0]

    def refuse(sm, degree):
        assert degree == sm.max_degree() + 3
        raise suite.ConditionNotVerifiedError("refused")

    monkeypatch.setattr(suite, "verify_id_matching_truncated", refuse)
    assert ENTRIES["prop-4.2"]()[0] is False
