"""Generic backward reachability over a well-quasi-ordered state space.

Works on upward-closed sets represented by finite antichain bases.
Starting from the target basis, minimal predecessors are added with
subsumption until an element below some initial configuration appears
(the stop is reached, with a provenance chain for witness replay), the
basis stabilizes (closed: not coverable; termination is guaranteed by the
WQO) or the budget runs out (budget).  These are the stops of
verdict.explore, which verdict.conclude reads as they are.

Callers can hand in a bucket key under which comparable elements always
share a bucket (e.g. the control location of a product state); both the
subsumption test and dominated-element removal then stay within one
bucket.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .verdict import BUDGET, CLOSED, REACHED


@dataclass
class BackwardResult:
    # reached, closed or budget
    stop: str = CLOSED
    # when reached, the labels from an initial-covering element forward to
    # the target basis
    chain: tuple = ()
    iterations: int = 0
    explored: int = 0
    # the antichain basis when the search stopped
    basis: set = field(default_factory=set)


def backward_reach(
    targets,
    preds,
    leq,
    covers_initial,
    max_explored: int | None = None,
    bucket_key=None,
) -> BackwardResult:
    """Saturate min-pre* of the upward closure of the targets.

    targets          iterable of basis elements
    preds(e)         iterable of (label, e') with up(e') minimal predecessors
                     of up(e) under the transition labelled label
    leq(a, b)        the well-quasi-ordering
    covers_initial(e) whether some initial configuration lies in up(e)
    max_explored     optional; the search stops at budget rather than
                     record one predecessor more, so explored never
                     exceeds it
    bucket_key(e)    optional; elements with different keys must be
                     incomparable under leq
    """
    key = bucket_key if bucket_key is not None else (lambda e: None)
    result = BackwardResult()
    buckets: dict = {}
    members = result.basis
    prov: dict = {}

    def insert(e, why) -> bool:
        bucket = buckets.setdefault(key(e), [])
        if any(leq(b, e) for b in bucket):
            return False
        for b in bucket:
            if leq(e, b):
                members.discard(b)
        bucket[:] = [b for b in bucket if b in members]
        bucket.append(e)
        members.add(e)
        if e not in prov:
            prov[e] = why
        return True

    def chain_for(e):
        labels = []
        k = e
        while prov[k] is not None:
            label, k = prov[k]
            labels.append(label)
        return tuple(labels)

    worklist = deque()
    for e in sorted(set(targets), key=repr):
        if insert(e, None):
            worklist.append(e)
            if covers_initial(e):
                result.stop, result.chain = REACHED, chain_for(e)
                return result

    while worklist:
        e = worklist.popleft()
        result.iterations += 1
        if e not in members:  # subsumed since it was queued
            continue
        for label, e2 in sorted(preds(e), key=repr):
            if result.explored == max_explored:
                result.stop = BUDGET
                return result
            result.explored += 1
            if insert(e2, (label, e)):
                if covers_initial(e2):
                    result.stop, result.chain = REACHED, chain_for(e2)
                    return result
                worklist.append(e2)
    return result
