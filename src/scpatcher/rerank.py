"""Multi-stage reranking of retrieved reference functions.

Each candidate is a ``Candidate``: the KB's own ``FunctionUnit`` and its
k-NN distance ``s_sem``. Stage 1 drops candidates whose function lacks a
required signature feature (with a fallback to the unfiltered pool so the
result is never empty). Stage 2 rescores the distance as
``s_final = s_sem / ln(guf + ε)``, favoring widely used implementations;
ε = e - 1 is the constant ``EPSILON``, not a parameter. Stage 3 walks the
rescored list in order, keeps at most one member per clone group, and
stops once k references are selected.

``rerank`` returns the selection together with the stage-1 fallback flag,
so a caller can report whether the filter fell back without running it
again. ``repair.retrieve`` is its only caller on the pipeline path.
"""

from __future__ import annotations

import dataclasses
import math

from .embedding import Candidate
from .model import SignatureFeatures

#: ε of the paper's ``s_sem / ln(GUF + ε)``. ``FunctionUnit`` keeps guf >= 0,
#: so ln(guf + ε) >= ln(e - 1) > 0; at guf 1, the least a KB holds, the
#: rescored distance is s_sem itself.
EPSILON = math.e - 1.0
DEFAULT_K = 3


def filter_syntactic(c_init: list[Candidate], sig_req: SignatureFeatures
                     ) -> tuple[list[Candidate], bool]:
    """Keep candidates whose signatures contain every required feature.

    An empty survivor set falls back to the unfiltered pool (flagged),
    so a non-empty input never filters down to nothing.
    """
    kept = [c for c in c_init if sig_req.issubset_of(c.fn.signature)]
    if not kept:
        return list(c_init), True
    return kept, False


def score_trust(s_sem: float, guf: int) -> float:
    """Rescored distance: s_sem / ln(guf + EPSILON)."""
    return s_sem / math.log(guf + EPSILON)


def rerank(c_init: list[Candidate], sig_req: SignatureFeatures, k: int
           ) -> tuple[list[Candidate], bool]:
    """Filter, rescore, deduplicate clone groups, and cut to k references.

    Returns ``(selected, fallback)``. ``selected`` is ascending by rescored
    distance (ties by raw distance, then function id); at most one
    candidate per clone group survives, while candidates without a clone
    group are always eligible. ``fallback`` is the filter's flag: no
    candidate had the required signature, so the whole pool was ranked.
    A ``k`` below 1 raises ValueError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    filtered, fallback = filter_syntactic(c_init, sig_req)
    # The pool position breaks any remaining tie, so two candidates are
    # never compared and the order is that of a stable key sort.
    rescored = sorted(
        (score_trust(c.s_sem, c.fn.guf), c.s_sem, c.fn.id, i, c)
        for i, c in enumerate(filtered)
    )
    selected: list[Candidate] = []
    seen_clones: set[str] = set()
    for s_final, _s_sem, _fn_id, _i, candidate in rescored:
        clone_id = candidate.fn.clone_id
        if clone_id is not None:
            if clone_id in seen_clones:
                continue
            seen_clones.add(clone_id)
        selected.append(dataclasses.replace(candidate, s_final=s_final))
        if len(selected) == k:
            break
    return selected, fallback
