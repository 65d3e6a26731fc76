"""Multi-stage reranking of retrieved reference functions.

Stage 1 drops candidates missing required signature features (with a
fallback to the unfiltered pool so the result is never empty). Stage 2
rescores semantic distance by dividing through a log-damped usage
frequency, favoring widely used implementations. Stage 3 walks the
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

DEFAULT_EPSILON = math.e - 1.0
DEFAULT_K = 3


class ScoreError(Exception):
    """Trust rescoring failed.

    ``code`` is ``NonPositiveDenominator``: ln(guf + epsilon) was not
    positive, which signals a misconfigured epsilon.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def filter_syntactic(c_init: list[Candidate], sig_req: SignatureFeatures
                     ) -> tuple[list[Candidate], bool]:
    """Keep candidates whose signatures contain every required feature.

    An empty survivor set falls back to the unfiltered pool (flagged),
    so a non-empty input never filters down to nothing.
    """
    kept = [c for c in c_init if sig_req.issubset_of(c.signature)]
    if not kept:
        return list(c_init), True
    return kept, False


def score_trust(s_sem: float, guf: int, epsilon: float) -> float:
    """Rescored distance: s_sem / ln(guf + epsilon)."""
    argument = guf + epsilon
    if argument <= 0.0:
        raise ScoreError(
            "NonPositiveDenominator",
            f"guf + epsilon = {argument} is outside the log domain")
    denominator = math.log(argument)
    if denominator <= 0.0:
        raise ScoreError(
            "NonPositiveDenominator",
            f"ln({guf} + {epsilon}) = {denominator} is not positive")
    return s_sem / denominator


def rerank(c_init: list[Candidate], sig_req: SignatureFeatures, k: int, epsilon: float
           ) -> tuple[list[Candidate], bool]:
    """Filter, rescore, deduplicate clone groups, and cut to k references.

    Returns ``(selected, fallback)``. ``selected`` is ascending by rescored
    distance (ties by raw distance, then function id); at most one
    candidate per clone group survives, while candidates without a clone
    group are always eligible. ``fallback`` is the filter's flag: no
    candidate had the required signature, so the whole pool was ranked.
    A nonpositive ``epsilon`` or a ``k`` below 1 raises ValueError.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    filtered, fallback = filter_syntactic(c_init, sig_req)
    # The pool position breaks any remaining tie, so two candidates are
    # never compared and the order is that of a stable key sort.
    rescored = sorted(
        (score_trust(c.s_sem, c.guf, epsilon), c.s_sem, c.function_id, i, c)
        for i, c in enumerate(filtered)
    )
    selected: list[Candidate] = []
    seen_clones: set[str] = set()
    for s_final, _s_sem, _fn_id, _i, candidate in rescored:
        if candidate.clone_id is not None:
            if candidate.clone_id in seen_clones:
                continue
            seen_clones.add(candidate.clone_id)
        selected.append(dataclasses.replace(candidate, s_final=s_final))
        if len(selected) == k:
            break
    return selected, fallback
