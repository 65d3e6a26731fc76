import math
import random

import pytest

from scpatcher.embedding import Candidate
from scpatcher.model import FunctionUnit, SignatureFeatures
from scpatcher.rerank import EPSILON, filter_syntactic, rerank, score_trust

# 2 / ln(5 + (e - 1)), evaluated with 50-digit decimal arithmetic
TRUST_SCORE_2_5 = 1.0499611180329803779016019205785870255019019878205

_FEATURES = ["public", "external", "view", "payable", "nonpayable",
             "param:uint256", "param:address", "ret:bool"]


def _sig(features):
    return SignatureFeatures(frozenset(features))


def _cand(fid, s_sem, guf, clone_id, features):
    fn = FunctionUnit(id=fid, contract_name="C", name=f"f{fid}", source_text="function f() {}",
                      signature=_sig(features), clone_id=clone_id, guf=guf)
    return Candidate(fn, s_sem)


def _random_instance(rng):
    count = rng.randrange(0, 60)
    candidates = []
    for i in range(count):
        features = set(rng.sample(_FEATURES, rng.randrange(1, 5)))
        clone_id = rng.choice([None, "g1", "g2", "g3", f"solo{i}"])
        candidates.append(_cand(
            f"{rng.randrange(16**16):016x}",
            rng.uniform(0.0, 10.0),
            rng.randrange(1, 50),
            clone_id,
            features,
        ))
    wanted = set(rng.sample(_FEATURES, rng.randrange(0, 3)))
    if rng.random() < 0.15:
        wanted.add("mod:neverdeclared")
    k = rng.randrange(1, 7)
    return candidates, _sig(wanted), k


def _oracle_rerank(candidates, sig_req, k):
    """Straight-line restatement of the selection procedure."""
    kept = [c for c in candidates if sig_req.issubset_of(c.fn.signature)]
    if not kept:
        kept = list(candidates)
    scored = sorted(
        (c.s_sem / math.log(c.fn.guf + (math.e - 1)), c.s_sem, c.fn.id, i)
        for i, c in enumerate(kept)
    )
    out, seen = [], set()
    for s_final, _, _, i in scored:
        fn = kept[i].fn
        if fn.clone_id is not None:
            if fn.clone_id in seen:
                continue
            seen.add(fn.clone_id)
        out.append((fn.id, s_final))
        if len(out) == k:
            break
    return out


# ---------------------------------------------------------------------------
# Trust scoring
# ---------------------------------------------------------------------------

def test_score_neutral_at_unit_usage():
    for s_sem in (0.0, 0.25, 1.0, 3.5, 99.0):
        assert score_trust(s_sem, 1) == s_sem


def test_score_zero_distance_stays_zero():
    assert score_trust(0.0, 17) == 0.0


def test_score_against_high_precision_fixture():
    assert EPSILON == math.e - 1
    assert abs(score_trust(2.0, 5) - TRUST_SCORE_2_5) < 1e-12


def test_config_validation():
    pool = [_cand("a" * 16, 1.0, 1, None, {"public"})]
    with pytest.raises(ValueError, match="k must be >= 1"):
        rerank(pool, _sig(set()), 0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        rerank([], _sig(set()), 0)


# ---------------------------------------------------------------------------
# Syntactic filter
# ---------------------------------------------------------------------------

def test_filter_keeps_supersets_only():
    pool = [
        _cand("a" * 16, 1.0, 1, None, {"public", "payable"}),
        _cand("b" * 16, 2.0, 1, None, {"public"}),
        _cand("c" * 16, 3.0, 1, None, {"external", "payable"}),
    ]
    kept, fallback = filter_syntactic(pool, _sig({"public"}))
    assert [c.fn.id for c in kept] == ["a" * 16, "b" * 16]
    assert fallback is False


def test_filter_empty_requirement_keeps_everything():
    pool = [_cand("a" * 16, 1.0, 1, None, {"public"})]
    kept, fallback = filter_syntactic(pool, _sig(set()))
    assert kept == pool
    assert fallback is False


def test_filter_falls_back_to_full_pool():
    pool = [
        _cand("a" * 16, 1.0, 1, None, {"public"}),
        _cand("b" * 16, 2.0, 1, None, {"external"}),
    ]
    kept, fallback = filter_syntactic(pool, _sig({"payable"}))
    assert kept == pool
    assert fallback is True


def test_filter_matches_subset_oracle():
    rng = random.Random(99)
    for _ in range(200):
        candidates, sig_req, _ = _random_instance(rng)
        kept, fallback = filter_syntactic(candidates, sig_req)
        oracle = [c for c in candidates
                  if set(sig_req.sorted_features()) <= set(c.fn.signature.sorted_features())]
        if oracle:
            assert kept == oracle
            assert fallback is False
        else:
            assert kept == list(candidates)
            assert fallback is (len(candidates) > 0) or fallback is True


# ---------------------------------------------------------------------------
# Full reranking
# ---------------------------------------------------------------------------

def _run(candidates, sig_req, k):
    selected, fallback = rerank(candidates, sig_req, k)
    assert fallback == filter_syntactic(candidates, sig_req)[1]
    return selected


def test_rerank_single_candidate():
    pool = [_cand("a" * 16, 2.0, 5, None, {"public"})]
    got = _run(pool, _sig(set()), 3)
    assert len(got) == 1
    assert abs(got[0].s_final - TRUST_SCORE_2_5) < 1e-12


def test_rerank_deduplicates_clone_group():
    pool = [
        _cand("a" * 16, 1.0, 2, "dup", {"public"}),
        _cand("b" * 16, 2.0, 2, "dup", {"public"}),
        _cand("c" * 16, 3.0, 1, None, {"public"}),
    ]
    got = _run(pool, _sig(set()), 3)
    assert [c.fn.id for c in got] == ["a" * 16, "c" * 16]


def test_rerank_keeps_multiple_unclustered_candidates():
    pool = [
        _cand("a" * 16, 1.0, 1, None, {"public"}),
        _cand("b" * 16, 2.0, 1, None, {"public"}),
    ]
    got = _run(pool, _sig(set()), 3)
    assert len(got) == 2


def test_rerank_matches_independent_oracle():
    rng = random.Random(20240818)
    checked = 0
    for _ in range(1000):
        candidates, sig_req, k = _random_instance(rng)
        got = _run(candidates, sig_req, k)
        oracle = _oracle_rerank(candidates, sig_req, k)
        assert [(c.fn.id, c.s_final) for c in got] == oracle
        # a smaller k selects a prefix of a larger k's references
        larger = _run(candidates, sig_req, k + rng.randrange(1, 5))
        assert larger[:len(got)] == got
        checked += 1
    assert checked == 1000


def test_rerank_result_invariants():
    rng = random.Random(4242)
    for _ in range(300):
        candidates, sig_req, k = _random_instance(rng)
        got = _run(candidates, sig_req, k)
        assert len(got) <= k
        # each selected reference carries its pool candidate's function itself
        assert all(any(c.fn is d.fn for d in candidates) for c in got)
        clone_ids = [c.fn.clone_id for c in got if c.fn.clone_id is not None]
        assert len(clone_ids) == len(set(clone_ids))
        keys = [(c.s_final, c.s_sem, c.fn.id) for c in got]
        assert keys == sorted(keys)


def test_rerank_monotonic_in_guf():
    # guf 0 never comes from a KB, yet ln(0 + EPSILON) is still positive
    scores = [score_trust(2.0, guf) for guf in range(0, 200)]
    assert all(a > b > 0 for a, b in zip(scores, scores[1:]))


def test_rerank_monotonic_in_distance():
    for guf in (1, 3, 40):
        scores = [score_trust(s / 10.0, guf) for s in range(1, 100)]
        assert all(a < b for a, b in zip(scores, scores[1:]))


def test_rerank_scale_invariance():
    rng = random.Random(777)
    for _ in range(100):
        candidates, sig_req, k = _random_instance(rng)
        factor = rng.choice([0.001, 0.5, 7.0, 1e6])
        scaled = [Candidate(c.fn, c.s_sem * factor) for c in candidates]
        base = [c.fn.id for c in _run(candidates, sig_req, k)]
        got = [c.fn.id for c in _run(scaled, sig_req, k)]
        assert got == base


def test_rerank_empty_pool_is_empty():
    assert _run([], _sig({"public"}), 3) == []


def test_rerank_breaks_score_ties_by_function_id_before_clone_dedup():
    # every candidate has the same s_sem and guf, so the same s_final
    pool = [_cand(f"f{i:015d}", 1.5, 3, ("g1", "g2", None)[i % 3], {"public"})
            for i in range(20)]
    random.Random(5).shuffle(pool)
    got = _run(pool, _sig({"public"}), 6)
    assert [c.fn.id for c in got] == [f"f{i:015d}" for i in (0, 1, 2, 5, 8, 11)]
    assert {c.s_final for c in got} == {score_trust(1.5, 3)}
    assert all(c.s_final is None for c in pool)
    # a repeated candidate ties on every key, yet is never compared with itself
    solo = _cand("e" * 16, 1.0, 1, None, {"public"})
    assert [c.fn.id for c in _run([solo, solo], _sig(set()), 3)] == ["e" * 16] * 2
