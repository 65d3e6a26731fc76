import math
import random
from pathlib import Path

import pytest

from scpatcher.embedding import (
    DEFAULT_POOL_SIZE,
    Candidate,
    DimensionMismatchError,
    EmbeddingVector,
    EmptyIndexError,
    HashingEmbedder,
    build_index,
    index_from_graph,
    knn,
    semantic_distance,
)
from scpatcher.ingest import load_source
from scpatcher.model import FunctionUnit, SignatureFeatures

CORPUS = Path(__file__).parent / "fixtures" / "corpus"


def _oracle_distance(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a.values, b.values)))


# ---------------------------------------------------------------------------
# Distance
# ---------------------------------------------------------------------------

def test_distance_identity_and_pythagoras():
    v = EmbeddingVector((0.3, 0.4, 0.5))
    assert semantic_distance(v, v) == 0.0
    a = EmbeddingVector((0.0, 0.0))
    b = EmbeddingVector((3.0, 4.0))
    assert semantic_distance(a, b) == 5.0


def test_distance_against_elementwise_oracle():
    rng = random.Random(7)
    for _ in range(100):
        dim = rng.randrange(2, 40)
        a = EmbeddingVector(tuple(rng.uniform(-5, 5) for _ in range(dim)))
        b = EmbeddingVector(tuple(rng.uniform(-5, 5) for _ in range(dim)))
        assert abs(semantic_distance(a, b) - _oracle_distance(a, b)) < 1e-12
        assert semantic_distance(a, b) == semantic_distance(b, a)


def test_distance_triangle_inequality():
    rng = random.Random(11)
    for _ in range(200):
        pts = [EmbeddingVector(tuple(rng.uniform(-1, 1) for _ in range(8)))
               for _ in range(3)]
        ab = semantic_distance(pts[0], pts[1])
        bc = semantic_distance(pts[1], pts[2])
        ac = semantic_distance(pts[0], pts[2])
        assert ac <= ab + bc + 1e-9


def test_distance_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        semantic_distance(EmbeddingVector((1.0,)), EmbeddingVector((1.0, 2.0)))


# ---------------------------------------------------------------------------
# Hashing embedder
# ---------------------------------------------------------------------------

def test_embed_is_deterministic():
    provider = HashingEmbedder(64)
    text = "function f() public { x = x + 1; }"
    assert provider.embed(text).values == provider.embed(text).values


def test_embed_unit_norm_on_corpus(corpus_paths):
    provider = HashingEmbedder(256)
    for path in corpus_paths:
        unit = load_source(path)
        for contract in unit.contracts:
            for fn in contract.functions:
                vector = provider.embed(fn.source_text)
                assert abs(vector.norm() - 1.0) < 1e-9


def test_embed_empty_input_is_basis_vector():
    vector = HashingEmbedder(16).embed("")
    assert vector.values[0] == 1.0
    assert all(v == 0.0 for v in vector.values[1:])
    assert abs(vector.norm() - 1.0) < 1e-9


def test_embed_ignores_literal_values_and_comments():
    provider = HashingEmbedder(128)
    a = provider.embed('x = 5; s = "north";')
    b = provider.embed('x = 900; /* note */ s = "south";')
    assert a.values == b.values


def test_clone_pairs_embed_closer_than_strangers(kb):
    graph, _, _ = kb
    fns = {f.qualified_name: f for f in graph.functions()}
    vec = {q: EmbeddingVector(graph.vectors[f.id]) for q, f in fns.items()}
    pairs = [("SimpleToken.transfer", "MiniToken.move"),
             ("SafeVault.withdraw", "SteadyVault.pull"),
             ("Ownable.setOwner", "Managed.setAdmin")]
    stranger = vec["MathKit.clampedAdd"]
    for left, right in pairs:
        within = _oracle_distance(vec[left], vec[right])
        assert within < _oracle_distance(vec[left], stranger)
        assert within < _oracle_distance(vec[right], stranger)


# ---------------------------------------------------------------------------
# knn
# ---------------------------------------------------------------------------

def _fn(i, dim_tokens=20):
    sig = SignatureFeatures(frozenset({"public"}))
    return FunctionUnit(id=f"{i:016x}", contract_name="C", name=f"f{i}",
                        source_text=f"function f{i}() public {{}}",
                        signature=sig, token_count=dim_tokens, guf=1)


def _random_index(rng, count, dim):
    functions = [_fn(i) for i in range(count)]
    vectors = {f.id: tuple(rng.uniform(-1, 1) for _ in range(dim))
               for f in functions}
    return build_index(functions, vectors), functions, vectors


def test_knn_matches_full_sort_oracle():
    rng = random.Random(500)
    index, functions, vectors = _random_index(rng, 500, 256)
    for _ in range(5):
        query = EmbeddingVector(tuple(rng.uniform(-1, 1) for _ in range(256)))
        got = knn(index, query, 50)
        oracle = sorted(
            ((_oracle_distance(query, EmbeddingVector(vectors[f.id])), f.id)
             for f in functions),
        )[:50]
        assert [c.function_id for c in got] == [fid for _, fid in oracle]
        assert len(got) == 50


def test_knn_matches_loop_reference_on_fixture_kb(kb):
    graph, _, _ = kb
    index = index_from_graph(graph)
    provider = HashingEmbedder(256)
    for fn in graph.functions():
        query = provider.embed(fn.source_text)
        for n in (1, 5, DEFAULT_POOL_SIZE):
            reference = sorted((math.dist(query.values, vector), fid)
                               for fid, vector in graph.vectors.items())[:n]
            got = knn(index, query, n)
            assert [c.function_id for c in got] == [fid for _, fid in reference]
            assert [c.s_sem for c in got] == [distance for distance, _ in reference]


def test_knn_rejects_query_of_wrong_dimension(kb):
    graph, _, _ = kb
    index = index_from_graph(graph)
    for dimension in (255, 257):
        with pytest.raises(DimensionMismatchError):
            knn(index, EmbeddingVector(tuple([0.0] * dimension)), 5)


def test_knn_breaks_distance_ties_by_function_id():
    functions = [_fn(i) for i in (3, 1, 2)]
    vectors = {f.id: (1.0, 0.0) for f in functions}
    index = build_index(functions, vectors)
    got = knn(index, EmbeddingVector((0.0, 0.0)), 3)
    assert [c.function_id for c in got] == sorted(f.id for f in functions)


def test_knn_self_query_ranks_itself_first(kb):
    graph, _, _ = kb
    index = index_from_graph(graph)
    target = sorted(graph.vectors)[0]
    got = knn(index, EmbeddingVector(graph.vectors[target]), 5)
    assert got[0].function_id == target
    assert got[0].s_sem == 0.0


def test_knn_pool_larger_than_index(kb):
    graph, _, _ = kb
    index = index_from_graph(graph)
    query = HashingEmbedder(256).embed("function q() public {}")
    got = knn(index, query, 1000)
    assert len(got) == len(graph.function_nodes())
    distances = [c.s_sem for c in got]
    assert distances == sorted(distances)


def test_knn_carries_payload_fields(kb):
    graph, _, _ = kb
    index = index_from_graph(graph)
    query = HashingEmbedder(256).embed("function q() public {}")
    for cand in knn(index, query, 10):
        assert isinstance(cand, Candidate)
        assert cand.guf >= 1
        assert cand.s_final is None
        assert cand.signature.sorted_features()


def test_knn_clamps_zero_guf_to_one():
    fn = _fn(1)
    object.__setattr__(fn, "guf", 0)
    index = build_index([fn], {fn.id: (1.0, 0.0)})
    got = knn(index, EmbeddingVector((0.0, 1.0)), 1)
    assert got[0].guf == 1


def test_knn_empty_index_raises():
    index = build_index([], {})
    with pytest.raises(EmptyIndexError):
        knn(index, EmbeddingVector((1.0,)), 5)


def test_knn_rejects_nonpositive_n(kb):
    graph, _, _ = kb
    index = index_from_graph(graph)
    with pytest.raises(ValueError):
        knn(index, EmbeddingVector(tuple([0.0] * 256)), 0)


def test_build_index_rejects_mixed_dimensions():
    functions = [_fn(1), _fn(2)]
    vectors = {functions[0].id: (1.0, 0.0), functions[1].id: (1.0, 0.0, 0.0)}
    with pytest.raises(DimensionMismatchError):
        build_index(functions, vectors)
