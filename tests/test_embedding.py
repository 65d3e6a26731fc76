import hashlib
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from scpatcher import embedding
from scpatcher.embedding import (
    DEFAULT_POOL_SIZE,
    Candidate,
    DimensionMismatchError,
    EmbeddingVector,
    EmptyIndexError,
    HashingEmbedder,
    ProviderError,
    RemoteEmbedder,
    build_index,
    index_from_graph,
    knn,
)
from scpatcher.graph import build_kb
from scpatcher.ingest import lex, load_source
from scpatcher.model import FunctionUnit, SignatureFeatures

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"


def _oracle_distance(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


# ---------------------------------------------------------------------------
# Distance
# ---------------------------------------------------------------------------

def test_distance_identity_and_pythagoras():
    v = (0.3, 0.4, 0.5)
    assert math.dist(v, v) == 0.0
    assert math.dist((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_distance_against_elementwise_oracle():
    rng = random.Random(7)
    for _ in range(100):
        dim = rng.randrange(2, 40)
        a = tuple(rng.uniform(-5, 5) for _ in range(dim))
        b = tuple(rng.uniform(-5, 5) for _ in range(dim))
        assert abs(math.dist(a, b) - _oracle_distance(a, b)) < 1e-12
        assert math.dist(a, b) == math.dist(b, a)


def test_distance_triangle_inequality():
    rng = random.Random(11)
    for _ in range(200):
        pts = [tuple(rng.uniform(-1, 1) for _ in range(8)) for _ in range(3)]
        ab = math.dist(pts[0], pts[1])
        bc = math.dist(pts[1], pts[2])
        ac = math.dist(pts[0], pts[2])
        assert ac <= ab + bc + 1e-9


# ---------------------------------------------------------------------------
# Hashing embedder
# ---------------------------------------------------------------------------

def _embed_text(provider, text):
    """The vector ``provider.embed`` gives ``text``, lexed whole."""
    [vector] = provider.embed([(text, lex(text))])
    return vector


def test_embed_is_deterministic():
    provider = HashingEmbedder(64)
    text = "function f() public { x = x + 1; }"
    assert _embed_text(provider, text) == _embed_text(provider, text)


def test_embed_unit_norm_on_corpus(corpus_paths):
    provider = HashingEmbedder(256)
    for path in corpus_paths:
        unit = load_source(path)
        for contract in unit.contracts:
            for fn in contract.functions:
                vector = _embed_text(provider, fn.source_text)
                assert abs(math.hypot(*vector.values) - 1.0) < 1e-9


def test_embed_empty_input_is_basis_vector():
    vector = _embed_text(HashingEmbedder(16), "")
    assert vector == EmbeddingVector((0,), (1.0,))
    assert vector.dense(16) == (1.0,) + (0.0,) * 15


def test_embed_ignores_literal_values_and_comments():
    provider = HashingEmbedder(128)
    a = _embed_text(provider, 'x = 5; s = "north";')
    b = _embed_text(provider, 'x = 900; /* note */ s = "south";')
    assert a == b


def _dense_reference(text, dimension):
    """The dense formula: count every bucket, weigh and sum all of them."""
    counts = [0] * dimension
    for tok in lex(text):
        key = "LIT" if tok.kind in ("number", "string") else tok.text
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        counts[int.from_bytes(digest[:8], "big") % dimension] += 1
    weights = [math.log1p(c) for c in counts]
    norm = math.sqrt(sum(w * w for w in weights))
    if norm == 0.0:
        basis = [0.0] * dimension
        basis[0] = 1.0
        return tuple(basis)
    return tuple(w / norm for w in weights)


def _sparse_reference(text, dimension):
    """The dense formula's vector with its zeros dropped."""
    return EmbeddingVector.from_dense(_dense_reference(text, dimension))


def test_embed_tokens_of_a_declaration_equals_embed_of_its_text():
    provider = HashingEmbedder(256)
    functions = 0
    for path in sorted(FIXTURES.rglob("*.sol")):
        unit = load_source(path)
        for contract in unit.contracts:
            for fn, decl in zip(contract.functions, contract.decls):
                [from_tokens] = provider.embed([(fn.source_text,
                                                 unit.tokens[decl.start:decl.end])])
                assert from_tokens == _embed_text(provider, fn.source_text)
                assert from_tokens == _sparse_reference(fn.source_text, 256)
                functions += 1
    assert functions >= 70


def test_a_new_embedder_reuses_the_buckets_an_earlier_one_computed(monkeypatch):
    text = "function bucketMemoProbe(uint256 q) external { q += 1; }"
    first = _embed_text(HashingEmbedder(48), text)
    hashed = []
    monkeypatch.setattr(embedding, "hashlib", SimpleNamespace(
        sha256=lambda data: hashed.append(data) or hashlib.sha256(data)))
    assert _embed_text(HashingEmbedder(48), text) == first
    assert hashed == []
    _embed_text(HashingEmbedder(47), text)  # one memo per dimension
    assert hashed


_TOKEN_TEXT = st.one_of(
    st.sampled_from(["a", "b", "x1", "_y", "$z", "LIT", "uint256", "function", "return",
                     "0", "42", "0xff", "1e5", '"s"', "'c'", 'hex"00"', "(", ")", "{", "}",
                     ";", "+=", "=>", "// note\n", "/* c */", "@", "#"]),
    st.text(alphabet="abcxyz_019 .;(){}\"'/*+-=<>\n@é", max_size=8),
)


@settings(max_examples=150)
@given(st.sampled_from([1, 2, 3, 16, 64, 256, 1000]),
       st.lists(st.lists(_TOKEN_TEXT, max_size=40).map(" ".join), min_size=1, max_size=4))
def test_embed_equals_the_dense_formula(dimension, texts):
    provider = HashingEmbedder(dimension)  # shared, so later texts reuse its bucket memo
    for text in texts:
        vector = _embed_text(provider, text)
        # the nonzero buckets, ascending, of the dense formula's vector
        assert vector == _sparse_reference(text, dimension)
        assert vector.dense(dimension) == _dense_reference(text, dimension)
        if not lex(text):
            assert vector == ((0,), (1.0,))


def test_clone_pairs_embed_closer_than_strangers(kb):
    graph, _, _ = kb
    fns = {f.qualified_name: f for f in graph.functions()}
    vec = {q: graph.vectors[f.id].dense(256) for q, f in fns.items()}
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


def _index(functions, dense_vectors, dimension):
    """The index over dense test vectors, given to it as sparse pairs."""
    sparse = {fid: EmbeddingVector.from_dense(vector) for fid, vector in dense_vectors.items()}
    return build_index(functions, sparse, dimension)


def _random_index(rng, count, dim):
    functions = [_fn(i) for i in range(count)]
    vectors = {f.id: tuple(rng.uniform(-1, 1) for _ in range(dim))
               for f in functions}
    return _index(functions, vectors, dim), functions, vectors


def _dense_knn(vectors, query, n):
    """The reference: every row scored with math.dist, ids break ties."""
    return sorted((math.dist(query, vector), fid) for fid, vector in vectors.items())[:n]


def test_knn_matches_full_sort_oracle():
    rng = random.Random(500)
    index, functions, vectors = _random_index(rng, 500, 256)
    for _ in range(5):
        query = tuple(rng.uniform(-1, 1) for _ in range(256))
        got = knn(index, EmbeddingVector.from_dense(query), 50)
        oracle = sorted(
            ((_oracle_distance(query, vectors[f.id]), f.id) for f in functions),
        )[:50]
        assert [c.fn.id for c in got] == [fid for _, fid in oracle]
        assert len(got) == 50


def test_knn_matches_loop_reference_on_fixture_kb(kb):
    graph, _, _ = kb
    index = index_from_graph(graph)
    provider = HashingEmbedder(256)
    dense = {fid: vector.dense(256) for fid, vector in graph.vectors.items()}
    for fn in graph.functions():
        query = _embed_text(provider, fn.source_text)
        for n in (1, 5, DEFAULT_POOL_SIZE):
            reference = _dense_knn(dense, query.dense(256), n)
            got = knn(index, query, n)
            assert [c.fn.id for c in got] == [fid for _, fid in reference]
            assert [c.s_sem for c in got] == [distance for distance, _ in reference]


@st.composite
def _index_and_query(draw):
    """Sparse, duplicate, near-duplicate and all-zero rows; a sparse, dense,
    all-zero or row-equal query; signed values of two magnitudes from
    1e-166 to 1e152, so that one column can hold 1e-12 and 1.0; and ``n``
    anywhere, or where the n-th and the next distance tie."""
    dimension = draw(st.sampled_from([1, 3, 12, 36, 64]))
    exponent = draw(st.integers(-150, 150))
    small = exponent - draw(st.integers(0, 14))
    value = st.builds(lambda m, e, low: m * 10.0 ** ((small if low else exponent) + e),
                      st.floats(-1.0, 1.0), st.integers(-2, 2), st.booleans())

    def sparse(most):
        picked = draw(st.dictionaries(st.integers(0, dimension - 1), value, max_size=most))
        return tuple(picked.get(j, 0.0) for j in range(dimension))

    def near(row):
        # one value moved by a relative 2**-30 to 2**-52, less than a quantum
        j = draw(st.integers(0, dimension - 1))
        moved = row[j] + row[j] * 2.0 ** -draw(st.integers(30, 52))
        return row[:j] + (moved,) + row[j + 1:]

    rows = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["sparse", "sparse", "duplicate", "near", "zero"]))
        if kind in ("duplicate", "near") and rows:
            row = draw(st.sampled_from(rows))
            rows.append(row if kind == "duplicate" else near(row))
        elif kind == "zero":
            rows.append((0.0,) * dimension)
        else:
            rows.append(sparse(max(1, dimension // 4)))
    kind = draw(st.sampled_from(["sparse", "dense", "zero", "row"]))
    if kind == "sparse":
        query = sparse(max(1, dimension // 6))
    elif kind == "dense":
        query = tuple(draw(st.lists(value, min_size=dimension, max_size=dimension)))
    elif kind == "zero":
        query = (0.0,) * dimension
    else:
        query = draw(st.sampled_from(rows))
    distances = sorted(math.dist(query, row) for row in rows)
    ties = [n for n in range(1, len(rows)) if distances[n - 1] == distances[n]]
    if ties and draw(st.booleans()):
        n = draw(st.sampled_from(ties))
    else:
        n = draw(st.integers(1, len(rows) + 3))
    functions = [_fn(i) for i in range(len(rows))]
    return {f.id: row for f, row in zip(functions, rows)}, functions, query, n, dimension


@settings(max_examples=150)
@given(_index_and_query())
def test_knn_equals_the_dense_scan(case):
    vectors, functions, query, n, dimension = case
    got = knn(_index(functions, vectors, dimension), EmbeddingVector.from_dense(query), n)
    reference = _dense_knn(vectors, query, n)
    assert [c.fn.id for c in got] == [fid for _, fid in reference]
    assert [c.s_sem for c in got] == [distance for distance, _ in reference]


def test_knn_rescores_only_the_rows_the_filter_keeps(monkeypatch):
    rng = random.Random(41)
    dimension = 256

    def sparse(count):
        values = [0.0] * dimension
        for j in rng.sample(range(dimension), count):
            values[j] = rng.uniform(-1, 1)
        return tuple(values)

    functions = [_fn(i) for i in range(300)]
    vectors = {f.id: sparse(rng.randrange(10, 37)) for f in functions}
    index = _index(functions, vectors, dimension)
    rescored = []
    dist = math.dist

    def counting_dist(p, q):
        if len(p) == dimension:
            rescored.append(p)
        return dist(p, q)

    dense = tuple(rng.uniform(-1, 1) for _ in range(dimension))
    for query, n, filtered in ((sparse(18), 5, True), (dense, 5, True),
                               (sparse(18), 300, False), (sparse(18), 400, False)):
        rescored.clear()
        with monkeypatch.context() as patch:
            patch.setattr(math, "dist", counting_dist)
            got = knn(index, EmbeddingVector.from_dense(query), n)
        assert [(c.s_sem, c.fn.id) for c in got] == _dense_knn(vectors, query, n)
        if filtered:
            # measured: 5 of the 300 rows for the sparse query and for the dense one
            assert n <= len(rescored) <= 30
        else:
            assert len(rescored) == 300


def test_knn_keeps_the_nearest_row_when_rounding_ranks_it_behind():
    """At dimension 64, F = 28, and values just above 1/8 make M = 1/4, so a
    quantum is u = 2**-30. Every value of the nearer row rounds down by
    0.49u and every value of the farther row up by 0.49u: the filter's
    scores misrank them by about 15.7u, more than the float margin, and
    only the 2E term keeps the nearer row."""
    dimension = 64
    u = 2.0 ** -30
    functions = [_fn(i) for i in range(4)]
    rows = [(0.125 + 0.51 * u,) * dimension, (0.125 + 0.49 * u,) * dimension,
            (0.0,) * dimension, (-0.125,) * dimension]
    vectors = {f.id: row for f, row in zip(functions, rows)}
    index = _index(functions, vectors, dimension)
    query = (0.125,) * dimension
    got = knn(index, EmbeddingVector.from_dense(query), 1)
    assert [(c.s_sem, c.fn.id) for c in got] == _dense_knn(vectors, query, 1)
    assert got[0].fn.id == functions[1].id


def test_knn_equals_the_dense_scan_at_the_largest_lane_sums():
    """Every value of a dense query at the index's largest magnitude, a power
    of two, against rows all at that magnitude: a lane sums 2048 products
    of 2**F each, the largest sum the fraction bits allow at this dimension."""
    rng = random.Random(2048)
    dimension = 2048
    top = 0.5
    rows = [(top,) * dimension, (-top,) * dimension,
            tuple(rng.choice((top, -top)) for _ in range(dimension)),
            (0.0,) * dimension]
    rows += [tuple(rng.uniform(-top, top) if rng.random() < 0.1 else 0.0
                   for _ in range(dimension)) for _ in range(12)]
    rows.append(rows[0])
    functions = [_fn(i) for i in range(len(rows))]
    vectors = {f.id: row for f, row in zip(functions, rows)}
    index = _index(functions, vectors, dimension)
    for query in ((top,) * dimension, (-top,) * dimension):
        for n in (1, 2, 3, 8):
            got = knn(index, EmbeddingVector.from_dense(query), n)
            assert [(c.s_sem, c.fn.id) for c in got] == _dense_knn(vectors, query, n)


def test_knn_rejects_query_of_wrong_dimension(kb):
    graph, _, _ = kb
    index = index_from_graph(graph)
    # a sparse query of another dimension shows as a bucket outside the index's
    for buckets in ((256,), (3, 300), (-1, 3)):
        with pytest.raises(DimensionMismatchError):
            knn(index, EmbeddingVector(buckets, (0.5,) * len(buckets)), 5)


def test_knn_breaks_distance_ties_by_function_id():
    functions = [_fn(i) for i in (3, 1, 2)]
    vectors = {f.id: EmbeddingVector((0,), (1.0,)) for f in functions}
    index = build_index(functions, vectors, 2)
    got = knn(index, EmbeddingVector((), ()), 3)
    assert [c.fn.id for c in got] == sorted(f.id for f in functions)


def test_knn_self_query_ranks_itself_first(kb):
    graph, _, _ = kb
    index = index_from_graph(graph)
    target = sorted(graph.vectors)[0]
    got = knn(index, graph.vectors[target], 5)
    assert got[0].fn.id == target
    assert got[0].s_sem == 0.0


def test_knn_pool_larger_than_index(kb):
    graph, _, _ = kb
    index = index_from_graph(graph)
    query = _embed_text(HashingEmbedder(256), "function q() public {}")
    got = knn(index, query, 1000)
    assert len(got) == len(graph.function_nodes())
    distances = [c.s_sem for c in got]
    assert distances == sorted(distances)


def test_knn_carries_payload_fields(kb):
    graph, _, _ = kb
    index = index_from_graph(graph)
    query = _embed_text(HashingEmbedder(256), "function q() public {}")
    for cand in knn(index, query, 10):
        assert isinstance(cand, Candidate)
        assert cand.fn is graph.node(cand.fn.id).payload
        assert cand.fn.guf >= 1
        assert cand.s_final is None
        assert cand.fn.signature.sorted_features()


def test_knn_empty_index_raises():
    index = build_index([], {}, 1)
    with pytest.raises(EmptyIndexError):
        knn(index, EmbeddingVector((0,), (1.0,)), 5)


def test_knn_rejects_nonpositive_n(kb):
    graph, _, _ = kb
    index = index_from_graph(graph)
    with pytest.raises(ValueError):
        knn(index, EmbeddingVector((), ()), 0)


def test_build_index_rejects_mixed_dimensions():
    # a vector of a larger dimension shows as a bucket outside the index's
    functions = [_fn(1), _fn(2)]
    vectors = {functions[0].id: EmbeddingVector((0,), (1.0,)),
               functions[1].id: EmbeddingVector((0, 2), (0.6, 0.8))}
    with pytest.raises(DimensionMismatchError):
        build_index(functions, vectors, 2)
    assert len(build_index(functions, vectors, 3)) == 2


def test_build_index_rows_and_columns_are_the_dense_vectors():
    functions = [_fn(i) for i in range(3)]
    dense = [(0.0, 0.5, 0.0, -2.0), (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 3.0)]
    index = _index(functions, {f.id: row for f, row in zip(functions, dense)}, 4)
    assert index.rows == dense
    # M = 2**2, the smallest power of two at or above 3.0, and F = (62 - 2) // 2
    # at dimension 4: row i holds round(v * 2**F / M) from bit 64 * i up
    assert index.scale == 2
    assert index.packed == tuple(
        sum(round(row[j] * 2 ** 30 / 4) << 64 * i for i, row in enumerate(dense))
        for j in range(4))
    # a negative value borrows from the lanes above it
    assert index.packed[3] == -(2 ** 29) + (3 * 2 ** 28 << 128)
    assert index.sq_norms == tuple(math.hypot(*row) ** 2 for row in dense)
    assert index.max_sq_norm == max(index.sq_norms)
    # every zero in the rows is one shared float
    zeros = {id(v) for line in index.rows for v in line if v == 0.0}
    assert len(zeros) == 1


# ---------------------------------------------------------------------------
# Remote embedder, against a fake session
# ---------------------------------------------------------------------------

class _FakeResponse:
    def __init__(self, body, status=200):
        self.body = body
        self.status = status

    def raise_for_status(self):
        if self.status >= 400:
            raise requests.HTTPError(f"status {self.status}")

    def json(self):
        if isinstance(self.body, Exception):
            raise self.body
        return self.body


class _FakeSession:
    """Records each post's JSON payload and answers with ``reply(payload)``."""

    def __init__(self, reply):
        self.reply = reply
        self.posts = []

    def post(self, url, json, headers, timeout):
        self.posts.append(json)
        reply = self.reply(json)
        if isinstance(reply, Exception):
            raise reply
        return reply


def _hashing_reply(dimension):
    provider = HashingEmbedder(dimension)
    return lambda payload: _FakeResponse(
        {"vectors": [list(_embed_text(provider, text).dense(dimension))
                     for text in payload["input"]]})


def test_remote_build_kb_sends_one_request_per_file_with_new_functions(corpus_paths, tmp_path):
    no_functions = tmp_path / "state_only.sol"
    no_functions.write_text("contract StateOnly { uint256 total; }")
    paths = list(corpus_paths) + [no_functions]
    session = _FakeSession(_hashing_reply(16))
    remote = RemoteEmbedder(url="http://embed.test/v1", dimension=16, session=session)
    graph, _, report = build_kb(paths, remote, 12)

    expected = []
    for path in corpus_paths:
        unit = load_source(path)
        texts = [fn.source_text for c in unit.contracts for fn in c.functions]
        if texts:
            expected.append(texts)
    assert report.function_count == 28
    assert len(session.posts) == len(expected) <= 10
    assert [post["input"] for post in session.posts] == expected
    assert all(post["model"] == "default" for post in session.posts)
    assert graph.vectors == build_kb(paths, HashingEmbedder(16), 12)[0].vectors
    assert graph.embedder_meta["name"] == "remote"


@pytest.mark.parametrize("reply, code", [
    (lambda payload: _FakeResponse({"vectors": [[0.5] * 15 for _ in payload["input"]]}),
     "DimensionMismatch"),
    (lambda payload: _FakeResponse(ValueError("Expecting value")), "RemoteUnavailable"),
    (lambda payload: requests.ConnectionError("refused"), "RemoteUnavailable"),
    (lambda payload: requests.Timeout("slow"), "RemoteUnavailable"),
    (lambda payload: _FakeResponse({"error": "busy"}, status=503), "RemoteUnavailable"),
    (lambda payload: _FakeResponse({"vectors": [[0.5] * 16]}), "RemoteUnavailable"),
    (lambda payload: _FakeResponse({"vectors": {}}), "RemoteUnavailable"),
    (lambda payload: _FakeResponse([[0.5] * 16, [0.5] * 16]), "RemoteUnavailable"),
    (lambda payload: _FakeResponse({"vectors": [7, 7]}), "RemoteUnavailable"),
    (lambda payload: _FakeResponse({"vectors": [["x"] * 16, [0.5] * 16]}), "RemoteUnavailable"),
    # float() would take the string "0.5" and true; load_kb takes neither
    (lambda payload: _FakeResponse({"vectors": [[0.5] * 15 + ["0.5"], [0.5] * 16]}),
     "RemoteUnavailable"),
    (lambda payload: _FakeResponse({"vectors": [[0.5] * 16, [True] + [0.5] * 15]}),
     "RemoteUnavailable"),
    # json.loads, which requests' Response.json uses, accepts NaN
    (lambda payload: _FakeResponse(json.loads(
        '{"vectors": [[0.5, NaN%s], [0.5%s]]}' % (", 0.5" * 14, ", 0.5" * 15))),
     "RemoteUnavailable"),
    # finite, but of a norm above 2**510, where knn's scores could overflow
    (lambda payload: _FakeResponse({"vectors": [[1e200] * 16 for _ in payload["input"]]}),
     "RemoteUnavailable"),
    # an int no float can hold (float() raised OverflowError)
    (lambda payload: _FakeResponse({"vectors": [[10 ** 400] + [0.5] * 15,
                                                [0.5] * 16]}), "RemoteUnavailable"),
], ids=["wrong-dimension", "non-json", "connection", "timeout", "http-503", "wrong-count",
        "vectors-object", "body-list", "vector-scalar", "non-numeric", "value-string",
        "value-bool", "non-finite", "huge-norm", "int-beyond-float"])
def test_remote_failures_raise_provider_errors(reply, code):
    session = _FakeSession(reply)
    remote = RemoteEmbedder(url="http://embed.test/v1", dimension=16, session=session)
    with pytest.raises(ProviderError) as err:
        remote.embed([("function a() {}", []), ("function b() {}", [])])
    assert err.value.code == code
    assert [post["input"] for post in session.posts] == [["function a() {}", "function b() {}"]]


def test_remote_vectors_are_sparse_floats_with_their_zeros_dropped():
    reply = {"vectors": [[0, 0.5, 0.0, -0.0, 2, 0, 0, 0], [0] * 8]}
    session = _FakeSession(lambda payload: _FakeResponse(reply))
    remote = RemoteEmbedder(url="http://embed.test/v1", dimension=8, session=session)
    first, zero = remote.embed([("function a() {}", []), ("function b() {}", [])])
    assert first == ((1, 4), (0.5, 2.0))
    assert all(type(v) is float for v in first.values)
    assert zero == ((), ())
