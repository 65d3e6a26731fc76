import hashlib
import json
import struct
from pathlib import Path

import pytest

from scpatcher import embedding, ingest
from scpatcher.embedding import HashingEmbedder
from scpatcher.graph import (
    FormatError,
    GraphError,
    PropertyGraph,
    assign_clone_groups,
    build_graph,
    build_kb,
    compute_guf,
    load_kb,
    save_kb,
)
from scpatcher.ingest import (
    NodeKind,
    extract_triples_with_diagnostics,
    load_source,
    normalize_source,
    parse_source,
)
from scpatcher.repair import retrieve

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
ORACLES = FIXTURES / "oracles"


def _corpus_graph(corpus_paths):
    triples, functions = [], []
    for path in corpus_paths:
        unit = load_source(path)
        triples.extend(extract_triples_with_diagnostics(unit)[0])
        functions.extend(f for c in unit.contracts for f in c.functions)
    return build_graph(triples, functions), functions


def _counts_oracle():
    return json.loads((ORACLES / "corpus_counts.json").read_text())


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def test_corpus_graph_matches_hand_trace(corpus_paths):
    oracle = _counts_oracle()
    graph, _ = _corpus_graph(corpus_paths)
    assert len(graph.nodes) == oracle["nodes_total"]
    assert len(graph.edges) == oracle["edges_total"]
    by_kind = {}
    for node in graph.nodes.values():
        by_kind[node.kind.value] = by_kind.get(node.kind.value, 0) + 1
    assert by_kind == oracle["nodes_by_kind"]


def test_duplicate_triples_collapse():
    unit = parse_source("contract A { uint256 x;\nfunction f() public { x = 1; x = 2; } }")
    triples, _ = extract_triples_with_diagnostics(unit)
    functions = [f for c in unit.contracts for f in c.functions]
    graph = build_graph(triples, functions)
    writes = [e for e in graph.edges if e[1].value == "WRITES"]
    assert len(writes) == 1
    again = build_graph(triples + triples, functions)
    assert len(again.edges) == len(graph.edges)


def test_dangling_function_endpoint_rejected():
    unit = parse_source("contract A { uint256 x;\nfunction f() public { x = 1; } }")
    triples, _ = extract_triples_with_diagnostics(unit)
    with pytest.raises(GraphError) as err:
        build_graph(triples, [])
    assert err.value.code == "DanglingEndpoint"


# ---------------------------------------------------------------------------
# Clone groups
# ---------------------------------------------------------------------------

def test_planted_clone_pairs(corpus_paths):
    oracle = _counts_oracle()
    graph, _ = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph, 12)
    assert len(clones.groups) == oracle["clone_groups_total"]
    multi = clones.multi_member_groups()
    pairs = sorted(
        sorted(graph.node(m).payload.qualified_name for m in members)
        for members in multi.values()
    )
    assert pairs == [sorted(p) for p in oracle["clone_pairs"]]


def test_below_threshold_functions_have_no_clone_id(corpus_paths):
    oracle = _counts_oracle()
    graph, _ = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph, 12)
    nones = sorted(n.payload.qualified_name for n in graph.function_nodes()
                   if n.payload.clone_id is None)
    assert nones == oracle["clone_id_none"]
    for name in nones:
        fn = next(f for f in graph.functions() if f.qualified_name == name)
        assert fn.token_count < 12


def test_clone_members_normalize_identically(corpus_paths):
    graph, _ = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph, 12)
    for members in clones.groups.values():
        sequences = {tuple(normalize_source(graph.node(m).payload.source_text))
                     for m in members}
        assert len(sequences) == 1


def test_huge_threshold_empties_the_table(corpus_paths):
    graph, _ = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph, 10_000)
    assert clones.groups == {}
    assert all(n.payload.clone_id is None for n in graph.function_nodes())
    assert clones.size_of(None) == 1


def test_clone_assignment_is_deterministic(corpus_paths):
    graph_a, _ = _corpus_graph(corpus_paths)
    graph_b, _ = _corpus_graph(corpus_paths)
    a = assign_clone_groups(graph_a, 12)
    b = assign_clone_groups(graph_b, 12)
    assert a.groups == b.groups


# ---------------------------------------------------------------------------
# Usage frequency
# ---------------------------------------------------------------------------

def test_guf_matches_independent_recount(corpus_paths):
    graph, functions = _corpus_graph(corpus_paths)
    clones = assign_clone_groups(graph, 12)
    graph = compute_guf(graph, clones)

    # recount from raw parts: clone-group size by normalized-sequence
    # equality, call in-degree straight off the edge list
    sequences = {f.id: tuple(normalize_source(f.source_text)) for f in functions}
    for node in graph.function_nodes():
        fn = node.payload
        if fn.token_count >= 12:
            size = sum(1 for s in sequences.values() if s == sequences[fn.id])
        else:
            size = 1
        in_calls = sum(1 for s, rel, o in graph.edges
                       if rel.value == "CALLS" and o == fn.id)
        assert fn.guf == size + in_calls, fn.qualified_name


def test_guf_spot_values(corpus_paths):
    oracle = _counts_oracle()["guf"]
    graph, _ = _corpus_graph(corpus_paths)
    graph = compute_guf(graph, assign_clone_groups(graph, 12))
    gufs = {f.qualified_name: f.guf for f in graph.functions()}
    for name, expected in oracle.items():
        assert gufs[name] == expected, name
    assert all(v >= 1 for v in gufs.values())


def test_guf_grows_with_new_caller():
    base = ("contract A { uint256 x;\n"
            "function helper() public { x = 1; }\n"
            "function one() public { helper(); }\n")
    unit_one = parse_source(base + "}")
    unit_two = parse_source(base + "function two() public { helper(); }\n}")

    def guf_of_helper(unit):
        functions = [f for c in unit.contracts for f in c.functions]
        graph = build_graph(extract_triples_with_diagnostics(unit)[0], functions)
        graph = compute_guf(graph, assign_clone_groups(graph, 12))
        return next(f.guf for f in graph.functions() if f.name == "helper")

    assert guf_of_helper(unit_two) == guf_of_helper(unit_one) + 1


def test_node_lookup_of_unknown_id_raises():
    with pytest.raises(GraphError) as err:
        PropertyGraph().node("missing")
    assert err.value.code == "UnknownNode"


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_kb_round_trip(kb, kb_file):
    graph, clones, _ = kb
    loaded_graph, loaded_clones = load_kb(kb_file)
    assert loaded_graph == graph
    assert loaded_clones.min_tokens == clones.min_tokens
    assert loaded_clones.groups == clones.groups
    assert loaded_graph.embedder_meta == graph.embedder_meta
    assert loaded_graph.vectors == graph.vectors


def test_double_save_is_byte_identical(kb, tmp_path):
    graph, clones, _ = kb
    a, b = tmp_path / "a.scpk", tmp_path / "b.scpk"
    save_kb(graph, clones, a)
    save_kb(graph, clones, b)
    assert a.read_bytes() == b.read_bytes()


def test_empty_kb_round_trip(tmp_path):
    from scpatcher.graph import CloneGroupTable
    path = tmp_path / "empty.scpk"
    save_kb(PropertyGraph(), CloneGroupTable(min_tokens=12, groups={}), path)
    graph, clones = load_kb(path)
    assert graph.nodes == {} and graph.edges == []
    assert clones.groups == {}


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.scpk"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "BadMagic"


def test_load_rejects_version_mismatch(kb_file, tmp_path):
    blob = bytearray(kb_file.read_bytes())
    blob[4:6] = (999).to_bytes(2, "little")
    path = tmp_path / "v.scpk"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "VersionMismatch"


def test_load_rejects_truncation_everywhere(kb_file, tmp_path):
    # no prefix of a valid file may load as a partial graph
    blob = kb_file.read_bytes()
    for cut in (3, 5, 10, len(blob) // 2, len(blob) - 1):
        path = tmp_path / f"cut{cut}.scpk"
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_kb(path)


def test_load_rejects_trailing_garbage(kb_file, tmp_path):
    path = tmp_path / "t.scpk"
    path.write_bytes(kb_file.read_bytes() + b"tail")
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "Corrupt"


def test_load_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_kb(tmp_path / "absent.scpk")


def _rewrite_kb(kb_file, path, mutate):
    """Decode the four JSON sections, pass them to ``mutate`` and write the
    sections it returns (or, if it returns None, the ones it edited)."""
    blob = kb_file.read_bytes()
    offset, sections = 6, []
    for _ in range(4):
        (length,) = struct.unpack_from("<I", blob, offset)
        sections.append(json.loads(blob[offset + 4:offset + 4 + length]))
        offset += 4 + length
    sections = mutate(*sections) or sections
    out = bytearray(blob[:6])
    for section in sections:
        payload = json.dumps(section).encode("utf-8")
        out += struct.pack("<I", len(payload)) + payload
    path.write_bytes(bytes(out))
    return path


def _function_record(nodes, index=0):
    return [record for record in nodes if "payload" in record][index]


def _clone_ids_as_lists(nodes, edges, clones, meta):
    for record in nodes:
        if "payload" in record:
            record["payload"]["clone_id"] = [record["payload"]["clone_id"]]


@pytest.mark.parametrize("mutate", [
    # the clone section's groups must be an object
    lambda nodes, edges, clones, meta: clones.update(groups=[["a", ["b"]]]),
    # every signature feature must be a string
    lambda nodes, edges, clones, meta: _function_record(nodes)["payload"].update(
        signature=["public", 7]),
    # vectors are non-empty lists of the metadata's dimension
    lambda nodes, edges, clones, meta: _function_record(nodes).update(vector=[]),
    lambda nodes, edges, clones, meta: _function_record(nodes).update(vector=0.5),
    lambda nodes, edges, clones, meta: _function_record(nodes).update(vector=[0.6, 0.8, 0.0]),
    lambda nodes, edges, clones, meta: _function_record(nodes, 5).update(vector=[1.0] * 257),
    # every vector value is a finite number (json.loads accepts NaN and the infinities)
    lambda nodes, edges, clones, meta: _function_record(nodes)["vector"].__setitem__(
        3, float("nan")),
    lambda nodes, edges, clones, meta: _function_record(nodes)["vector"].__setitem__(
        3, float("inf")),
    lambda nodes, edges, clones, meta: _function_record(nodes)["vector"].__setitem__(
        3, float("-inf")),
    lambda nodes, edges, clones, meta: _function_record(nodes)["vector"].__setitem__(3, "0.5"),
    # the metadata is an object that names a known embedder and, if it has
    # one, a positive int dimension
    lambda nodes, edges, clones, meta: [nodes, edges, clones, []],
    lambda nodes, edges, clones, meta: [nodes, edges, clones, None],
    lambda nodes, edges, clones, meta: meta.update(name="word2vec"),
    lambda nodes, edges, clones, meta: meta.update(name=None),
    lambda nodes, edges, clones, meta: meta.update(dimension=0),
    lambda nodes, edges, clones, meta: meta.update(dimension=256.0),
    lambda nodes, edges, clones, meta: meta.update(dimension=True),
    lambda nodes, edges, clones, meta: meta.update(dimension=None),
    # a clone id is a string or null (a list loaded, then broke rerank's set)
    _clone_ids_as_lists,
], ids=["groups-list", "feature-int", "vector-empty", "vector-scalar", "vector-short",
        "vector-long", "vector-nan", "vector-inf", "vector-minus-inf", "vector-string",
        "meta-list", "meta-null", "embedder-unknown", "embedder-null", "dimension-zero",
        "dimension-float", "dimension-bool", "dimension-null", "clone-id-list"])
def test_load_rejects_malformed_sections_as_corrupt(kb_file, tmp_path, mutate):
    path = _rewrite_kb(kb_file, tmp_path / "bad.scpk", mutate)
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "Corrupt"


def test_load_rejects_vectors_of_differing_lengths_without_a_dimension(kb_file, tmp_path):
    def drop_dimension(nodes, edges, clones, meta):
        del meta["dimension"]

    path = _rewrite_kb(kb_file, tmp_path / "nodim.scpk", drop_dimension)
    assert len(next(iter(load_kb(path)[0].vectors.values()))) == 256

    def short_second_row(nodes, edges, clones, meta):
        drop_dimension(nodes, edges, clones, meta)
        _function_record(nodes, 1).update(vector=[1.0] * 255)

    path = _rewrite_kb(kb_file, tmp_path / "ragged.scpk", short_second_row)
    with pytest.raises(FormatError) as err:
        load_kb(path)
    assert err.value.code == "Corrupt"


def test_empty_metadata_loads_and_queries_with_the_default_embedder(
        kb, kb_file, corpus_paths, tmp_path):
    path = _rewrite_kb(kb_file, tmp_path / "nometa.scpk",
                       lambda nodes, edges, clones, meta: [nodes, edges, clones, {}])
    graph, _clones = load_kb(path)
    assert graph.embedder_meta is None
    unit = load_source(corpus_paths[0])
    fn = unit.contracts[0].functions[0]
    assert retrieve(graph, unit, fn, k=3) == retrieve(kb[0], unit, fn, k=3)


def test_rewritten_but_unchanged_kb_still_loads(kb, kb_file, tmp_path):
    path = _rewrite_kb(kb_file, tmp_path / "same.scpk", lambda *sections: None)
    assert load_kb(path)[0] == kb[0]


# ---------------------------------------------------------------------------
# KB build
# ---------------------------------------------------------------------------

def test_build_kb_report_counts(kb):
    graph, clones, report = kb
    oracle = _counts_oracle()
    assert report.files_seen == 10
    assert report.files_used == 10
    assert report.files_failed == []
    assert report.function_count == oracle["nodes_by_kind"]["function"]
    assert report.edge_count == oracle["edges_total"]
    assert report.clone_groups == len(clones.multi_member_groups())
    assert len(graph.embedder_meta["corpus_hashes"]) == 10


def test_build_kb_embeds_every_function(kb):
    graph, _, _ = kb
    for node in graph.function_nodes():
        vector = graph.vectors[node.id]
        assert len(vector) == 256
        norm = sum(v * v for v in vector) ** 0.5
        assert abs(norm - 1.0) < 1e-9


def test_build_kb_skips_duplicate_files(corpus_paths, tmp_path):
    copy = tmp_path / "token_copy.sol"
    original = (CORPUS / "token.sol").read_text()
    copy.write_text("// mirrored\n" + original)
    graph, _, report = build_kb(list(corpus_paths) + [copy],
                                HashingEmbedder(256), 12)
    assert report.files_seen == 11
    assert report.files_used == 10
    assert [Path(p).name for p in report.duplicates_skipped] == ["token_copy.sol"]
    assert len(graph.function_nodes()) == 28


def test_build_kb_records_failures_and_continues(corpus_paths, tmp_path):
    broken = tmp_path / "broken.sol"
    broken.write_text("contract Broken { function f() public {")
    _, _, report = build_kb(list(corpus_paths) + [broken],
                            HashingEmbedder(256), 12)
    assert report.files_used == 10
    assert [Path(p).name for p in report.files_failed] == ["broken.sol"]


# ---------------------------------------------------------------------------
# One lex per file
# ---------------------------------------------------------------------------

#: SHA-256 of the KB saved from the fixture corpus with HashingEmbedder().
FIXTURE_KB_SHA256 = "0d26055eac4a5599fdc19b71dc7edbddeaf45aa5c4bf37030529714d20d72ee9"


def test_fixture_kb_bytes_are_pinned(corpus_paths, tmp_path):
    graph, clones, _ = build_kb(corpus_paths, HashingEmbedder())
    path = tmp_path / "kb.scpk"
    save_kb(graph, clones, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXTURE_KB_SHA256


def test_build_kb_lexes_each_file_once(corpus_paths, monkeypatch):
    calls = []
    for module in (ingest, embedding):
        original = module.lex
        monkeypatch.setattr(module, "lex", lambda *args, _lex=original, **kwargs:
                            calls.append(args[0]) or _lex(*args, **kwargs))
    _, _, report = build_kb(corpus_paths, HashingEmbedder(256), 12)
    # one parse per file; functions are embedded from the parse's tokens
    assert (report.files_used, report.function_count) == (10, 28)
    assert len(calls) == 10


def test_function_nodes_are_the_function_kind_nodes_in_insertion_order(kb, kb_file):
    for graph in (kb[0], load_kb(kb_file)[0]):
        assert graph.function_nodes() == [
            n for n in graph.nodes.values() if n.kind is NodeKind.FUNCTION]
        assert len(graph.function_nodes()) == 28
        graph.function_nodes().clear()  # a copy: the graph keeps its list
        assert len(graph.function_nodes()) == 28


def test_build_kb_clone_groups_match_standalone_grouping(kb, corpus_paths):
    _, clones, _ = kb
    graph, _ = _corpus_graph(corpus_paths)
    standalone = assign_clone_groups(graph, 12)
    assert standalone.groups == clones.groups
    assert {f.id: f.clone_id for f in graph.functions()} == \
        {f.id: f.clone_id for f in kb[0].functions()}


def test_build_kb_lists_parse_diagnostics_before_triple_diagnostics(tmp_path):
    paths = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.sol"
        path.write_text(f"contract {name.upper()} {{ @ ;\n"
                        f"function f() public {{ missing_{name}(); }} }}")
        paths.append(path)
    _, _, report = build_kb(paths, HashingEmbedder(16), 12)
    assert [line.split(": ", 1)[-1] if line.startswith(str(tmp_path)) else line
            for line in report.diagnostics] == [
        "line 1: skipped unexpected character '@'",
        "line 1: skipped unexpected character '@'",
        "A.f: unresolved call target 'missing_a'",
        "B.f: unresolved call target 'missing_b'",
    ]
