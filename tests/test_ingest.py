import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpatcher.ingest import (
    IngestError,
    canonical_source_hash,
    check_brace_balance,
    extract_triples_with_diagnostics,
    lex,
    load_source,
    normalize_source,
    parse_source,
)

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
ORACLES = FIXTURES / "oracles"


# ---------------------------------------------------------------------------
# Lexing and normalization
# ---------------------------------------------------------------------------

def test_lex_spans_reconstruct_source():
    text = 'contract A { uint256 x = 0x1f; string s = "he{llo"; }'
    for tok in lex(text):
        assert text[tok.start:tok.end] == tok.text


def test_normalize_masks_identifiers_and_literals():
    assert normalize_source("x = y + 1;") == ["ID", "=", "ID", "+", "LIT", ";"]
    assert normalize_source('emit Paid(msg.sender, "hi");') == \
        ["emit", "ID", "(", "ID", ".", "ID", ",", "LIT", ")", ";"]


def test_normalize_drops_comments_and_whitespace():
    a = normalize_source("uint256 x = 2;")
    b = normalize_source("// note\nuint256   x /* inline */ = 2;   ")
    assert a == b == ["uint256", "ID", "=", "LIT", ";"]


def test_elementary_types_are_kept_verbatim():
    assert normalize_source("uint8 a; bytes32 b; address c;") == \
        ["uint8", "ID", ";", "bytes32", "ID", ";", "address", "ID", ";"]


def test_renaming_identifiers_preserves_normalization():
    # consistent alpha-renaming must not change the normalized sequence
    rng = random.Random(20240817)
    for path in (CORPUS / "token.sol", CORPUS / "escrow.sol"):
        text = path.read_text()
        idents = sorted({t.text for t in lex(text) if t.kind == "ident"})
        fresh = [f"v{i}_{rng.randrange(1_000_000)}" for i in range(len(idents))]
        rng.shuffle(fresh)
        mapping = dict(zip(idents, fresh))
        renamed = []
        cursor = 0
        for tok in lex(text):
            renamed.append(text[cursor:tok.start])
            renamed.append(mapping[tok.text] if tok.kind == "ident" else tok.text)
            cursor = tok.end
        renamed.append(text[cursor:])
        assert normalize_source("".join(renamed)) == normalize_source(text)


def test_changing_literals_preserves_normalization():
    a = 'function f() public { x = 10; s = "left"; }'
    b = 'function f() public { x = 999; s = "right"; }'
    assert normalize_source(a) == normalize_source(b)


def test_canonical_hash_ignores_layout_but_not_names():
    a = "contract A { uint256 x; }"
    b = "contract A {\n    // state\n    uint256 x;\n}"
    c = "contract A { uint256 y; }"
    assert canonical_source_hash(a) == canonical_source_hash(b)
    assert canonical_source_hash(a) != canonical_source_hash(c)


def test_brace_balance_ignores_strings_and_comments():
    assert check_brace_balance(lex('contract A { string s = "}{"; /* } */ }')) is None
    assert check_brace_balance(lex("contract A { function f() { }")) is not None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_contract():
    unit = parse_source("pragma solidity ^0.8.0;\ncontract A { function f() public {} }")
    assert unit.pragma_version == "^0.8.0"
    assert [c.name for c in unit.contracts] == ["A"]
    fn = unit.contracts[0].functions[0]
    assert fn.name == "f"
    assert "public" in fn.signature


def test_parse_twice_is_deterministic(corpus_paths):
    for path in corpus_paths:
        first = load_source(path)
        second = load_source(path)
        ids_a = [f.id for c in first.contracts for f in c.functions]
        ids_b = [f.id for c in second.contracts for f in c.functions]
        assert ids_a == ids_b


def test_function_source_is_a_file_slice(corpus_paths):
    for path in corpus_paths:
        unit = load_source(path)
        for contract in unit.contracts:
            for fn in contract.functions:
                assert fn.source_text in unit.source_text


def test_unbalanced_braces_raise():
    with pytest.raises(IngestError) as err:
        parse_source("contract A { function f() public {")
    assert err.value.code == "UnbalancedBraces"


def test_non_utf8_raises(tmp_path):
    bad = tmp_path / "bad.sol"
    bad.write_bytes(b"contract A {\xff\xfe}")
    with pytest.raises(IngestError) as err:
        load_source(bad)
    assert err.value.code == "NonUtf8"


def test_string_literal_in_signature_raises_malformed_declaration():
    for source in ('contract A { function f(uint x, "not enough") public {} }',
                   'contract A { function f() public returns ("a b") {} }'):
        with pytest.raises(IngestError) as err:
            parse_source(source)
        assert err.value.code == "MalformedDeclaration"


def test_unparseable_member_becomes_diagnostic():
    unit = parse_source("contract A { @ %% ; function f() public {} }")
    assert [f.name for f in unit.contracts[0].functions] == ["f"]
    assert unit.diagnostics


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

def test_signature_oracle(corpus_paths):
    oracle = json.loads((ORACLES / "signatures.json").read_text())["signatures"]
    seen = {}
    for path in corpus_paths:
        unit = load_source(path)
        for contract in unit.contracts:
            for fn in contract.functions:
                seen[fn.qualified_name] = fn.signature.sorted_features()
    for qualified, expected in oracle.items():
        assert seen[qualified] == expected, qualified


# ---------------------------------------------------------------------------
# Triples
# ---------------------------------------------------------------------------

def _labels(triple):
    """A triple as ("kind:label", relation name, "kind:label")."""
    return (f"{triple.subject.kind.value}:{triple.subject.label}",
            triple.relation.value,
            f"{triple.obj.kind.value}:{triple.obj.label}")


def test_multi_contract_triples_match_hand_trace():
    oracle = json.loads((ORACLES / "multi_triples.json").read_text())["triples"]
    unit = load_source(CORPUS / "multi.sol")
    actual = [list(_labels(t)) for t in extract_triples_with_diagnostics(unit)[0]]
    assert sorted(actual) == sorted(oracle)


def test_per_file_triple_counts_match_hand_trace(corpus_paths):
    oracle = json.loads((ORACLES / "corpus_counts.json").read_text())
    total = 0
    for path in corpus_paths:
        unit = load_source(path)
        triples, _ = extract_triples_with_diagnostics(unit)
        assert len(triples) == oracle["triples_per_file"][path.name], path.name
        total += len(triples)
    assert total == oracle["triples_total"]


def test_member_transfer_call_is_a_diagnostic_not_an_edge():
    unit = load_source(CORPUS / "escrow.sol")
    triples, diags = extract_triples_with_diagnostics(unit)
    labels = [_labels(t) for t in triples]
    assert not any(rel == "CALLS" for _, rel, _ in labels)
    assert any("transfer" in d for d in diags)


def test_low_level_call_is_a_diagnostic_not_an_edge():
    unit = load_source(CORPUS / "vault.sol")
    triples, diags = extract_triples_with_diagnostics(unit)
    labels = [_labels(t) for t in triples]
    assert not any(rel == "CALLS" for _, rel, _ in labels)
    assert any("call" in d for d in diags)


def test_require_and_builtins_never_resolve_as_calls():
    unit = parse_source(
        "contract A { uint256 x;\n"
        "function f() public { require(x > 0, \"no\"); x = uint256(keccak256(\"s\")); } }"
    )
    labels = [_labels(t) for t in extract_triples_with_diagnostics(unit)[0]]
    assert not any(rel == "CALLS" for _, rel, _ in labels)


def test_parameter_shadowing_suppresses_state_access():
    unit = parse_source(
        "contract A { uint256 amount;\n"
        "function f(uint256 amount) public { amount = 1; } }"
    )
    labels = [_labels(t) for t in extract_triples_with_diagnostics(unit)[0]]
    assert not any(rel in ("READS", "WRITES") for _, rel, _ in labels)


# ---------------------------------------------------------------------------
# One lex per file: declarations index the file's tokens
# ---------------------------------------------------------------------------

def _assert_declarations_index_the_tokens(unit):
    text = unit.source_text
    for contract in unit.contracts:
        assert len(contract.decls) == len(contract.functions)
        for fn, decl in zip(contract.functions, contract.decls):
            recorded = unit.tokens[decl.start:decl.end]
            assert [(t.kind, t.text) for t in recorded] == \
                [(t.kind, t.text) for t in lex(fn.source_text)]
            assert text[recorded[0].start:recorded[-1].end] == fn.source_text
            for tok in recorded:
                assert text[tok.start:tok.end] == tok.text
                assert tok.line == text.count("\n", 0, tok.start) + 1
            assert decl.normalized == normalize_source(fn.source_text)
            assert len(decl.normalized) == fn.token_count
            assert decl.start <= decl.body_start <= decl.body_end <= decl.end


def test_declaration_tokens_equal_a_lex_of_the_function():
    paths = sorted(FIXTURES.rglob("*.sol"))
    assert len(paths) >= 30
    functions = 0
    for path in paths:
        unit = load_source(path)
        _assert_declarations_index_the_tokens(unit)
        functions += sum(len(c.functions) for c in unit.contracts)
    assert functions >= 70


def test_body_tokens_are_inside_the_outer_braces():
    unit = parse_source("contract A {\n  function f(uint a) public returns (uint) {\n"
                        "    if (a > 0) { a = 1; }\n    return a;\n  }\n"
                        "  function g() external;\n}")
    f_decl, g_decl = unit.contracts[0].decls
    body = [t.text for t in unit.body_tokens(f_decl)]
    assert body == ["if", "(", "a", ">", "0", ")", "{", "a", "=", "1", ";", "}",
                    "return", "a", ";"]
    assert unit.body_tokens(f_decl)[0].line == 3
    assert f_decl.header.return_types == ["uint"]
    assert unit.body_tokens(g_decl) == []
    assert g_decl.header.visibility == "external"


_NOISE = ["", " ", "\n", "\t", "\r\n", "// note }\n", "/* { */", "/* open", '"s;{"',
          "'c'", 'hex"00"', "@", "#", "0x1f", "1e5"]
_STATEMENTS = ["x = 1;", "x += y;", "a++;", "require(a > 0);", "balances[a] = 0;",
               "msg.sender.call{value: 1}(\"\");", "return a;", "emit E(a);", "f();",
               "uint256 z = now % 7;", "unchecked { a--; }", "if (a) { b = 2; }", ";"]
_HEADERS = ["function f()", "function g(uint a, bytes memory b)", "constructor()",
            "receive() external payable", "function (uint)", "function h() public view",
            "function k() internal returns (uint, bool)", "function m(uint) onlyOwner(1)",
            "function o() override(A, B)", "fallback"]
_MEMBERS = ["uint256 x;", "mapping(address => uint) balances;", "modifier onlyOwner() { _; }",
            "event E(uint a);", "struct S { uint a; }", "@ %;"]


def _pieces(options):
    return st.lists(st.tuples(st.sampled_from(_NOISE), st.sampled_from(options)), max_size=6) \
        .map(lambda pairs: "".join(noise + item for noise, item in pairs))


_FUNCTION = st.builds(lambda header, noise, body, bodiless:
                      header + noise + (";" if bodiless else "{" + body + "}"),
                      st.sampled_from(_HEADERS), st.sampled_from(_NOISE),
                      _pieces(_STATEMENTS), st.booleans())
_CONTRACT = st.builds(lambda kind, members, functions, tail: f"{kind} C{{{members}{functions}}}{tail}",
                      st.sampled_from(["contract", "library", "interface", "contract D is B,"]),
                      _pieces(_MEMBERS),
                      st.lists(st.tuples(st.sampled_from(_NOISE), _FUNCTION), max_size=4)
                      .map(lambda pairs: "".join(a + b for a, b in pairs)),
                      st.sampled_from(_NOISE + ["{", "}"]))


@settings(max_examples=200)
@given(st.lists(_CONTRACT, max_size=3), st.sampled_from(_NOISE))
def test_parse_raises_ingest_error_or_indexes_its_tokens(contracts, lead):
    text = lead + "pragma solidity ^0.8.0;" + "".join(contracts)
    try:
        unit = parse_source(text)
    except IngestError:
        return
    _assert_declarations_index_the_tokens(unit)
