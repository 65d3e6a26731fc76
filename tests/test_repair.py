import dataclasses
from pathlib import Path

import pytest

from scpatcher import repair as repair_module
from scpatcher import verify
from scpatcher.graph import EntityNode, PropertyGraph, load_kb
from scpatcher.ingest import load_source
from scpatcher.embedding import HashingEmbedder
from scpatcher.llm import LlmError, MockLlmBackend, MockRule
from scpatcher.model import RepairStage, VulnClass, VulnerabilityReport
from scpatcher.repair import (
    RepairConfig,
    build_cot_prompt,
    build_stage1_prompt,
    extract_patch_source,
    generate,
    repair,
    required_signature,
    retrieve,
)

FIXTURES = Path(__file__).parent / "fixtures"
EVAL_CASES = FIXTURES / "eval_cases"
GOLDEN = FIXTURES / "golden"


def _case(name, contract, function):
    unit = load_source(EVAL_CASES / name)
    fn = unit.find_function(contract, function)
    assert fn is not None
    return unit, fn


def _references(kb_graph, unit, fn):
    return retrieve(kb_graph, unit, fn).selected


def _mock(path="mock_script.json"):
    return MockLlmBackend.from_script(str(EVAL_CASES / path))


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------

def test_stage1_prompt_matches_golden(kb):
    graph, _, _ = kb
    unit, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    prompt = build_stage1_prompt(fn, VulnClass.REENTRANCY, _references(graph, unit, fn))
    expected = (GOLDEN / "stage1_prompt.txt").read_text()
    assert prompt.system_text + "\n===USER===\n" + prompt.user_text == expected


def test_cot_prompt_matches_golden(kb):
    graph, _, _ = kb
    unit, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    refs = _references(graph, unit, fn)
    feedback = ["target vulnerability still detected: UncheckedCallReturn in "
                "function payout at line 13 (rule unchecked-call/result-unused)"]
    prompt = build_cot_prompt(fn, VulnClass.REENTRANCY, refs, feedback)
    expected = (GOLDEN / "cot_prompt.txt").read_text()
    assert prompt.system_text + "\n===USER===\n" + prompt.user_text == expected


def test_prompt_is_deterministic(kb):
    graph, _, _ = kb
    unit, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    a = build_stage1_prompt(fn, VulnClass.REENTRANCY, _references(graph, unit, fn))
    b = build_stage1_prompt(fn, VulnClass.REENTRANCY, _references(graph, unit, fn))
    assert a.user_text == b.user_text
    assert a.digest() == b.digest()
    assert len(a.digest()) == 64
    assert all(c in "0123456789abcdef" for c in a.digest())


def test_stage1_prompt_without_references():
    _, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    prompt = build_stage1_prompt(fn, VulnClass.REENTRANCY, [])
    assert "none retrieved" in prompt.user_text
    assert prompt.stage is RepairStage.KNOWLEDGE_GUIDED


def test_reference_scores_rendered_at_four_decimals(kb):
    graph, _, _ = kb
    unit, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    refs = _references(graph, unit, fn)
    prompt = build_stage1_prompt(fn, VulnClass.REENTRANCY, refs)
    for ref in refs:
        assert f"trust-adjusted distance {ref.s_final:.4f}" in prompt.user_text
        assert f"usage frequency {ref.fn.guf}" in prompt.user_text


def test_cot_prompt_extends_stage1_verbatim(kb):
    graph, _, _ = kb
    unit, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    refs = _references(graph, unit, fn)
    stage1 = build_stage1_prompt(fn, VulnClass.REENTRANCY, refs)
    feedback = ["patch failed to compile: UnbalancedBraces: brace never closed",
                "second diagnostic line"]
    cot = build_cot_prompt(fn, VulnClass.REENTRANCY, refs, feedback)
    assert cot.user_text.startswith(stage1.user_text)
    for line in feedback:
        assert line in cot.user_text
    for step in ("1.", "2.", "3.", "4."):
        assert step in cot.user_text
    assert cot.stage is RepairStage.CHAIN_OF_THOUGHT


def test_cot_prompt_requires_feedback(kb):
    _, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    with pytest.raises(ValueError):
        build_cot_prompt(fn, VulnClass.REENTRANCY, [], [])


def test_required_signature_is_visibility_and_mutability():
    _, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    assert required_signature(fn).sorted_features() == ["nonpayable", "public"]
    _, deposit = _case("case2_reentrancy.sol", "EvalFaucet", "deposit")
    assert required_signature(deposit).sorted_features() == ["payable", "public"]


# ---------------------------------------------------------------------------
# Response handling
# ---------------------------------------------------------------------------

def test_extract_patch_source_variants():
    fenced = "prose before\n```solidity\ncontract A {}\n```\nprose after"
    assert extract_patch_source(fenced) == "contract A {}\n"
    plain_fence = "```\ncontract B {}\n```"
    assert extract_patch_source(plain_fence) == "contract B {}\n"
    two = "```solidity\nfirst\n```\n```solidity\nsecond\n```"
    assert extract_patch_source(two) == "first\n"
    assert extract_patch_source("no fence at all") == "no fence at all"


def test_generate_uses_digest_rules(kb):
    graph, _, _ = kb
    unit, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    prompt = build_stage1_prompt(fn, VulnClass.REENTRANCY, _references(graph, unit, fn))
    backend = MockLlmBackend(rules=[
        MockRule(response="```solidity\ncontract X {}\n```",
                 digest=prompt.digest(), substrings=()),
    ])
    patch = generate(prompt, backend)
    assert patch.patched_source == "contract X {}\n"
    assert patch.stage is RepairStage.KNOWLEDGE_GUIDED
    assert patch.prompt_digest == prompt.digest()


def test_generate_rejects_blank_response(kb):
    _, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    prompt = build_stage1_prompt(fn, VulnClass.REENTRANCY, [])
    backend = MockLlmBackend(rules=[MockRule(response="   \n", digest=None, substrings=())])
    with pytest.raises(LlmError) as err:
        generate(prompt, backend)
    assert err.value.code == "EmptyResponse"


def test_generate_script_miss(kb):
    _, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    prompt = build_stage1_prompt(fn, VulnClass.REENTRANCY, [])
    backend = MockLlmBackend(rules=[
        MockRule(response="x", digest=None, substrings=("not in this prompt",)),
    ])
    with pytest.raises(LlmError) as err:
        generate(prompt, backend)
    assert err.value.code == "ScriptMiss"


# ---------------------------------------------------------------------------
# Retrieval and the KB's cached index
# ---------------------------------------------------------------------------

def _counted(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_retrieve_builds_the_index_once_per_kb(kb_file, monkeypatch):
    graph, _ = load_kb(kb_file)
    builds = _counted(monkeypatch, repair_module, "index_from_graph")
    unit, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    results = [retrieve(graph, unit, fn, k) for k in (1, 2, 3, 4, 5) * 2]
    assert len(builds) == 1
    assert results[:5] == results[5:]


def test_retrieve_finds_the_query_in_its_unit_by_id(kb_file):
    graph, _ = load_kb(kb_file)
    unit, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    reparsed = load_source(EVAL_CASES / "case2_reentrancy.sol")
    assert retrieve(graph, reparsed, fn, 3) == retrieve(graph, unit, fn, 3)
    other, _ = _case("case5_unchecked.sol", "EvalDesk", "payout")
    with pytest.raises(ValueError, match="EvalFaucet.withdraw"):
        retrieve(graph, other, fn)


def test_retrieve_sees_added_function(kb_file):
    graph, _ = load_kb(kb_file)
    unit, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    assert all(c.s_sem > 0 for c in retrieve(graph, unit, fn, 5).selected)
    twin = dataclasses.replace(fn, id="f" * 16, clone_id=None, guf=1000)
    [vector] = HashingEmbedder(256).embed([(fn.source_text, unit.declaration_tokens(fn))])
    graph = PropertyGraph(
        {**graph.nodes, twin.id: EntityNode(twin.id, "function", twin.qualified_name, twin)},
        graph.edges, {**graph.vectors, twin.id: vector}, graph.embedder_meta)
    first = retrieve(graph, unit, fn, 1).selected[0]
    assert (first.fn, first.s_sem) == (twin, 0.0)


def test_retrieve_selects_the_kb_payloads_themselves(kb, kb_file):
    loaded, _ = load_kb(kb_file)
    for graph in (kb[0], loaded):
        for path in sorted(EVAL_CASES.glob("*.sol")):
            unit = load_source(path)
            for fn in (decl.fn for decl in unit.declarations()):
                selected = retrieve(graph, unit, fn, 5).selected
                assert selected
                assert all(c.fn is graph.nodes[c.fn.id].payload for c in selected)


def test_repair_detects_the_original_at_most_once(kb, monkeypatch):
    graph, _, _ = kb
    detects = _counted(monkeypatch, verify, "detect")
    cases = [("case5_unchecked.sol", "EvalDesk", "payout", VulnClass.UNCHECKED_CALL_RETURN, 3),
             ("case6_lockbox.sol", "EvalLockbox", "withdraw", VulnClass.REENTRANCY, 0)]
    for name, contract, function, vuln_class, expected in cases:
        unit, fn = _case(name, contract, function)
        detects.clear()
        outcome = repair(unit, _report(unit, fn, vuln_class), graph,
                         RepairConfig(backend=_mock()))
        assert outcome.stage_used is RepairStage.CHAIN_OF_THOUGHT
        # two compiled patches and the original once, or nothing compiled
        assert len(detects) == expected


def test_repair_parses_each_compiled_patch_once(kb, monkeypatch):
    graph, _, _ = kb
    parses = _counted(monkeypatch, verify, "parse_source")
    unit, fn = _case("case5_unchecked.sol", "EvalDesk", "payout")
    outcome = repair(unit, _report(unit, fn, VulnClass.UNCHECKED_CALL_RETURN), graph,
                     RepairConfig(backend=_mock()))
    assert outcome.stage_used is RepairStage.CHAIN_OF_THOUGHT and outcome.compiled
    # one compile check per attempt; detection reads those units and the
    # contract's own, so nothing is parsed twice
    assert len(parses) == 2
    assert parses[-1][0] == outcome.patch.patched_source


# ---------------------------------------------------------------------------
# Two-stage orchestration
# ---------------------------------------------------------------------------

def _report(unit, fn, vuln_class):
    return VulnerabilityReport(contract_path=str(unit.path), function_id=fn.id,
                               vuln_class=vuln_class)


def test_repair_succeeds_at_stage_one(kb):
    graph, _, _ = kb
    unit, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    cfg = RepairConfig(backend=_mock())
    outcome = repair(unit, _report(unit, fn, VulnClass.REENTRANCY), graph, cfg)
    assert outcome.fixed and outcome.compiled
    assert outcome.stage_used is RepairStage.KNOWLEDGE_GUIDED
    assert outcome.patch.stage is RepairStage.KNOWLEDGE_GUIDED
    assert outcome.diagnostics == ()


def test_repair_escalates_to_chain_of_thought(kb):
    graph, _, _ = kb
    unit, fn = _case("case5_unchecked.sol", "EvalDesk", "payout")
    cfg = RepairConfig(backend=_mock())
    outcome = repair(unit, _report(unit, fn, VulnClass.UNCHECKED_CALL_RETURN), graph, cfg)
    assert outcome.fixed
    assert outcome.stage_used is RepairStage.CHAIN_OF_THOUGHT
    assert any(d.startswith("knowledge-guided: target vulnerability still detected")
               for d in outcome.diagnostics)


def test_repair_both_stages_fail(kb):
    graph, _, _ = kb
    unit, fn = _case("case6_lockbox.sol", "EvalLockbox", "withdraw")
    cfg = RepairConfig(backend=_mock())
    outcome = repair(unit, _report(unit, fn, VulnClass.REENTRANCY), graph, cfg)
    assert not outcome.fixed
    assert not outcome.compiled
    assert outcome.stage_used is RepairStage.CHAIN_OF_THOUGHT
    assert any("patch failed to compile" in d for d in outcome.diagnostics)


def test_repair_is_deterministic(kb):
    graph, _, _ = kb
    unit, fn = _case("case5_unchecked.sol", "EvalDesk", "payout")
    report = _report(unit, fn, VulnClass.UNCHECKED_CALL_RETURN)
    a = repair(unit, report, graph, RepairConfig(backend=_mock()))
    b = repair(unit, report, graph, RepairConfig(backend=_mock()))
    assert a == b


def test_repair_records_generation_errors(kb):
    graph, _, _ = kb
    unit, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    cfg = RepairConfig(backend=MockLlmBackend(rules=[]))
    outcome = repair(unit, _report(unit, fn, VulnClass.REENTRANCY), graph, cfg)
    assert not outcome.fixed and not outcome.compiled
    assert outcome.patch is None
    assert sum("generation failed: ScriptMiss" in d for d in outcome.diagnostics) == 2


def test_repair_unknown_function_id(kb):
    graph, _, _ = kb
    unit, fn = _case("case2_reentrancy.sol", "EvalFaucet", "withdraw")
    report = VulnerabilityReport(contract_path=str(unit.path),
                                 function_id="f" * 16,
                                 vuln_class=VulnClass.REENTRANCY)
    with pytest.raises(ValueError):
        repair(unit, report, graph, RepairConfig(backend=_mock()))
