import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scpatcher import model
from scpatcher.model import (
    FunctionUnit,
    PatchCandidate,
    RepairStage,
    SignatureFeatures,
    VULN_CLASS_SUMMARIES,
    VulnClass,
    function_id,
)


def test_vuln_class_values_round_trip():
    for member in VulnClass:
        assert VulnClass.parse(member.value) is member
        assert str(member) == member.value


def test_vuln_class_parse_rejects_unknown():
    with pytest.raises(ValueError):
        VulnClass.parse("StackTooDeep")


def test_every_class_has_a_summary():
    assert set(VULN_CLASS_SUMMARIES) == set(VulnClass)


def test_repair_stage_values():
    assert RepairStage.KNOWLEDGE_GUIDED.value == "knowledge-guided"
    assert RepairStage.CHAIN_OF_THOUGHT.value == "chain-of-thought"
    assert RepairStage("chain-of-thought") is RepairStage.CHAIN_OF_THOUGHT


def test_signature_features_normalized_lowercase():
    sig = SignatureFeatures(frozenset({"public", "view", "ret:uint256"}))
    assert sig.sorted_features() == ["public", "ret:uint256", "view"]
    assert "view" in sig
    with pytest.raises(ValueError):
        SignatureFeatures(frozenset({"Public"}))
    with pytest.raises(ValueError):
        SignatureFeatures(frozenset({"has space"}))
    for space in ("\x1c", "\u00a0", "\u2028"):
        with pytest.raises(ValueError):
            SignatureFeatures(frozenset({"public", f"param:uint{space}256"}))


def test_signature_subset():
    small = SignatureFeatures(frozenset({"public"}))
    big = SignatureFeatures(frozenset({"public", "payable"}))
    assert small.issubset_of(big)
    assert not big.issubset_of(small)
    empty = SignatureFeatures(frozenset())
    assert empty.issubset_of(small)


def test_function_id_is_stable_and_distinct():
    tokens = ["function", "ID", "(", ")", "public", "{", "}"]
    a = function_id("Bank", "withdraw", tokens)
    assert a == function_id("Bank", "withdraw", list(tokens))
    assert len(a) == 16
    assert a != function_id("Bank", "withdraw", tokens + ["extra"])
    assert a != function_id("Bank", "deposit", tokens)
    assert a != function_id("Vault", "withdraw", tokens)


_SHA256_INPUTS = [b"", b"function withdraw() public {}", "émission — 送金".encode("utf-8"),
                  bytes(range(256)) * 20]


@pytest.mark.parametrize("data", _SHA256_INPUTS, ids=["empty", "ascii", "utf-8", "5k"])
def test_sha256_is_hashlibs(data):
    # the built-in module gives the same digest as OpenSSL's, so every
    # function id, clone key, bucket and digest is unchanged
    assert model.sha256(data).digest() == hashlib.sha256(data).digest()
    assert model.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


@given(st.binary())
def test_sha256_is_hashlibs_on_any_bytes(data):
    assert model.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_function_unit_validation():
    sig = SignatureFeatures(frozenset({"public"}))
    fn = FunctionUnit(id="a" * 16, contract_name="Bank", name="withdraw",
                      source_text="function withdraw() public {}",
                      signature=sig, token_count=7)
    assert fn.qualified_name == "Bank.withdraw"
    with pytest.raises(ValueError):
        FunctionUnit(id="a" * 16, contract_name="Bank", name="w",
                     source_text="", signature=sig)
    with pytest.raises(ValueError):
        FunctionUnit(id="a" * 16, contract_name="Bank", name="w",
                     source_text="x", signature=sig, token_count=0)
    with pytest.raises(ValueError):
        FunctionUnit(id="a" * 16, contract_name="Bank", name="w",
                     source_text="x", signature=sig, guf=-1)


def test_patch_candidate_requires_source():
    with pytest.raises(ValueError):
        PatchCandidate(patched_source="", stage=RepairStage.KNOWLEDGE_GUIDED,
                       prompt_digest="0" * 64)
