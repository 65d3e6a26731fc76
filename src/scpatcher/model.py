"""Shared domain types for contracts, vulnerabilities, patches, and outcomes.

Everything here is an immutable value object; the only logic is invariant
checking. A "fixed" outcome means the static detectors no longer flag the
target class and nothing new is flagged among the five classes — it is not
a proof of behavioral or functional correctness.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class VulnClass(Enum):
    """The five vulnerability classes the pipeline knows how to flag."""

    INTEGER_OVERFLOW = "IntegerOverflow"
    REENTRANCY = "Reentrancy"
    ACCESS_CONTROL = "AccessControl"
    TIMESTAMP_MANIPULATION = "TimestampManipulation"
    UNCHECKED_CALL_RETURN = "UncheckedCallReturn"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "VulnClass":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown vulnerability class: {text!r}")


#: One-line summaries used when a prompt names a vulnerability class.
VULN_CLASS_SUMMARIES = {
    VulnClass.INTEGER_OVERFLOW: (
        "arithmetic that can exceed or wrap the range of its integer type, "
        "corrupting balances or bypassing checks"
    ),
    VulnClass.REENTRANCY: (
        "an external call made before state updates lets the callee re-enter "
        "the function and drain funds"
    ),
    VulnClass.ACCESS_CONTROL: (
        "a privileged operation is reachable without a proper authorization "
        "check, allowing ownership or configuration takeover"
    ),
    VulnClass.TIMESTAMP_MANIPULATION: (
        "contract logic depends on the miner-adjustable block timestamp, "
        "e.g. as a randomness source or decision input"
    ),
    VulnClass.UNCHECKED_CALL_RETURN: (
        "the boolean result of a low-level call or send is ignored, so a "
        "silent failure leaves the contract in a wrong state"
    ),
}


class RepairStage(Enum):
    """Which generation stage produced a patch."""

    KNOWLEDGE_GUIDED = "knowledge-guided"
    CHAIN_OF_THOUGHT = "chain-of-thought"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SignatureFeatures:
    """Normalized signature facets of a function.

    Elements are lowercase and whitespace-free: the visibility keyword, the
    state-mutability keyword, ``param:<type>`` per parameter, ``ret:<type>``
    per return value, and ``mod:<name>`` per modifier.
    """

    feature_set: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for item in self.feature_set:
            if not isinstance(item, str) or item != item.lower() \
                    or any(ch.isspace() for ch in item):
                raise ValueError(f"signature feature not normalized: {item!r}")

    def __contains__(self, item: str) -> bool:
        return item in self.feature_set

    def issubset_of(self, other: "SignatureFeatures") -> bool:
        return self.feature_set <= other.feature_set

    def sorted_features(self) -> list[str]:
        return sorted(self.feature_set)


@dataclass(frozen=True)
class FunctionUnit:
    """One extracted Solidity function.

    ``source_text`` is the verbatim slice of the file, ``token_count`` the
    length of its normalized token sequence, ``clone_id`` the clone-group
    key (absent below the clone-size threshold), and ``guf`` the global
    usage frequency filled in by the knowledge graph.
    """

    id: str
    contract_name: str
    name: str
    source_text: str
    signature: SignatureFeatures = SignatureFeatures()
    token_count: int = 1
    clone_id: Optional[str] = None
    guf: int = 0

    def __post_init__(self) -> None:
        if not self.source_text:
            raise ValueError("FunctionUnit.source_text must be non-empty")
        if self.token_count < 1:
            raise ValueError("FunctionUnit.token_count must be >= 1")
        if self.guf < 0:
            raise ValueError("FunctionUnit.guf must be non-negative")

    @property
    def qualified_name(self) -> str:
        return f"{self.contract_name}.{self.name}"


def function_id(contract_name: str, name: str, normalized_tokens: list[str]) -> str:
    """Content-addressed function identifier.

    Stable across re-ingestion of identical code, which is what makes
    corpus-level deduplication and KB rebuilds reproducible.
    """
    material = contract_name + "::" + name + "::" + " ".join(normalized_tokens)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class VulnerabilityReport:
    """Input record naming the function to repair and why."""

    contract_path: str
    function_id: str
    vuln_class: VulnClass


@dataclass(frozen=True)
class PatchCandidate:
    """A full-source replacement produced by one generation attempt."""

    patched_source: str
    stage: RepairStage
    prompt_digest: str

    def __post_init__(self) -> None:
        if not self.patched_source:
            raise ValueError("PatchCandidate.patched_source must be non-empty")


@dataclass(frozen=True)
class RepairOutcome:
    """Per-contract result of the two-stage repair loop.

    ``stage_used`` names the stage that produced the recorded patch: the
    succeeding stage, or the last one attempted when every stage failed.
    """

    report: VulnerabilityReport
    compiled: bool
    fixed: bool
    stage_used: Optional[RepairStage] = None
    patch: Optional[PatchCandidate] = None
    diagnostics: tuple[str, ...] = field(default=())
