"""Reference retrieval, prompt assembly and the two-stage repair orchestrator.

``retrieve`` is the one query path into the knowledge base, shared by
``repair``, ``evaluate.run_dataset`` (once per entry of a sweep over k,
whose smaller k take ``Retrieval.prefix``) and the ``retrieve`` command:
it embeds the target function from its parse's declaration tokens with
the provider call that built the KB, takes its ``DEFAULT_POOL_SIZE`` (50)
nearest KB functions by exact k-NN over the index the KB builds once, and
reranks them with the constant ε = e - 1 (``rerank.EPSILON``); ``k`` is
the only retrieval knob. The result records the pool size, whether the
signature filter fell back to the whole pool, and the selected references,
each a ``Candidate`` that holds the KB's own ``FunctionUnit``, so the
prompts render its source text, guf and signature with no graph lookup.

Stage 1 asks for a patch guided by the retrieved reference implementations,
their trust scores, and the target's signature constraints. If the patch
fails verification, Stage 2 re-prompts once with an explicit step-by-step
reasoning scaffold plus the verbatim failure feedback, then verifies again.
Prompt wording is frozen by golden-file tests; bump PROMPT_TEMPLATE_VERSION
when changing it.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import verify
from .embedding import (
    DEFAULT_POOL_SIZE,
    Candidate,
    VectorIndex,
    index_from_graph,
    knn,
    provider_from_meta,
)
from .graph import PropertyGraph
from .ingest import SourceUnit
from .llm import LlmError, LlmRequest
from .model import (
    VULN_CLASS_SUMMARIES,
    FunctionUnit,
    PatchCandidate,
    RepairOutcome,
    RepairStage,
    SignatureFeatures,
    VulnClass,
    VulnerabilityReport,
    sha256,
)
from .rerank import DEFAULT_K, rerank
from .verify import Detection, VerificationResult, verify_patch

log = logging.getLogger(__name__)

PROMPT_TEMPLATE_VERSION = "1"

_SYSTEM_TEXT = (
    "You are an expert Solidity security engineer. You repair exactly one "
    "vulnerability per request, change as little code as possible, and answer "
    "with one fenced code block containing the complete patched source file."
)

_COT_SCAFFOLD = (
    "Reason step by step before patching:\n"
    "1. Locate the flawed statement or statements.\n"
    "2. Explain the exploit path an attacker would take.\n"
    "3. Plan the minimal fix that preserves intended behavior.\n"
    "4. Emit the complete patched source file in one fenced code block."
)

_FENCE_RE = re.compile(r"```[a-zA-Z]*\n(.*?)```", re.DOTALL)

_VISIBILITY_AND_MUTABILITY = {
    "public", "private", "internal", "external",
    "pure", "view", "payable", "nonpayable",
}


@dataclass(frozen=True)
class Prompt:
    system_text: str
    user_text: str
    stage: RepairStage

    def digest(self) -> str:
        payload = self.system_text + "\0" + self.user_text
        return sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Retrieval:
    """One query's references and how they were found."""

    pool_size: int             # candidates k-NN returned before reranking
    fallback: bool             # no candidate matched the required signature
    selected: list[Candidate]  # reranked, at most k

    def prefix(self, k: int) -> "Retrieval":
        """This retrieval cut to ``k``, for a ``k`` at most the one it was made at.

        The pool and the fallback flag do not depend on k, and ``rerank``'s
        selection at k is a prefix of its selection at any larger k, so this
        equals ``retrieve`` at ``k``. A ``k`` below 1 raises ValueError.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        return dataclasses.replace(self, selected=self.selected[:k])


def _retriever(kb: PropertyGraph) -> tuple[VectorIndex, object]:
    """The KB's vector index and the query provider its metadata names."""
    return index_from_graph(kb), provider_from_meta(kb.embedder_meta)


def retrieve(kb: PropertyGraph, unit: SourceUnit, fn: FunctionUnit, k: int = DEFAULT_K
             ) -> Retrieval:
    """Embed ``fn``, take its DEFAULT_POOL_SIZE nearest KB functions, rerank to ``k``.

    ``unit`` is the parse that holds ``fn`` (matched by id); the provider
    the KB metadata names (``name``, ``dimension``, ``embed``) embeds ``fn``
    from its declaration tokens there, as ``build_kb`` embeds every KB row,
    so nothing is lexed again, into a vector of a norm at most 2**510. The
    KB keeps its vector index and that provider across calls
    (``_retriever``); a remote provider gives each thread its own HTTP
    session, so concurrent ``evaluate`` workers share one provider but no
    connection pool.
    """
    index, provider = kb.retriever(_retriever)
    [query_vector] = provider.embed([(fn.source_text, unit.declaration_tokens(fn))])
    pool = knn(index, query_vector, DEFAULT_POOL_SIZE)
    selected, fallback = rerank(pool, required_signature(fn), k)
    return Retrieval(pool_size=len(pool), fallback=fallback, selected=selected)


def required_signature(fn: FunctionUnit) -> SignatureFeatures:
    """The feature subset a reference must share: visibility and mutability."""
    kept = fn.signature.feature_set & _VISIBILITY_AND_MUTABILITY
    return SignatureFeatures(frozenset(kept))


def _render_references(refs: list[Candidate]) -> str:
    if not refs:
        return "none retrieved"
    blocks = []
    for rank, ref in enumerate(refs, start=1):
        features = ", ".join(ref.fn.signature.sorted_features()) or "(none)"
        blocks.append(
            f"[{rank}] trust-adjusted distance {ref.s_final:.4f}, "
            f"usage frequency {ref.fn.guf}, signature: {features}\n"
            f"```solidity\n{ref.fn.source_text}\n```"
        )
    return "\n".join(blocks)


def _stage1_user_text(vuln_fn: FunctionUnit, vuln_class: VulnClass,
                      refs: list[Candidate]) -> str:
    constraints = ", ".join(vuln_fn.signature.sorted_features()) or "(none)"
    return (
        "Task: repair the vulnerability below and return the complete patched "
        "Solidity source file.\n"
        "\n"
        f"Vulnerability class: {vuln_class}\n"
        f"Definition: {VULN_CLASS_SUMMARIES[vuln_class]}\n"
        "\n"
        f"Vulnerable function (contract {vuln_fn.contract_name}):\n"
        f"```solidity\n{vuln_fn.source_text}\n```\n"
        "\n"
        f"Signature constraints to preserve: {constraints}\n"
        "\n"
        "Reference implementations, most trustworthy first (lower distance is "
        "closer, higher usage frequency is more trusted):\n"
        f"{_render_references(refs)}\n"
        "\n"
        "Return only one fenced code block with the full patched source file. "
        "No commentary outside the block."
    )


def build_stage1_prompt(vuln_fn: FunctionUnit, vuln_class: VulnClass,
                        refs: list[Candidate]) -> Prompt:
    """Knowledge-guided prompt: class, target code, references, constraints."""
    return Prompt(system_text=_SYSTEM_TEXT,
                  user_text=_stage1_user_text(vuln_fn, vuln_class, refs),
                  stage=RepairStage.KNOWLEDGE_GUIDED)


def build_cot_prompt(vuln_fn: FunctionUnit, vuln_class: VulnClass,
                     refs: list[Candidate], feedback: list[str]) -> Prompt:
    """Stage-2 prompt: stage-1 content plus scaffold and verbatim feedback."""
    if not feedback:
        raise ValueError("chain-of-thought prompt requires non-empty feedback")
    feedback_block = "\n".join(feedback)
    user_text = (
        _stage1_user_text(vuln_fn, vuln_class, refs)
        + "\n\n"
        + "A previous patch attempt failed verification. Verbatim failure "
          "feedback:\n"
        + feedback_block
        + "\n\n"
        + _COT_SCAFFOLD
    )
    return Prompt(system_text=_SYSTEM_TEXT, user_text=user_text,
                  stage=RepairStage.CHAIN_OF_THOUGHT)


def extract_patch_source(response_text: str) -> str:
    """First fenced code block, or the whole response if none."""
    match = _FENCE_RE.search(response_text)
    if match:
        return match.group(1)
    return response_text


def generate(prompt: Prompt, backend, model: str = "default") -> PatchCandidate:
    """Send one prompt and wrap the reply's patch as a candidate; a blank
    patch (all of the reply, or its first fenced block) raises
    LlmError("EmptyResponse")."""
    request = LlmRequest(
        messages=(("system", prompt.system_text), ("user", prompt.user_text)),
        model=model,
    )
    digest = prompt.digest()
    response = backend.complete(request, prompt_digest=digest)
    source = extract_patch_source(response.text)
    if not source.strip():
        raise LlmError("EmptyResponse", f"backend returned no patch for prompt {digest[:12]}")
    return PatchCandidate(patched_source=source, stage=prompt.stage, prompt_digest=digest)


@dataclass
class RepairConfig:
    k: int = DEFAULT_K
    backend: object = None
    model: str = "default"


@dataclass
class _AttemptRecord:
    patch: Optional[PatchCandidate] = None
    result: Optional[VerificationResult] = None
    feedback: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.result is not None and self.result.passed


def _attempt(prompt: Prompt, original: SourceUnit,
             original_detections: Callable[[], list[Detection]],
             report: VulnerabilityReport, cfg: RepairConfig,
             diagnostics: list[str]) -> _AttemptRecord:
    record = _AttemptRecord()
    stage = prompt.stage.value
    try:
        record.patch = generate(prompt, cfg.backend, model=cfg.model)
    except LlmError as exc:
        line = f"{stage}: generation failed: {exc.code}: {exc}"
        diagnostics.append(line)
        record.feedback = [line]
        return record
    record.result = verify_patch(original, record.patch, report,
                                 original_detections=original_detections)
    record.feedback = record.result.failure_feedback()
    for line in record.feedback:
        diagnostics.append(f"{stage}: {line}")
    return record


def repair(contract: SourceUnit, report: VulnerabilityReport,
           kb: PropertyGraph, cfg: RepairConfig,
           retrieval: Optional[Retrieval] = None) -> RepairOutcome:
    """Retrieve references, prompt, verify; escalate to stage 2 on failure.

    ``retrieval``, if given, is ``retrieve``'s result for the report's
    function at a k of at least ``cfg.k``; its first ``cfg.k`` references
    are used, so a sweep over k retrieves once. Otherwise it is retrieved
    here at ``cfg.k``.
    """
    fn = contract.find_function_by_id(report.function_id)
    if fn is None:
        raise ValueError(
            f"function {report.function_id!r} not found in {contract.path}")
    diagnostics: list[str] = []

    if retrieval is None:
        retrieval = retrieve(kb, contract, fn, cfg.k)
    refs = retrieval.prefix(cfg.k).selected
    log.debug("repair %s: %d references after rerank", fn.qualified_name, len(refs))

    # Both attempts compare against the same original: detect it once, on
    # the first patch that compiles, from the unit already parsed.
    original_detections = functools.cache(lambda: verify.detect(contract))
    prompt = build_stage1_prompt(fn, report.vuln_class, refs)
    last = _attempt(prompt, contract, original_detections, report, cfg, diagnostics)
    if not last.passed:
        feedback = last.feedback or ["verification failed with no diagnostics"]
        prompt = build_cot_prompt(fn, report.vuln_class, refs, feedback)
        last = _attempt(prompt, contract, original_detections, report, cfg, diagnostics)

    compiled = last.result.compiled if last.result is not None else False
    return RepairOutcome(
        report=report,
        compiled=compiled,
        fixed=last.passed,
        stage_used=prompt.stage,
        patch=last.patch,
        diagnostics=tuple(diagnostics),
    )
