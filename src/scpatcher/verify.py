"""Patch validation: compile checking and vulnerability re-detection.

``check_compiles`` is the pipeline's only compile gate, a syntactic proxy:
the source must lex, brace-balance, and declare at least one contract.
Detection is a deterministic token-pattern rule engine over the five
supported vulnerability classes. ``verify_patch`` is the one place a patch
is checked: it reads the unit the compile check parsed, so a patch is
parsed once. Neither check proves behavioral correctness — they gate on
the same signals the pipeline optimizes for.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .ingest import (
    IngestError,
    SourceUnit,
    Token,
    find_state_accesses,
    match_group,
    parse_source,
)
from .model import FunctionUnit, PatchCandidate, VulnClass, VulnerabilityReport

log = logging.getLogger(__name__)

_OWNER_NAME_RE = re.compile(r"owner|admin", re.IGNORECASE)
_GUARD_MODIFIER_RE = re.compile(r"only|auth|owner|admin", re.IGNORECASE)
_PRAGMA_VERSION_RE = re.compile(r"(\d+)\.(\d+)")

_ARITH_OPS = {"+", "-", "*", "+=", "-=", "*=", "++", "--"}
_ASSIGNING = {"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="}
_CONDITION_INTROS = {"if", "require", "while", "assert"}


@dataclass(frozen=True)
class Detection:
    vuln_class: VulnClass
    function_name: str
    line: int
    rule_id: str

    def key(self) -> tuple[str, str]:
        """Identity used for issue comparison: class and function."""
        return (self.vuln_class.value, self.function_name)

    def describe(self) -> str:
        return (f"{self.vuln_class} in function {self.function_name} "
                f"at line {self.line} (rule {self.rule_id})")


def check_compiles(source: str) -> tuple[Optional[SourceUnit], list[str]]:
    """The compile proxy: the source must parse and declare at least one
    contract. Returns the parsed unit, or None if the check fails, and the
    diagnostics."""
    try:
        unit = parse_source(source, "<patch>")
    except IngestError as exc:
        return None, [f"{exc.code}: {exc}"]
    if not unit.contracts:
        return None, ["no contract declaration found"]
    return unit, list(unit.diagnostics)


# ---------------------------------------------------------------------------
# Detection rule engine
# ---------------------------------------------------------------------------

@dataclass
class _FunctionView:
    """Per-function token context shared by all rules."""

    fn: FunctionUnit
    body: list[Token]  # from the file's tokens, so tok.line is a file line
    visibility: str
    param_names: frozenset[str]
    modifiers: list[str]
    state_var_names: set[str]
    unsigned_state_vars: set[str]
    condition_spans: list[tuple[int, int, str]] = field(default_factory=list)
    statement_spans: list[tuple[int, int]] = field(default_factory=list)

    def in_condition(self, index: int, intros: Optional[set[str]] = None) -> bool:
        for start, end, intro in self.condition_spans:
            if start <= index < end and (intros is None or intro in intros):
                return True
        return False

    def statement_of(self, index: int) -> tuple[int, int]:
        for start, end in self.statement_spans:
            if start <= index < end:
                return start, end
        return (index, index + 1)


def _condition_spans(body: list[Token]) -> list[tuple[int, int, str]]:
    spans = []
    for i, tok in enumerate(body):
        if tok.text in _CONDITION_INTROS and i + 1 < len(body) and body[i + 1].text == "(":
            end = match_group(body, i + 1, "(", ")")
            spans.append((i + 2, end - 1, tok.text))
    return spans


def _statement_spans(body: list[Token]) -> list[tuple[int, int]]:
    spans = []
    start = 0
    for i, tok in enumerate(body):
        if tok.text in (";", "{", "}"):
            if i > start:
                spans.append((start, i))
            start = i + 1
    if start < len(body):
        spans.append((start, len(body)))
    return spans


def _function_views(unit: SourceUnit) -> list[_FunctionView]:
    views = []
    for contract in unit.contracts:
        state_var_names = {name for name, _ in contract.state_vars}
        unsigned = {name for name, vtype in contract.state_vars if "uint" in vtype}
        for fn, decl in zip(contract.functions, contract.decls):
            header = decl.header
            body = unit.body_tokens(decl)
            view = _FunctionView(
                fn=fn,
                body=body,
                visibility=header.visibility,
                param_names=frozenset(header.param_names),
                modifiers=header.modifiers,
                state_var_names=state_var_names,
                unsigned_state_vars=unsigned,
            )
            view.condition_spans = _condition_spans(body)
            view.statement_spans = _statement_spans(body)
            views.append(view)
    return views


def _value_call_sites(body: list[Token]) -> list[int]:
    """Indexes of member tokens for value-transferring external calls."""
    sites = []
    for i, tok in enumerate(body):
        if tok.text != "." or i + 2 >= len(body):
            continue
        name = body[i + 1].text
        after = body[i + 2].text
        if name in ("send", "transfer") and after == "(":
            sites.append(i + 1)
        elif name == "call":
            if after == "{":
                end = match_group(body, i + 2, "{", "}")
                if any(t.text == "value" for t in body[i + 3:end - 1]):
                    sites.append(i + 1)
            elif after == "." and i + 4 < len(body) \
                    and body[i + 3].text == "value" and body[i + 4].text == "(":
                sites.append(i + 1)
    return sites


def _rule_reentrancy(view: _FunctionView) -> list[Detection]:
    sites = _value_call_sites(view.body)
    if not sites:
        return []
    accesses = find_state_accesses(view.body, view.state_var_names, view.param_names)
    for site in sites:
        call_tok = view.body[site]
        for tok, kind in accesses:
            if kind == "write" and tok.start > call_tok.start:
                return [Detection(VulnClass.REENTRANCY, view.fn.name,
                                  call_tok.line,
                                  "reentrancy/external-call-before-state-write")]
    return []


def _rule_unchecked_call(view: _FunctionView) -> list[Detection]:
    body = view.body
    out = []
    for i, tok in enumerate(body):
        if tok.text != "." or i + 1 >= len(body):
            continue
        if body[i + 1].text not in ("call", "send"):
            continue
        nxt = body[i + 2].text if i + 2 < len(body) else ""
        if nxt not in ("(", "{", "."):
            continue
        start, end = view.statement_of(i)
        statement = body[start:end]
        used = any(
            t.text in _ASSIGNING or t.text in ("require", "assert", "if", "return", "while")
            for t in statement
        )
        if not used:
            out.append(Detection(VulnClass.UNCHECKED_CALL_RETURN, view.fn.name,
                                 body[i + 1].line,
                                 "unchecked-call/result-unused"))
    return _first_only(out)


def _timestamp_occurrences(body: list[Token]) -> list[int]:
    hits = []
    for i, tok in enumerate(body):
        if tok.text == "now":
            hits.append(i)
        elif (tok.text == "block" and i + 2 < len(body)
              and body[i + 1].text == "." and body[i + 2].text == "timestamp"):
            hits.append(i)
    return hits


def _rule_timestamp(view: _FunctionView) -> list[Detection]:
    out = []
    for index in _timestamp_occurrences(view.body):
        tok = view.body[index]
        if view.in_condition(index):
            out.append(Detection(VulnClass.TIMESTAMP_MANIPULATION, view.fn.name,
                                 tok.line, "timestamp/condition-dependence"))
            continue
        start, end = view.statement_of(index)
        if any(t.text == "%" for t in view.body[start:end]):
            out.append(Detection(VulnClass.TIMESTAMP_MANIPULATION, view.fn.name,
                                 tok.line, "timestamp/modulo-randomness"))
    return _first_only(out)


def _has_sender_guard(view: _FunctionView) -> bool:
    for start, end, intro in view.condition_spans:
        if intro != "require":
            continue
        span = view.body[start:end]
        has_sender = any(
            t.text == "msg" and i + 2 < len(span)
            and span[i + 1].text == "." and span[i + 2].text == "sender"
            for i, t in enumerate(span)
        )
        if has_sender and any(t.text == "==" for t in span):
            return True
    return False


def _rule_access_control(view: _FunctionView) -> list[Detection]:
    body = view.body
    # tx.origin used as an authorization subject
    for i, tok in enumerate(body):
        if (tok.text == "tx" and i + 2 < len(body)
                and body[i + 1].text == "." and body[i + 2].text == "origin"):
            adjacent_cmp = (
                (i >= 1 and body[i - 1].text in ("==", "!="))
                or (i + 3 < len(body) and body[i + 3].text in ("==", "!="))
            )
            if view.in_condition(i) or adjacent_cmp:
                return [Detection(VulnClass.ACCESS_CONTROL, view.fn.name,
                                  tok.line, "access-control/tx-origin-auth")]
    # unguarded owner-variable write in an externally callable function
    if view.visibility not in ("public", "external") or view.fn.name == "constructor":
        return []
    owner_vars = {name for name in view.state_var_names if _OWNER_NAME_RE.search(name)}
    if not owner_vars:
        return []
    guarded = (
        any(_GUARD_MODIFIER_RE.search(m) for m in view.modifiers)
        or _has_sender_guard(view)
    )
    if guarded:
        return []
    for tok, kind in find_state_accesses(body, owner_vars, view.param_names):
        if kind == "write":
            return [Detection(VulnClass.ACCESS_CONTROL, view.fn.name,
                              tok.line, "access-control/unguarded-owner-write")]
    return []


def _pragma_below_08(pragma_version: Optional[str]) -> bool:
    if not pragma_version:
        return False
    match = _PRAGMA_VERSION_RE.search(pragma_version)
    if not match:
        return False
    major, minor = int(match.group(1)), int(match.group(2))
    return (major, minor) < (0, 8)


def _unchecked_spans(body: list[Token]) -> list[tuple[int, int]]:
    spans = []
    for i, tok in enumerate(body):
        if tok.text == "unchecked" and i + 1 < len(body) and body[i + 1].text == "{":
            end = match_group(body, i + 1, "{", "}")
            spans.append((i + 2, end - 1))
    return spans


def _rule_overflow(view: _FunctionView, pragma_version: Optional[str]) -> list[Detection]:
    body = view.body
    out = []
    for start, end in _unchecked_spans(body):
        for i in range(start, end):
            if body[i].text in _ARITH_OPS:
                out.append(Detection(VulnClass.INTEGER_OVERFLOW, view.fn.name,
                                     body[i].line, "overflow/unchecked-block"))
                break
    if _pragma_below_08(pragma_version):
        unsigned_positions = {
            tok.start for tok, _ in
            find_state_accesses(body, view.unsigned_state_vars, view.param_names)
        }
        for i, tok in enumerate(body):
            if tok.text not in _ARITH_OPS:
                continue
            if view.in_condition(i, {"require", "assert"}):
                continue  # the guard itself
            start, end = view.statement_of(i)
            statement = body[start:end]
            touches_unsigned = any(t.start in unsigned_positions for t in statement)
            if not touches_unsigned:
                continue
            guarded = (
                any(b.text in ("require", "assert") for b in body[:i])
                or _safemath_in(statement)
            )
            if not guarded:
                out.append(Detection(VulnClass.INTEGER_OVERFLOW, view.fn.name,
                                     tok.line, "overflow/pre-0.8-unguarded-arith"))
                break
    return _first_only(out)


def _safemath_in(statement: list[Token]) -> bool:
    for i, tok in enumerate(statement):
        if (tok.text == "." and i + 2 < len(statement)
                and statement[i + 1].text in ("add", "sub", "mul", "div")
                and statement[i + 2].text == "("):
            return True
    return False


def _first_only(detections: list[Detection]) -> list[Detection]:
    """At most one detection per (class, function): the earliest by line."""
    return sorted(detections, key=lambda d: d.line)[:1]


def detect(source: Union[str, SourceUnit],
           classes: Optional[set[VulnClass]] = None) -> list[Detection]:
    """Run the per-class rules over every function of the source.

    ``source`` is source text, or its unit from ``parse_source``, which the
    rules then read without parsing again.
    """
    wanted = classes if classes is not None else set(VulnClass)
    if isinstance(source, SourceUnit):
        unit = source
    else:
        try:
            unit = parse_source(source, "<detect>")
        except IngestError as exc:
            log.warning("detect: source unparseable, no findings reported (%s)", exc)
            return []
    out: list[Detection] = []
    for view in _function_views(unit):
        if VulnClass.INTEGER_OVERFLOW in wanted:
            out.extend(_rule_overflow(view, unit.pragma_version))
        if VulnClass.REENTRANCY in wanted:
            out.extend(_rule_reentrancy(view))
        if VulnClass.ACCESS_CONTROL in wanted:
            out.extend(_rule_access_control(view))
        if VulnClass.TIMESTAMP_MANIPULATION in wanted:
            out.extend(_rule_timestamp(view))
        if VulnClass.UNCHECKED_CALL_RETURN in wanted:
            out.extend(_rule_unchecked_call(view))
    return out


# ---------------------------------------------------------------------------
# Patch verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationResult:
    compiled: bool
    compile_diagnostics: list[str]
    detections: list[Detection]
    target_vuln_cleared: bool
    new_issues: list[Detection]
    target_class: VulnClass
    target_function: str

    @property
    def passed(self) -> bool:
        return self.compiled and self.target_vuln_cleared and not self.new_issues

    def failure_feedback(self) -> list[str]:
        """Verbatim lines handed to the stage-2 prompt on failure."""
        if self.passed:
            return []
        if not self.compiled:
            lines = self.compile_diagnostics or ["(no compiler diagnostics)"]
            return [f"patch failed to compile: {line}" for line in lines]
        out = []
        if not self.target_vuln_cleared:
            hits = [d for d in self.detections
                    if d.vuln_class is self.target_class
                    and d.function_name == self.target_function]
            for detection in hits or [None]:
                if detection is None:
                    out.append(f"target vulnerability still detected: "
                               f"{self.target_class} in function {self.target_function}")
                else:
                    out.append(f"target vulnerability still detected: {detection.describe()}")
        for detection in self.new_issues:
            out.append(f"new issue introduced: {detection.describe()}")
        return out


def verify_patch(original: SourceUnit, patch: PatchCandidate, report: VulnerabilityReport,
                 original_detections: Optional[Callable[[], list[Detection]]] = None,
                 ) -> VerificationResult:
    """Compile the patch, re-detect, and compare against the original.

    The target class must vanish from the reported function, and no
    detection absent from the original may appear anywhere in the patch.
    The patch is parsed once: the compile check's unit is what ``detect``
    reads. ``original_detections`` returns ``detect(original)``; a caller
    that verifies several patches of one contract passes a memoized one, so
    the original is analysed at most once, and only if a patch compiles.
    """
    fn = original.find_function_by_id(report.function_id)
    target_name = fn.name if fn is not None else report.function_id
    unit, compile_diagnostics = check_compiles(patch.patched_source)
    if unit is None:
        return VerificationResult(
            compiled=False,
            compile_diagnostics=compile_diagnostics + [
                "verification skipped: patch did not compile"],
            detections=[],
            target_vuln_cleared=False,
            new_issues=[],
            target_class=report.vuln_class,
            target_function=target_name,
        )
    detections = detect(unit)
    found = original_detections() if original_detections is not None else detect(original)
    original_keys = {d.key() for d in found}
    new_issues = [d for d in detections if d.key() not in original_keys]
    cleared = not any(
        d.vuln_class is report.vuln_class and d.function_name == target_name
        for d in detections
    )
    return VerificationResult(
        compiled=True,
        compile_diagnostics=compile_diagnostics,
        detections=detections,
        target_vuln_cleared=cleared,
        new_issues=new_issues,
        target_class=report.vuln_class,
        target_function=target_name,
    )
