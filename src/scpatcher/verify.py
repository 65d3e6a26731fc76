"""Patch validation: compile checking and vulnerability re-detection.

``check_compiles`` is the pipeline's only compile gate, a syntactic proxy:
the source must lex, brace-balance, and declare at least one contract.
Detection is a deterministic token-pattern rule engine over the five
supported vulnerability classes. The rules read each function's record from
the parse (``ingest.FunctionDecl``): its header, its state-variable reads
and writes with parameter shadowing applied, its modifiers and its
classified call sites, so they share those facts with the knowledge graph's
triples. ``verify_patch`` is the one place a patch
is checked: it reads the unit the compile check parsed, so a patch is
parsed once. Neither check proves behavioral correctness — they gate on
the same signals the pipeline optimizes for.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .ingest import (
    ASSIGN_OPS,
    FunctionDecl,
    IngestError,
    SourceUnit,
    Token,
    parse_source,
)
from .model import PatchCandidate, VulnClass, VulnerabilityReport

log = logging.getLogger(__name__)

_OWNER_NAME_RE = re.compile(r"owner|admin", re.IGNORECASE)
_GUARD_MODIFIER_RE = re.compile(r"only|auth|owner|admin", re.IGNORECASE)
_PRAGMA_VERSION_RE = re.compile(r"(\d+)\.(\d+)")

_ARITH_OPS = {"+", "-", "*", "+=", "-=", "*=", "++", "--"}
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
    """A function's record with the token spans its rules share."""

    decl: FunctionDecl
    body: list[Token]  # from the file's tokens, so tok.line is a file line
    unsigned_state_vars: set[str]
    condition_spans: list[tuple[int, int, str]]
    statement_spans: list[tuple[int, int]]

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


def _group_spans(unit: SourceUnit, decl: FunctionDecl, intros: set[str],
                 opener: str) -> list[tuple[int, int, str]]:
    """``(start, end, intro)`` of the inside of each ``opener`` group that
    directly follows a token in ``intros`` in a function body, as indices
    into the body."""
    tokens, base, stop = unit.tokens, decl.body_start, decl.body_end
    return [(i + 2 - base, unit.group_end(i + 1, stop) - 1 - base, tok.text)
            for i, tok in enumerate(tokens[base:stop - 1], base)
            if tok.text in intros and tokens[i + 1].text == opener]


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
        unsigned = {name for name, vtype in contract.state_vars if "uint" in vtype}
        for decl in contract.functions:
            body = unit.body_tokens(decl)
            views.append(_FunctionView(decl, body, unsigned,
                                       _group_spans(unit, decl, _CONDITION_INTROS, "("),
                                       _statement_spans(body)))
    return views


def _rule_reentrancy(view: _FunctionView) -> list[Detection]:
    for site in view.decl.calls:
        if site.value and any(kind == "write" and tok.start > site.token.start
                              for tok, kind in view.decl.accesses):
            return [Detection(VulnClass.REENTRANCY, view.decl.fn.name, site.token.line,
                              "reentrancy/external-call-before-state-write")]
    return []


def _rule_unchecked_call(view: _FunctionView) -> list[Detection]:
    """A low-level ``call`` or a ``send`` whose result the statement drops."""
    out = []
    for site in view.decl.calls:
        name = site.token.text
        if not (site.kind == "low-level" and name == "call" or site.value and name == "send"):
            continue
        start, end = view.statement_of(site.index)
        used = any(
            t.text in ASSIGN_OPS or t.text in ("require", "assert", "if", "return", "while")
            for t in view.body[start:end]
        )
        if not used:
            out.append(Detection(VulnClass.UNCHECKED_CALL_RETURN, view.decl.fn.name,
                                 site.token.line, "unchecked-call/result-unused"))
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
            out.append(Detection(VulnClass.TIMESTAMP_MANIPULATION, view.decl.fn.name,
                                 tok.line, "timestamp/condition-dependence"))
            continue
        start, end = view.statement_of(index)
        if any(t.text == "%" for t in view.body[start:end]):
            out.append(Detection(VulnClass.TIMESTAMP_MANIPULATION, view.decl.fn.name,
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
                return [Detection(VulnClass.ACCESS_CONTROL, view.decl.fn.name,
                                  tok.line, "access-control/tx-origin-auth")]
    # unguarded owner-variable write in an externally callable function
    decl = view.decl
    if decl.header.visibility not in ("public", "external") or decl.fn.name == "constructor":
        return []
    owner_writes = [tok for tok, kind in decl.accesses
                    if kind == "write" and _OWNER_NAME_RE.search(tok.text)]
    if not owner_writes or any(_GUARD_MODIFIER_RE.search(mod) for mod, _ in decl.modifiers) \
            or _has_sender_guard(view):
        return []
    return [Detection(VulnClass.ACCESS_CONTROL, decl.fn.name,
                      owner_writes[0].line, "access-control/unguarded-owner-write")]


def _pragma_below_08(pragma_version: Optional[str]) -> bool:
    if not pragma_version:
        return False
    match = _PRAGMA_VERSION_RE.search(pragma_version)
    if not match:
        return False
    major, minor = int(match.group(1)), int(match.group(2))
    return (major, minor) < (0, 8)


def _rule_overflow(view: _FunctionView, unit: SourceUnit) -> list[Detection]:
    body = view.body
    out = []
    for start, end, _intro in _group_spans(unit, view.decl, {"unchecked"}, "{"):
        for i in range(start, end):
            if body[i].text in _ARITH_OPS:
                out.append(Detection(VulnClass.INTEGER_OVERFLOW, view.decl.fn.name,
                                     body[i].line, "overflow/unchecked-block"))
                break
    if _pragma_below_08(unit.pragma_version):
        unsigned_positions = {tok.start for tok, _ in view.decl.accesses
                              if tok.text in view.unsigned_state_vars}
        for i, tok in enumerate(body):
            if tok.text not in _ARITH_OPS:
                continue
            if view.in_condition(i, {"require", "assert"}):
                continue  # the guard itself
            start, end = view.statement_of(i)
            statement = body[start:end]
            touched = {t.text for t in statement if t.start in unsigned_positions}
            if not touched:
                continue
            # a guard must read a variable whose arithmetic it guards
            guarded = _safemath_in(statement) or any(
                intro in ("require", "assert") and guard_start < i and any(
                    t.start in unsigned_positions and t.text in touched
                    for t in body[guard_start:guard_end])
                for guard_start, guard_end, intro in view.condition_spans)
            if not guarded:
                out.append(Detection(VulnClass.INTEGER_OVERFLOW, view.decl.fn.name,
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


def detect(source: Union[str, SourceUnit]) -> list[Detection]:
    """Run the per-class rules over every function of the source.

    ``source`` is source text, or its unit from ``parse_source``, which the
    rules then read without parsing again.
    """
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
        out.extend(_rule_overflow(view, unit))
        out.extend(_rule_reentrancy(view))
        out.extend(_rule_access_control(view))
        out.extend(_rule_timestamp(view))
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
