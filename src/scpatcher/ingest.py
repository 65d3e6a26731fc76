"""Lightweight Solidity source extractor.

A tokenizer plus a brace-matching walker covering the subset the pipeline
needs: contract/library/interface declarations, functions and their verbatim
bodies, modifiers, state variables, call sites, and state reads/writes.
It is not a compiler; unparseable regions are skipped with a diagnostic
rather than failing the file.

``parse_source`` lexes a file once and keeps the tokens on the
``SourceUnit``. Each function's ``FunctionDecl`` records where its
declaration and body lie in them, with its parsed header and normalized
tokens. Everything downstream derives from those tokens without lexing
again: the function ID, token count and signature, the canonical file
hash (``canonical_source_hash(unit.tokens)``), the clone key, the triples,
and the detectors' per-function views. Only embedding stays text-in, since
an embedding provider takes source text.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Union

from .model import FunctionUnit, SignatureFeatures, function_id


class IngestError(Exception):
    """Raised when a file cannot be sliced at all.

    ``code`` is one of ``UnbalancedBraces``, ``NonUtf8`` or
    ``MalformedDeclaration`` (a function header whose signature cannot be
    normalized, such as a string literal in its parameter list).
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

def _elementary_types() -> set[str]:
    names = {"address", "bool", "string", "bytes", "byte", "int", "uint", "fixed", "ufixed"}
    for width in range(8, 257, 8):
        names.add(f"int{width}")
        names.add(f"uint{width}")
    for width in range(1, 33):
        names.add(f"bytes{width}")
    return names


_TYPE_KEYWORDS = _elementary_types()

_KEYWORDS = _TYPE_KEYWORDS | {
    "pragma", "import", "contract", "library", "interface", "abstract",
    "function", "constructor", "modifier", "event", "error", "struct",
    "enum", "mapping", "using", "is", "as",
    "public", "private", "internal", "external",
    "pure", "view", "payable", "constant", "immutable",
    "virtual", "override", "returns", "return",
    "if", "else", "for", "while", "do", "break", "continue", "throw",
    "emit", "new", "delete", "try", "catch", "revert",
    "memory", "storage", "calldata", "indexed", "anonymous",
    "unchecked", "assembly", "this", "super", "now", "true", "false",
    "wei", "gwei", "ether", "seconds", "minutes", "hours", "days", "weeks", "years",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<string>hex"(?:[^"\\]|\\.)*"|unicode"(?:[^"\\]|\\.)*"
                 |"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
    | (?P<number>0[xX][0-9a-fA-F_]+|\d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<op><<=|>>=|\*\*|\+\+|--|&&|\|\||==|!=|<=|>=|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<|>>|=>|->
             |[{}()\[\];,.?:~!<>=+\-*/%&|^])
    | (?P<ws>\s+)
    """,
    re.DOTALL | re.VERBOSE,
)

#: Assignment operators that mark a state-variable write.
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="}

#: Built-in callables that are never corpus call targets.
_BUILTIN_CALLABLES = {
    "require", "assert", "keccak256", "sha256", "sha3", "ripemd160",
    "ecrecover", "addmod", "mulmod", "selfdestruct", "suicide",
    "blockhash", "gasleft", "type", "push", "pop",
}

#: Low-level member calls recorded as diagnostics, never as CALLS edges.
_LOW_LEVEL_CALLS = {"call", "delegatecall", "staticcall"}

#: Namespaces whose member calls are language built-ins (abi.encode, ...).
_BUILTIN_NAMESPACES = {"abi", "msg", "block", "tx"}


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | ident | number | string | op
    text: str
    start: int
    end: int
    line: int


def lex(text: str, diagnostics: Optional[list[str]] = None) -> list[Token]:
    """Tokenize, dropping comments and whitespace. Never raises."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    n = len(text)
    while pos < n:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if diagnostics is not None:
                diagnostics.append(f"line {line}: skipped unexpected character {text[pos]!r}")
            pos += 1
            continue
        group = match.lastgroup
        value = match.group()
        if group == "ident":
            kind = "keyword" if value in _KEYWORDS else "ident"
            tokens.append(Token(kind, value, match.start(), match.end(), line))
        elif group in ("number", "string", "op"):
            tokens.append(Token(group, value, match.start(), match.end(), line))
        # comments and whitespace are dropped
        line += value.count("\n")
        pos = match.end()
    return tokens


def check_brace_balance(tokens: list[Token]) -> Optional[str]:
    """Return an error message if braces are unbalanced, else None."""
    depth = 0
    for tok in tokens:
        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth -= 1
            if depth < 0:
                return f"line {tok.line}: closing brace without opener"
    if depth != 0:
        return f"end of file: {depth} unclosed brace(s)"
    return None


# ---------------------------------------------------------------------------
# Normalization and hashing
# ---------------------------------------------------------------------------

def normalize_source(source: Union[str, Sequence[Token]]) -> list[str]:
    """Normalized token sequence of a source snippet, or of its tokens.

    Comments and whitespace are dropped, identifiers become ``ID``, numeric
    and string literals become ``LIT``; keywords, operators, and punctuation
    are kept verbatim. Two functions differing only in identifier names or
    literal values normalize identically (the clone-group relation).
    """
    out = []
    for tok in lex(source) if isinstance(source, str) else source:
        if tok.kind == "ident":
            out.append("ID")
        elif tok.kind in ("number", "string"):
            out.append("LIT")
        else:
            out.append(tok.text)
    return out


def canonical_source_hash(source: Union[str, Sequence[Token]]) -> str:
    """Hash of the canonical byte form of a source file, or of its tokens.

    Comments and whitespace are stripped, identifiers and literals are kept
    verbatim, so only exact duplicates (modulo layout and comments) collide.
    Used for corpus/test deduplication.
    """
    tokens = lex(source) if isinstance(source, str) else source
    canonical = " ".join(tok.text for tok in tokens)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Parsed structures
# ---------------------------------------------------------------------------

@dataclass
class FunctionHeader:
    name: str
    param_types: list[str]
    param_names: list[str]
    return_types: list[str]
    visibility: str
    mutability: str
    modifiers: list[str]


@dataclass
class FunctionDecl:
    """Where one parsed function lies in its file's tokens.

    ``SourceUnit.tokens[start:end]`` is the whole declaration and
    ``tokens[body_start:body_end]`` the inside of its outermost braces
    (empty for a declaration without a body). ``normalized`` is the
    declaration's ``normalize_source`` sequence.
    """

    start: int
    end: int
    body_start: int
    body_end: int
    header: FunctionHeader
    normalized: list[str]


@dataclass
class ContractDecl:
    name: str
    kind: str  # contract | library | interface
    functions: list[FunctionUnit] = field(default_factory=list)
    modifiers: list[str] = field(default_factory=list)
    state_vars: list[tuple[str, str]] = field(default_factory=list)
    #: One per function, parallel to ``functions``.
    decls: list[FunctionDecl] = field(default_factory=list, repr=False)


@dataclass
class SourceUnit:
    path: str
    pragma_version: Optional[str] = None
    contracts: list[ContractDecl] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)
    source_text: str = ""
    #: The file's tokens from its one ``lex``, with absolute offsets and lines.
    tokens: list[Token] = field(default_factory=list, repr=False, compare=False)

    def body_tokens(self, decl: FunctionDecl) -> list[Token]:
        return self.tokens[decl.body_start:decl.body_end]

    def find_function(self, contract_name: str, function_name: str) -> Optional[FunctionUnit]:
        for contract in self.contracts:
            if contract.name != contract_name:
                continue
            for fn in contract.functions:
                if fn.name == function_name:
                    return fn
        return None

    def find_function_by_name(self, function_name: str) -> Optional[FunctionUnit]:
        """First function called ``function_name``, in any contract."""
        for contract in self.contracts:
            for fn in contract.functions:
                if fn.name == function_name:
                    return fn
        return None

    def find_function_by_id(self, fn_id: str) -> Optional[FunctionUnit]:
        for contract in self.contracts:
            for fn in contract.functions:
                if fn.id == fn_id:
                    return fn
        return None


class NodeKind(Enum):
    CONTRACT = "contract"
    FUNCTION = "function"
    VARIABLE = "variable"
    MODIFIER = "modifier"
    TYPE_NAME = "type"


class Relation(Enum):
    OWNS = "OWNS"
    CALLS = "CALLS"
    RETURNS = "RETURNS"
    USES_MODIFIER = "USES_MODIFIER"
    READS = "READS"
    WRITES = "WRITES"


#: Allowed (subject kind, object kinds) per relation.
_RELATION_TYPING = {
    Relation.OWNS: (NodeKind.CONTRACT, {NodeKind.FUNCTION, NodeKind.VARIABLE, NodeKind.MODIFIER}),
    Relation.CALLS: (NodeKind.FUNCTION, {NodeKind.FUNCTION}),
    Relation.RETURNS: (NodeKind.FUNCTION, {NodeKind.TYPE_NAME}),
    Relation.USES_MODIFIER: (NodeKind.FUNCTION, {NodeKind.MODIFIER}),
    Relation.READS: (NodeKind.FUNCTION, {NodeKind.VARIABLE}),
    Relation.WRITES: (NodeKind.FUNCTION, {NodeKind.VARIABLE}),
}


@dataclass(frozen=True)
class NodeRef:
    kind: NodeKind
    id: str
    label: str


@dataclass(frozen=True)
class Triple:
    subject: NodeRef
    relation: Relation
    obj: NodeRef

    def __post_init__(self) -> None:
        subject_kind, object_kinds = _RELATION_TYPING[self.relation]
        if self.subject.kind is not subject_kind or self.obj.kind not in object_kinds:
            raise ValueError(
                f"ill-typed triple: {self.subject.kind.value} "
                f"-{self.relation.value}-> {self.obj.kind.value}"
            )

    def as_labels(self) -> tuple[str, str, str]:
        return (
            f"{self.subject.kind.value}:{self.subject.label}",
            self.relation.value,
            f"{self.obj.kind.value}:{self.obj.label}",
        )


def contract_ref(name: str) -> NodeRef:
    return NodeRef(NodeKind.CONTRACT, f"contract:{name}", name)


def function_ref(fn: FunctionUnit) -> NodeRef:
    return NodeRef(NodeKind.FUNCTION, fn.id, fn.qualified_name)


def variable_ref(contract_name: str, var_name: str) -> NodeRef:
    return NodeRef(NodeKind.VARIABLE, f"var:{contract_name}.{var_name}", f"{contract_name}.{var_name}")


def modifier_ref(contract_name: str, mod_name: str) -> NodeRef:
    return NodeRef(NodeKind.MODIFIER, f"mod:{contract_name}.{mod_name}", f"{contract_name}.{mod_name}")


def type_ref(type_name: str) -> NodeRef:
    return NodeRef(NodeKind.TYPE_NAME, f"type:{type_name}", type_name)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_VISIBILITY = {"public", "private", "internal", "external"}
_MUTABILITY = {"pure", "view", "payable", "constant"}
_LOCATIONS = {"memory", "storage", "calldata"}
_FN_INTRO = {"function", "constructor", "receive", "fallback"}


def match_group(tokens: list[Token], start: int, open_text: str, close_text: str) -> int:
    """Index just past the group closer, assuming tokens[start] opens it."""
    depth = 0
    i = start
    while i < len(tokens):
        if tokens[i].text == open_text:
            depth += 1
        elif tokens[i].text == close_text:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(tokens)


def _split_top_level(tokens: list[Token], separator: str = ",") -> list[list[Token]]:
    parts: list[list[Token]] = [[]]
    depth = 0
    for tok in tokens:
        if tok.text in "([{":
            depth += 1
        elif tok.text in ")]}":
            depth -= 1
        if tok.text == separator and depth == 0:
            parts.append([])
        else:
            parts[-1].append(tok)
    if parts == [[]]:
        return []
    return parts


def _type_string(tokens: list[Token]) -> str:
    """Normalized type string of one parameter/return declaration."""
    kept = [t for t in tokens if t.text not in _LOCATIONS]
    if len(kept) >= 2 and kept[-1].kind == "ident":
        kept = kept[:-1]  # trailing parameter name
    return "".join(t.text for t in kept).lower()


def _parse_header(tokens: list[Token]) -> FunctionHeader:
    """Interpret a function's header token list (intro keyword onward)."""
    intro = tokens[0].text if tokens else "function"
    i = 1
    name = intro if intro != "function" else ""
    if intro == "function" and i < len(tokens) and tokens[i].kind in ("ident", "keyword") \
            and tokens[i].text != "(":
        name = tokens[i].text
        i += 1
    if not name:
        name = "fallback"  # pre-0.6 unnamed fallback

    param_types: list[str] = []
    param_names: list[str] = []
    if i < len(tokens) and tokens[i].text == "(":
        end = match_group(tokens, i, "(", ")")
        for part in _split_top_level(tokens[i + 1:end - 1]):
            if not part:
                continue
            param_types.append(_type_string(part))
            without_location = [t for t in part if t.text not in _LOCATIONS]
            if len(without_location) >= 2 and without_location[-1].kind == "ident":
                param_names.append(without_location[-1].text)
        i = end

    visibility = ""
    mutability = ""
    return_types: list[str] = []
    modifiers: list[str] = []
    while i < len(tokens):
        tok = tokens[i]
        if tok.text in _VISIBILITY:
            visibility = tok.text
            i += 1
        elif tok.text in _MUTABILITY:
            mutability = "view" if tok.text == "constant" else tok.text
            i += 1
        elif tok.text == "returns":
            i += 1
            if i < len(tokens) and tokens[i].text == "(":
                end = match_group(tokens, i, "(", ")")
                for part in _split_top_level(tokens[i + 1:end - 1]):
                    if part:
                        return_types.append(_type_string(part))
                i = end
        elif tok.text in ("virtual", "override"):
            i += 1
            if i < len(tokens) and tokens[i].text == "(":  # override(Base, ...)
                i = match_group(tokens, i, "(", ")")
        elif tok.kind == "ident":
            modifiers.append(tok.text)
            i += 1
            if i < len(tokens) and tokens[i].text == "(":  # modifier arguments
                i = match_group(tokens, i, "(", ")")
        else:
            i += 1

    if not visibility:
        visibility = "public"  # pre-0.5 default
    if not mutability:
        mutability = "nonpayable"
    return FunctionHeader(name, param_types, param_names, return_types,
                          visibility, mutability, modifiers)


def _signature_from_header(header: FunctionHeader) -> SignatureFeatures:
    features = {header.visibility, header.mutability}
    for ptype in header.param_types:
        features.add(f"param:{ptype}")
    for rtype in header.return_types:
        features.add(f"ret:{rtype}")
    for mod in header.modifiers:
        features.add(f"mod:{mod.lower()}")
    return SignatureFeatures(frozenset(features))


def _header_end(tokens: list[Token], start: int = 0) -> int:
    """Index of the '{' or ';' that ends the function header at ``start``,
    or ``len(tokens)`` if there is none."""
    i = start
    while i < len(tokens) and tokens[i].text not in ("{", ";"):
        i += 1
    return i


def extract_signature(fn: FunctionUnit) -> SignatureFeatures:
    """Signature features of a parsed function, recomputed from its source."""
    tokens = lex(fn.source_text)
    return _signature_from_header(_parse_header(tokens[:_header_end(tokens)]))


def access_kind(body_tokens: list[Token], index: int) -> str:
    """'read' or 'write' for the identifier occurrence at ``index``."""
    prev = body_tokens[index - 1] if index > 0 else None
    if prev is not None and prev.text in ("++", "--", "delete"):
        return "write"
    # skip index chains: balances[msg.sender][k] = ...
    j = index + 1
    while j < len(body_tokens) and body_tokens[j].text == "[":
        j = match_group(body_tokens, j, "[", "]")
    if j < len(body_tokens):
        text = body_tokens[j].text
        if text in _ASSIGN_OPS or text in ("++", "--"):
            return "write"
        if text == "." and j + 1 < len(body_tokens) \
                and body_tokens[j + 1].text in ("push", "pop"):
            return "write"
    return "read"


def find_state_accesses(body_tokens: list[Token], var_names: set[str],
                        skip_names: frozenset[str] = frozenset()
                        ) -> list[tuple[Token, str]]:
    """State-variable occurrences in a body, each tagged 'read' or 'write'.

    ``skip_names`` holds identifiers shadowed by parameters. Call sites and
    member accesses on other values are not variable accesses.
    """
    out = []
    for i, tok in enumerate(body_tokens):
        if tok.kind != "ident" or tok.text not in var_names or tok.text in skip_names:
            continue
        nxt = body_tokens[i + 1] if i + 1 < len(body_tokens) else None
        if nxt is not None and nxt.text == "(":
            continue  # call site, handled separately
        prev = body_tokens[i - 1] if i > 0 else None
        if prev is not None and prev.text == ".":
            continue  # member access on some other value
        out.append((tok, access_kind(body_tokens, i)))
    return out


def parse_source(text: str, path: str = "<memory>") -> SourceUnit:
    """Parse Solidity source into contracts, functions, and state variables.

    Raises IngestError(UnbalancedBraces) when the file cannot be sliced and
    IngestError(MalformedDeclaration) when a function signature cannot be
    normalized; anything else unparseable is skipped with a diagnostic.
    """
    unit = SourceUnit(path=path, source_text=text)
    unit.tokens = tokens = lex(text, unit.diagnostics)
    balance_error = check_brace_balance(tokens)
    if balance_error is not None:
        raise IngestError("UnbalancedBraces", f"{path}: {balance_error}")

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.text == "pragma":
            end = i
            while end < len(tokens) and tokens[end].text != ";":
                end += 1
            if end - i >= 2 and tokens[i + 1].text == "solidity":
                unit.pragma_version = "".join(t.text for t in tokens[i + 2:end])
            i = end + 1
        elif tok.text in ("contract", "library", "interface"):
            i = _parse_contract(text, tokens, i, tok.text, unit)
        else:
            i += 1
    return unit


def load_source(path: str) -> SourceUnit:
    """Read and parse a .sol file. Raises IngestError(NonUtf8) on bad bytes."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError("NonUtf8", f"{path}: not valid UTF-8 ({exc})") from exc
    return parse_source(text, path)


def _parse_contract(text: str, tokens: list[Token], start: int, kind: str,
                    unit: SourceUnit) -> int:
    """Parse one contract/library/interface block; return the next index."""
    i = start + 1
    if i >= len(tokens) or tokens[i].kind not in ("ident", "keyword"):
        unit.diagnostics.append(f"line {tokens[start].line}: {kind} without a name, skipped")
        return i
    name = tokens[i].text
    i += 1
    while i < len(tokens) and tokens[i].text != "{":
        i += 1  # inheritance clause
    if i >= len(tokens):
        return i
    body_end = match_group(tokens, i, "{", "}")
    body = tokens[i + 1:body_end - 1]
    contract = ContractDecl(name=name, kind=kind)
    _parse_members(text, body, i + 1, contract, unit)
    unit.contracts.append(contract)
    return body_end


def _parse_members(text: str, body: list[Token], offset: int, contract: ContractDecl,
                   unit: SourceUnit) -> None:
    """Parse a contract body; ``body[0]`` is ``unit.tokens[offset]``."""
    i = 0
    while i < len(body):
        tok = body[i]
        if tok.text in _FN_INTRO:
            i = _parse_function(text, body, i, offset, contract, unit)
        elif tok.text == "modifier":
            i = _parse_modifier(body, i, contract, unit)
        elif tok.text in ("event", "error", "using", "import"):
            i = _skip_statement(body, i)
        elif tok.text in ("struct", "enum"):
            i += 1
            while i < len(body) and body[i].text != "{":
                i += 1
            i = match_group(body, i, "{", "}") if i < len(body) else i
        elif tok.text == ";":
            i += 1
        elif tok.kind in ("keyword", "ident"):
            i = _parse_state_var(body, i, contract, unit)
        else:
            unit.diagnostics.append(
                f"line {tok.line}: unexpected {tok.text!r} in contract {contract.name}, skipped")
            i = _skip_statement(body, i)


def _skip_statement(tokens: list[Token], start: int) -> int:
    """Advance past the next ';' at the current brace depth."""
    depth = 0
    i = start
    while i < len(tokens):
        text = tokens[i].text
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
        elif text == ";" and depth <= 0:
            return i + 1
        i += 1
    return i


def _parse_function(text: str, body: list[Token], start: int, offset: int,
                    contract: ContractDecl, unit: SourceUnit) -> int:
    """Slice one function/constructor/receive/fallback declaration.

    The declaration holds at least its intro keyword, so it is never empty.
    """
    i = _header_end(body, start)
    header = _parse_header(body[start:i])
    if i < len(body) and body[i].text == "{":
        end = match_group(body, i, "{", "}")
        body_start, body_end = i + 1, end - 1
    else:
        end = min(i + 1, len(body))  # past the ';', if there is one
        body_start = body_end = i
    decl = body[start:end]
    normalized = normalize_source(decl)
    try:
        signature = _signature_from_header(header)
    except ValueError as exc:
        raise IngestError("MalformedDeclaration",
                          f"{unit.path}: line {decl[0].line}: {exc}") from None
    fn = FunctionUnit(
        id=function_id(contract.name, header.name, normalized),
        contract_name=contract.name,
        name=header.name,
        source_text=text[decl[0].start:decl[-1].end],
        signature=signature,
        token_count=len(normalized),
    )
    contract.functions.append(fn)
    contract.decls.append(FunctionDecl(offset + start, offset + end, offset + body_start,
                                       offset + body_end, header, normalized))
    return end


def _parse_modifier(body: list[Token], start: int, contract: ContractDecl,
                    unit: SourceUnit) -> int:
    i = start + 1
    if i >= len(body) or body[i].kind not in ("ident", "keyword"):
        unit.diagnostics.append(f"line {body[start].line}: modifier without a name, skipped")
        return _skip_statement(body, start)
    contract.modifiers.append(body[i].text)
    i += 1
    if i < len(body) and body[i].text == "(":
        i = match_group(body, i, "(", ")")
    while i < len(body) and body[i].text not in ("{", ";"):
        i += 1
    if i < len(body) and body[i].text == "{":
        return match_group(body, i, "{", "}")
    return i + 1


def _parse_state_var(body: list[Token], start: int, contract: ContractDecl,
                     unit: SourceUnit) -> int:
    """Parse one state-variable declaration ending at ';'."""
    end = start
    depth = 0
    while end < len(body):
        text = body[end].text
        if text in "{([":
            depth += 1
        elif text in "})]":
            depth -= 1
        elif text == ";" and depth == 0:
            break
        end += 1
    decl = body[start:end]
    # declaration part is everything left of '=' (initializer excluded)
    for idx, tok in enumerate(decl):
        if tok.text == "=" :
            decl = decl[:idx]
            break
    names = [t for t in decl if t.kind == "ident"]
    if not names:
        unit.diagnostics.append(
            f"line {body[start].line}: unrecognized declaration in {contract.name}, skipped")
        return end + 1
    var_name = names[-1].text
    type_tokens = []
    for tok in decl:
        if tok is names[-1]:
            break
        if tok.text in _VISIBILITY or tok.text in ("constant", "immutable"):
            continue
        type_tokens.append(tok.text)
    contract.state_vars.append((var_name, "".join(type_tokens)))
    return end + 1


# ---------------------------------------------------------------------------
# Triple extraction
# ---------------------------------------------------------------------------

def extract_triples(unit: SourceUnit) -> list[Triple]:
    """Entity-relationship triples of one parsed source unit."""
    triples, _ = extract_triples_with_diagnostics(unit)
    return triples


def extract_triples_with_diagnostics(unit: SourceUnit) -> tuple[list[Triple], list[str]]:
    """Like extract_triples, also returning unresolved-reference diagnostics."""
    triples: list[Triple] = []
    diagnostics: list[str] = []

    functions_by_contract: dict[str, dict[str, FunctionUnit]] = {}
    function_name_index: dict[str, list[FunctionUnit]] = {}
    modifiers_by_contract: dict[str, set[str]] = {}
    modifier_owner_index: dict[str, list[str]] = {}
    for contract in unit.contracts:
        functions_by_contract[contract.name] = {fn.name: fn for fn in contract.functions}
        modifiers_by_contract[contract.name] = set(contract.modifiers)
        for fn in contract.functions:
            function_name_index.setdefault(fn.name, []).append(fn)
        for mod in contract.modifiers:
            modifier_owner_index.setdefault(mod, []).append(contract.name)

    for contract in unit.contracts:
        c_ref = contract_ref(contract.name)
        for var_name, _var_type in contract.state_vars:
            triples.append(Triple(c_ref, Relation.OWNS, variable_ref(contract.name, var_name)))
        for mod in contract.modifiers:
            triples.append(Triple(c_ref, Relation.OWNS, modifier_ref(contract.name, mod)))
        state_var_names = {name for name, _ in contract.state_vars}
        for fn, decl in zip(contract.functions, contract.decls):
            triples.append(Triple(c_ref, Relation.OWNS, function_ref(fn)))
            _extract_function_triples(
                fn, decl.header, unit.body_tokens(decl), contract, state_var_names,
                functions_by_contract, function_name_index,
                modifiers_by_contract, modifier_owner_index,
                triples, diagnostics,
            )
    return triples, diagnostics


def _resolve_call(name: str, contract_name: str,
                  functions_by_contract: dict[str, dict[str, FunctionUnit]],
                  function_name_index: dict[str, list[FunctionUnit]]) -> Optional[FunctionUnit]:
    local = functions_by_contract.get(contract_name, {})
    if name in local:
        return local[name]
    candidates = function_name_index.get(name, [])
    if len(candidates) == 1:
        return candidates[0]
    return None


def _extract_function_triples(fn: FunctionUnit, header: FunctionHeader,
                              body_tokens: list[Token], contract: ContractDecl,
                              state_var_names: set[str],
                              functions_by_contract: dict[str, dict[str, FunctionUnit]],
                              function_name_index: dict[str, list[FunctionUnit]],
                              modifiers_by_contract: dict[str, set[str]],
                              modifier_owner_index: dict[str, list[str]],
                              triples: list[Triple], diagnostics: list[str]) -> None:
    f_ref = function_ref(fn)

    for rtype in header.return_types:
        triples.append(Triple(f_ref, Relation.RETURNS, type_ref(rtype)))

    for mod in header.modifiers:
        if mod in modifiers_by_contract.get(contract.name, set()):
            triples.append(Triple(f_ref, Relation.USES_MODIFIER, modifier_ref(contract.name, mod)))
        else:
            owners = modifier_owner_index.get(mod, [])
            if len(owners) == 1:
                triples.append(Triple(f_ref, Relation.USES_MODIFIER, modifier_ref(owners[0], mod)))
            else:
                diagnostics.append(
                    f"{fn.qualified_name}: modifier {mod!r} not declared in this unit")

    for i, tok in enumerate(body_tokens):
        if tok.kind != "ident":
            continue
        nxt = body_tokens[i + 1] if i + 1 < len(body_tokens) else None
        if nxt is None:
            continue
        prev = body_tokens[i - 1] if i > 0 else None
        # `x.call{value: v}(...)` carries options before the argument list
        low_level_options = (nxt.text == "{" and prev is not None
                             and prev.text == "." and tok.text in _LOW_LEVEL_CALLS)
        if nxt.text == "(" or low_level_options:
            _extract_call_site(tok, prev, fn, contract, functions_by_contract,
                               function_name_index, triples, diagnostics, f_ref)

    param_names = frozenset(header.param_names)
    for tok, kind in find_state_accesses(body_tokens, state_var_names, param_names):
        relation = Relation.WRITES if kind == "write" else Relation.READS
        triples.append(Triple(f_ref, relation, variable_ref(contract.name, tok.text)))


def _extract_call_site(tok: Token, prev: Optional[Token], fn: FunctionUnit,
                       contract: ContractDecl,
                       functions_by_contract: dict[str, dict[str, FunctionUnit]],
                       function_name_index: dict[str, list[FunctionUnit]],
                       triples: list[Triple], diagnostics: list[str],
                       f_ref: NodeRef) -> None:
    name = tok.text
    if prev is not None and prev.text in ("emit", "new"):
        return
    if name in _BUILTIN_CALLABLES:
        return
    is_member = prev is not None and prev.text == "."
    if is_member and name in _LOW_LEVEL_CALLS:
        diagnostics.append(f"{fn.qualified_name}: low-level .{name}() left unresolved")
        return
    callee = _resolve_call(name, contract.name, functions_by_contract, function_name_index)
    if callee is None:
        count = len(function_name_index.get(name, []))
        reason = "ambiguous" if count > 1 else "unresolved"
        diagnostics.append(f"{fn.qualified_name}: {reason} call target {name!r}")
        return
    triples.append(Triple(f_ref, Relation.CALLS, function_ref(callee)))


