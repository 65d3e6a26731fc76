"""Lightweight Solidity source extractor.

A tokenizer plus a walker over bracket groups covering the subset the
pipeline needs: contract/library/interface declarations, functions and their
verbatim bodies, modifiers, state variables, call sites, and state
reads/writes. It is not a compiler; unparseable regions are skipped with a
diagnostic rather than failing the file.

``lex`` is one ``findall`` of a single regular expression with two
groups: the run of whitespace and comments before a token, and the token.
The token group's last alternatives take any one character nothing else
does and the end of the text, so it always matches, unexpected characters
become diagnostics without a second pass, and the skipped run never
backtracks. A token's kind follows from its first character, its offsets
from the running lengths of the runs and tokens, and its line from the
newlines counted in the runs and in string literals. Every token becomes a
``Token``, an immutable named tuple of kind, text, start and end offset,
and line.

``parse_source`` lexes a file once and keeps the tokens on the
``SourceUnit``, with its group table: one pass with a stack per bracket kind
records, for every ``(``, ``[`` and ``{``, the index just past its partner of
the same kind, and refuses a file whose braces do not balance. Every end the
parser, the per-function facts and the detectors look for comes from two
methods over that table: ``group_end``, the end of the group a token opens,
and ``scan``, the next token with one of some texts, stepping over whole
groups. The parsers walk ``unit.tokens`` by absolute index, each within the
range of the group it is in. Each function gets one ``FunctionDecl`` record: its
``FunctionUnit``, where its declaration and body lie in the tokens, its
parsed header and normalized tokens, and the facts its body states. Those
facts are worked out once per parse, after every contract of the file is
known: the state variables it reads and writes, the modifiers it uses with
the contract that declares each, and its call sites, each classified and
resolved. Everything downstream reads the record without lexing again: the
function ID, token count and signature, the canonical file hash
(``canonical_source_hash(unit.tokens)``), the clone key, the hashing
embedder's vectors, the triples (``extract_triples_with_diagnostics``
emits them from the records) and the detectors' rules.

A triple's node kinds and relation are their names, plain strings such as
``"function"`` and ``"CALLS"``, the names a knowledge-base file stores.
``RELATION_TYPING`` is the one place they are listed, each relation with the
kinds it joins.
"""

from __future__ import annotations

import hashlib
import re
import string
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Optional, Sequence

from .model import CodedError, FunctionUnit, SignatureFeatures, function_id


class IngestError(CodedError):
    """Raised when a file cannot be sliced at all.

    ``code`` is one of ``UnbalancedBraces``, ``NonUtf8`` or
    ``MalformedDeclaration`` (a function header whose signature cannot be
    normalized, such as a string literal in its parameter list).
    """


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

#: Group 1 is the whitespace and comments before a token, group 2 the token:
#: a string, number, identifier or keyword, or operator, in that order of
#: precedence, else one unexpected character, else the empty end of the text.
_TOKEN_RE = re.compile(
    r"""
      ((?:\s+|//[^\n]*|/\*.*?\*/)*)
      ( hex"(?:[^"\\]|\\.)*"|unicode"(?:[^"\\]|\\.)*"
      | "(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*'
      | 0[xX][0-9a-fA-F_]+|\d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?
      | [A-Za-z_$][A-Za-z0-9_$]*
      | <<=|>>=|\*\*|\+\+|--|&&|\|\||==|!=|<=|>=|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<|>>|=>|->
      | [{}()\[\];,.?:~!<>=+\-*/%&|^]
      | .
      | \Z )
    """,
    re.DOTALL | re.VERBOSE,
)

#: A token's first character -> its kind. An identifier that is a keyword,
#: or that ends in a quote (``hex"..."``, ``unicode"..."``), a lone quote,
#: and a non-ASCII decimal digit, which ``\d`` takes, are told apart in ``lex``.
_FIRST_KIND = {
    **dict.fromkeys(string.ascii_letters + "_$", "ident"),
    **dict.fromkeys(string.digits, "number"),
    **dict.fromkeys("\"'", "string"),
    **dict.fromkeys("{}()[];,.?:~!<>=+-*/%&|^", "op"),
}

#: Assignment operators that mark a state-variable write.
ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="}

#: Built-in callables that are never corpus call targets.
_BUILTIN_CALLABLES = {
    "require", "assert", "keccak256", "sha256", "sha3", "ripemd160",
    "ecrecover", "addmod", "mulmod", "selfdestruct", "suicide",
    "blockhash", "gasleft", "type", "push", "pop",
}

#: Low-level member calls recorded as diagnostics, never as CALLS edges.
_LOW_LEVEL_CALLS = {"call", "delegatecall", "staticcall"}

#: Pre-0.7 options of a low-level call: ``x.call.value(v).gas(g)(...)``.
_CALL_OPTIONS = {"value", "gas"}


class Token(NamedTuple):
    kind: str  # keyword | ident | number | string | op
    text: str
    start: int
    end: int
    line: int


def lex(text: str, diagnostics: Optional[list[str]] = None) -> list[Token]:
    """Tokenize, dropping comments and whitespace. Never raises.

    One ``findall`` yields each (skipped run, token) pair. A token starts
    where the run before it ends; only the runs and string literals can
    hold a newline, so only they are counted for ``Token.line``.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # a Token without NamedTuple's Python-level __new__
    first_kind = _FIRST_KIND.get
    keywords = _KEYWORDS
    line = 1
    end = 0
    for skipped, value in _TOKEN_RE.findall(text):
        if skipped:
            end += len(skipped)
            line += skipped.count("\n")
        if not value:  # the end of the text
            break
        start = end
        end += len(value)
        kind = first_kind(value[0])
        if kind == "ident":
            if value in keywords:
                kind = "keyword"
            elif value[-1] == '"':
                kind = "string"
        elif kind is None and value[0].isdecimal():
            kind = "number"
        elif kind == "string" and len(value) == 1:
            kind = None
        if kind is None:
            if diagnostics is not None:
                diagnostics.append(f"line {line}: skipped unexpected character {value!r}")
            continue
        append(new(Token, (kind, value, start, end, line)))
        if kind == "string":
            line += value.count("\n")
    return tokens


# ---------------------------------------------------------------------------
# Normalization and hashing
# ---------------------------------------------------------------------------

#: token kind -> what ``normalize_source`` puts in its place; any other
#: kind keeps its text
_PLACEHOLDERS = {"ident": "ID", "number": "LIT", "string": "LIT"}


def normalize_source(tokens: Sequence[Token]) -> list[str]:
    """Normalized token sequence of a snippet's ``tokens``.

    Identifiers become ``ID``, numeric and string literals become ``LIT``;
    keywords, operators, and punctuation are kept verbatim. Tokens hold no
    comments or whitespace, so two functions differing only in layout,
    comments, identifier names or literal values normalize identically (the
    clone-group relation).
    """
    placeholder = _PLACEHOLDERS.get
    return [placeholder(tok.kind, tok.text) for tok in tokens]


def canonical_source_hash(tokens: Sequence[Token]) -> str:
    """Hash of the canonical byte form of a source file's ``tokens``.

    Tokens hold no comments or whitespace, and identifiers and literals are
    kept verbatim, so only exact duplicates (modulo layout and comments)
    collide.
    Used for corpus/test deduplication.
    """
    canonical = " ".join(map(itemgetter(1), tokens))  # each token's text
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


class CallSite(NamedTuple):
    """One call in a function body, classified once by ``parse_source``.

    ``index`` is the called name's position in the body and ``token`` that
    token. ``kind`` is one of:
    - ``"resolved"``: ``callee`` is the function of that name in the
      caller's contract, or else the unit's only one;
    - ``"unresolved"`` or ``"ambiguous"``: no such function, or several
      outside the caller's contract;
    - ``"builtin"``, ``"emit"`` or ``"new"``: never a corpus function;
    - ``"value"``: a member ``send(...)`` or ``transfer(...)``, a value
      transfer that is never a corpus function either, even where the unit
      declares a function of that name;
    - ``"low-level"``: a member ``call``, ``delegatecall`` or
      ``staticcall`` with its arguments, its ``{...}`` options or its
      ``.value(...)``/``.gas(...)`` options.
    ``value`` marks a value transfer: a ``"value"`` site, or a low-level
    ``call`` whose options set a value.
    """

    index: int
    token: Token
    kind: str
    callee: Optional[FunctionUnit]
    value: bool


@dataclass
class FunctionDecl:
    """One parsed function: its unit, where it lies, and what its body does.

    ``SourceUnit.tokens[start:end]`` is the whole declaration and
    ``tokens[body_start:body_end]`` the inside of its outermost braces
    (empty for a declaration without a body). ``normalized`` is the
    declaration's ``normalize_source`` sequence.

    ``parse_source`` fills the facts once the whole file is parsed:
    - ``accesses``: each occurrence of its contract's state variables in
      the body, tagged ``"read"`` or ``"write"``; a parameter of the same
      name shadows the variable;
    - ``modifiers``: each header modifier with the contract that declares
      it (the function's own, else the unit's only one), or None;
    - ``calls``: each call site in the body, in order.
    """

    fn: FunctionUnit
    start: int
    end: int
    body_start: int
    body_end: int
    header: FunctionHeader
    normalized: list[str]
    accesses: list[tuple[Token, str]] = field(default_factory=list)
    modifiers: list[tuple[str, Optional[str]]] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class ContractDecl:
    name: str
    kind: str  # contract | library | interface
    functions: list[FunctionDecl] = field(default_factory=list)
    modifiers: list[str] = field(default_factory=list)
    state_vars: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class SourceUnit:
    """One parsed file: its contracts, each holding one ``FunctionDecl``
    record per function, its file-level (free) functions' records, its
    tokens, and what the parse skipped.

    ``diagnostics`` holds only the parse's own lines, which the compile
    check reports. Unresolved calls and modifiers stay in the records;
    ``extract_triples_with_diagnostics`` reports them for the graph.
    """

    path: str
    pragma_version: Optional[str] = None
    contracts: list[ContractDecl] = field(default_factory=list)
    #: The functions declared outside every contract, in file order; their
    #: ``contract_name`` is "".
    free_functions: list[FunctionDecl] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)
    source_text: str = ""
    #: The file's tokens from its one ``lex``, with absolute offsets and lines.
    tokens: list[Token] = field(default_factory=list, repr=False, compare=False)
    #: The group table: ``ends[i]`` is the index just past the group that
    #: ``tokens[i]`` opens, or ``i + 1`` for a token that opens none; one
    #: more entry past the last token keeps ``group_end(stop, stop)`` in range.
    ends: list[int] = field(default_factory=list, init=False, repr=False, compare=False)

    def group_end(self, i: int, stop: int) -> int:
        """Index just past the group that ``tokens[i]`` opens, or past the
        token if it opens none, counting only ``tokens[:stop]``: ``stop`` if
        the group does not close before it."""
        return min(self.ends[i], stop)

    def scan(self, i: int, stop: int, texts: Container[str]) -> int:
        """Index of the first token in ``tokens[i:stop]`` whose text is in
        ``texts``, stepping over whole groups, else ``stop``."""
        tokens, ends = self.tokens, self.ends
        while i < stop and tokens[i].text not in texts:
            i = ends[i]
        return min(i, stop)

    def body_tokens(self, decl: FunctionDecl) -> list[Token]:
        return self.tokens[decl.body_start:decl.body_end]

    def declarations(self) -> Iterator[FunctionDecl]:
        """Every function's record: the contracts' functions in file order,
        then the free functions in file order."""
        for contract in self.contracts:
            yield from contract.functions
        yield from self.free_functions

    def _first(self, match: Callable[[FunctionUnit], bool]) -> Optional[FunctionUnit]:
        return next((decl.fn for decl in self.declarations() if match(decl.fn)), None)

    def find_function(self, contract_name: str, function_name: str) -> Optional[FunctionUnit]:
        return self._first(lambda fn: fn.contract_name == contract_name
                           and fn.name == function_name)

    def find_function_by_name(self, function_name: str) -> Optional[FunctionUnit]:
        """First function called ``function_name``, in any contract."""
        return self._first(lambda fn: fn.name == function_name)

    def find_function_by_id(self, fn_id: str) -> Optional[FunctionUnit]:
        return self._first(lambda fn: fn.id == fn_id)

    def declaration_tokens(self, fn: FunctionUnit) -> list[Token]:
        """The tokens of the first declaration with ``fn``'s id, the slice
        ``build_kb`` embeds. Raises ValueError if this unit has none."""
        decl = next((decl for decl in self.declarations() if decl.fn.id == fn.id), None)
        if decl is None:
            raise ValueError(f"function {fn.qualified_name} ({fn.id}) not found in {self.path}")
        return self.tokens[decl.start:decl.end]


#: Each relation's name -> (its subject's kind, the kinds of its objects): the
#: one listing of the graph's vocabulary, a node kind or relation being its
#: name. Every triple fits it.
RELATION_TYPING = {
    "OWNS": ("contract", {"function", "variable", "modifier"}),
    "CALLS": ("function", {"function"}),
    "RETURNS": ("function", {"type"}),
    "USES_MODIFIER": ("function", {"modifier"}),
    "READS": ("function", {"variable"}),
    "WRITES": ("function", {"variable"}),
}


class NodeRef(NamedTuple):
    """One endpoint of a triple: its kind (a node kind's name in
    ``RELATION_TYPING``, such as ``"function"``), graph node id and label. A
    named tuple, so it hashes and compares by its fields."""

    kind: str
    id: str
    label: str


class _TripleFields(NamedTuple):
    subject: NodeRef
    relation: str
    obj: NodeRef


class Triple(_TripleFields):
    """One typed edge: subject, relation (its name, such as ``"CALLS"``) and
    object.

    A named tuple that hashes and compares by its fields. Every way to build
    one (the constructor, ``_make`` and ``_replace``) checks it against
    ``RELATION_TYPING`` and raises ValueError for a relation not named there
    or an ill-typed triple.
    """

    __slots__ = ()

    def __new__(cls, subject: NodeRef, relation: str, obj: NodeRef) -> "Triple":
        try:
            subject_kind, object_kinds = RELATION_TYPING[relation]
        except KeyError:
            raise ValueError(f"unknown relation {relation!r}") from None
        if subject.kind != subject_kind or obj.kind not in object_kinds:
            raise ValueError(f"ill-typed triple: {subject.kind} -{relation}-> {obj.kind}")
        return tuple.__new__(cls, (subject, relation, obj))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Triple":
        return cls(*iterable)


def contract_ref(name: str) -> NodeRef:
    return NodeRef("contract", f"contract:{name}", name)


def function_ref(fn: FunctionUnit) -> NodeRef:
    return NodeRef("function", fn.id, fn.qualified_name)


def variable_ref(contract_name: str, var_name: str) -> NodeRef:
    return NodeRef("variable", f"var:{contract_name}.{var_name}", f"{contract_name}.{var_name}")


def modifier_ref(contract_name: str, mod_name: str) -> NodeRef:
    return NodeRef("modifier", f"mod:{contract_name}.{mod_name}", f"{contract_name}.{mod_name}")


def type_ref(type_name: str) -> NodeRef:
    return NodeRef("type", f"type:{type_name}", type_name)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_VISIBILITY = {"public", "private", "internal", "external"}
_MUTABILITY = {"pure", "view", "payable", "constant"}
_LOCATIONS = {"memory", "storage", "calldata"}
_FN_INTRO = {"function", "constructor", "receive", "fallback"}
#: where a pragma ends: its ';', or else the next top-level declaration
_PRAGMA_ENDS = {";", "contract", "library", "interface", "abstract", "import", "pragma",
                "function"}


def _group_ends(tokens: list[Token], path: str) -> list[int]:
    """``SourceUnit.ends`` of a file's tokens, from one pass.

    The pass keeps one stack of open positions per bracket kind, so a group
    closes at the first closer of its own kind that brings that kind's depth
    back to zero, whatever other kinds lie between; a group left open ends
    at ``len(tokens)``, and a closer without an opener opens nothing. Raises
    IngestError(UnbalancedBraces) at the first ``}`` without an opener, or
    at the end of the file while a ``{`` is left open.
    """
    ends = list(range(1, len(tokens) + 2))
    opened: dict[str, list[int]] = {"(": [], "[": [], "{": []}
    closes = {")": opened["("], "]": opened["["], "}": opened["{"]}
    for i, text in enumerate(map(itemgetter(1), tokens)):  # each token's text
        if text in opened:
            opened[text].append(i)
        elif text in closes:
            stack = closes[text]
            if stack:
                ends[stack.pop()] = i + 1
            elif text == "}":
                raise IngestError("UnbalancedBraces",
                                  f"{path}: line {tokens[i].line}: closing brace without opener")
    if opened["{"]:
        raise IngestError("UnbalancedBraces",
                          f"{path}: end of file: {len(opened['{'])} unclosed brace(s)")
    for i in opened["("] + opened["["]:
        ends[i] = len(tokens)
    return ends


def _split_top_level(unit: SourceUnit, start: int, stop: int) -> list[list[Token]]:
    """The nonempty comma-separated parts of ``unit.tokens[start:stop]``,
    stepping over groups."""
    parts = []
    while start < stop:
        comma = unit.scan(start, stop, (",",))
        if comma > start:
            parts.append(unit.tokens[start:comma])
        start = comma + 1
    return parts


def _type_string(tokens: list[Token]) -> str:
    """Normalized type string of one parameter/return declaration."""
    kept = [t for t in tokens if t.text not in _LOCATIONS]
    if len(kept) >= 2 and kept[-1].kind == "ident":
        kept = kept[:-1]  # trailing parameter name
    return "".join(t.text for t in kept).lower()


def _parse_header(unit: SourceUnit, start: int, stop: int) -> FunctionHeader:
    """Interpret the function header ``unit.tokens[start:stop]``, from its
    intro keyword up to its body or ``;``."""
    tokens = unit.tokens
    intro = tokens[start].text
    i = start + 1
    name = intro if intro != "function" else ""
    if intro == "function" and i < stop and tokens[i].kind in ("ident", "keyword"):
        name = tokens[i].text
        i += 1
    if not name:
        name = "fallback"  # pre-0.6 unnamed fallback

    param_types: list[str] = []
    param_names: list[str] = []
    if i < stop and tokens[i].text == "(":
        end = unit.group_end(i, stop)
        for part in _split_top_level(unit, i + 1, end - 1):
            param_types.append(_type_string(part))
            without_location = [t for t in part if t.text not in _LOCATIONS]
            if len(without_location) >= 2 and without_location[-1].kind == "ident":
                param_names.append(without_location[-1].text)
        i = end

    visibility = ""
    mutability = ""
    return_types: list[str] = []
    modifiers: list[str] = []
    while i < stop:
        tok = tokens[i]
        if tok.text in _VISIBILITY:
            visibility = tok.text
            i += 1
        elif tok.text in _MUTABILITY:
            mutability = "view" if tok.text == "constant" else tok.text
            i += 1
        elif tok.text == "returns":
            i += 1
            if i < stop and tokens[i].text == "(":
                end = unit.group_end(i, stop)
                return_types.extend(map(_type_string, _split_top_level(unit, i + 1, end - 1)))
                i = end
        elif tok.text in ("virtual", "override"):
            i += 1
            if i < stop and tokens[i].text == "(":  # override(Base, ...)
                i = unit.group_end(i, stop)
        elif tok.kind == "ident":
            modifiers.append(tok.text)
            i += 1
            if i < stop and tokens[i].text == "(":  # modifier arguments
                i = unit.group_end(i, stop)
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


def access_kind(unit: SourceUnit, index: int, stop: int) -> str:
    """'read' or 'write' for the identifier at ``unit.tokens[index]``, in a
    function body that ends at ``stop``, its closing brace."""
    tokens = unit.tokens
    if tokens[index - 1].text in ("++", "--", "delete"):
        return "write"
    # skip index chains: balances[msg.sender][k] = ...
    j = index + 1
    while j < stop and tokens[j].text == "[":
        j = unit.group_end(j, stop)
    text = tokens[j].text
    if text in ASSIGN_OPS or text in ("++", "--"):
        return "write"
    if text == "." and tokens[j + 1].text in ("push", "pop"):
        return "write"
    return "read"


def _state_accesses(unit: SourceUnit, decl: FunctionDecl,
                    var_names: set[str]) -> list[tuple[Token, str]]:
    """State-variable occurrences in a function body, each tagged 'read' or
    'write'. A body lies between its braces, so the tokens just before and
    after it exist.

    Call sites and member accesses on other values are not variable accesses.
    """
    tokens, stop = unit.tokens, decl.body_end
    out = []
    for i, tok in enumerate(tokens[decl.body_start:stop], decl.body_start):
        if tok.kind != "ident" or tok.text not in var_names:
            continue
        if tokens[i + 1].text == "(":
            continue  # call site, handled separately
        if tokens[i - 1].text == ".":
            continue  # member access on some other value
        out.append((tok, access_kind(unit, i, stop)))
    return out


def parse_source(text: str, path: str = "<memory>") -> SourceUnit:
    """Parse Solidity source into contracts, functions, and state variables.

    Raises IngestError(UnbalancedBraces) when the file cannot be sliced and
    IngestError(MalformedDeclaration) when a function signature cannot be
    normalized; anything else unparseable is skipped with a diagnostic.
    """
    unit = SourceUnit(path=path, source_text=text)
    unit.tokens = tokens = lex(text, unit.diagnostics)
    unit.ends = _group_ends(tokens, path)

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.text == "pragma":
            end = unit.scan(i + 1, len(tokens), _PRAGMA_ENDS)
            if end - i >= 2 and tokens[i + 1].text == "solidity":
                unit.pragma_version = "".join(t.text for t in tokens[i + 2:end])
            if end < len(tokens) and tokens[end].text == ";":
                i = end + 1
            else:  # a missing ';' ends the pragma at the next declaration
                unit.diagnostics.append(f"line {tok.line}: pragma without ';'")
                i = end
        elif tok.text in ("contract", "library", "interface"):
            i = _parse_contract(unit, i, tok.text)
        elif tok.text == "function" and i + 1 < len(tokens) and tokens[i + 1].kind == "ident":
            # a free function; a nameless ``function (`` is a function type
            i = _parse_function(unit, i, len(tokens), "", unit.free_functions)
        else:
            i += 1
    _resolve_facts(unit)
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


def _parse_contract(unit: SourceUnit, start: int, kind: str) -> int:
    """Parse one contract/library/interface block and its members; return
    the index past it."""
    tokens = unit.tokens
    i = start + 1
    if i >= len(tokens) or tokens[i].kind not in ("ident", "keyword"):
        unit.diagnostics.append(f"line {tokens[start].line}: {kind} without a name, skipped")
        return i
    contract = ContractDecl(name=tokens[i].text, kind=kind)
    i = unit.scan(i + 1, len(tokens), ("{",))  # past the inheritance clause
    if i == len(tokens):
        return i
    body_end = unit.group_end(i, len(tokens))
    stop = body_end - 1  # the closing brace
    i += 1
    while i < stop:
        tok = tokens[i]
        if tok.text in _FN_INTRO:
            i = _parse_function(unit, i, stop, contract.name, contract.functions)
        elif tok.text == "modifier":
            i = _parse_modifier(unit, i, stop, contract)
        elif tok.text in ("event", "error", "using", "import"):
            i = unit.scan(i, stop, (";",)) + 1
        elif tok.text in ("struct", "enum"):
            i = unit.group_end(unit.scan(i, stop, ("{",)), stop)
        elif tok.text == ";":
            i += 1
        elif tok.kind in ("keyword", "ident"):
            i = _parse_state_var(unit, i, stop, contract)
        else:
            unit.diagnostics.append(
                f"line {tok.line}: unexpected {tok.text!r} in contract {contract.name}, skipped")
            i = unit.scan(i, stop, (";",)) + 1
    unit.contracts.append(contract)
    return body_end


def _parse_function(unit: SourceUnit, start: int, stop: int, contract_name: str,
                    decls: list[FunctionDecl]) -> int:
    """Slice one function/constructor/receive/fallback declaration of the
    contract ``contract_name`` ("" for a free function) into ``decls``.

    The declaration holds at least its intro keyword, so it is never empty.
    """
    tokens = unit.tokens
    i = unit.scan(start, stop, ("{", ";"))
    header = _parse_header(unit, start, i)
    end = unit.group_end(i, stop)  # past the body, past the ';', or ``stop``
    if i < stop and tokens[i].text == "{":
        body_start, body_end = i + 1, end - 1
    else:
        body_start = body_end = i
    decl = tokens[start:end]
    normalized = normalize_source(decl)
    try:
        signature = _signature_from_header(header)
    except ValueError as exc:
        raise IngestError("MalformedDeclaration",
                          f"{unit.path}: line {decl[0].line}: {exc}") from None
    fn = FunctionUnit(
        id=function_id(contract_name, header.name, normalized),
        contract_name=contract_name,
        name=header.name,
        source_text=unit.source_text[decl[0].start:decl[-1].end],
        signature=signature,
        token_count=len(normalized),
    )
    decls.append(FunctionDecl(fn, start, end, body_start, body_end, header, normalized))
    return end


def _parse_modifier(unit: SourceUnit, start: int, stop: int, contract: ContractDecl) -> int:
    tokens = unit.tokens
    i = start + 1
    if i >= stop or tokens[i].kind not in ("ident", "keyword"):
        unit.diagnostics.append(f"line {tokens[start].line}: modifier without a name, skipped")
        return unit.scan(start, stop, (";",)) + 1
    contract.modifiers.append(tokens[i].text)
    return unit.group_end(unit.scan(i + 1, stop, ("{", ";")), stop)


def _parse_state_var(unit: SourceUnit, start: int, stop: int, contract: ContractDecl) -> int:
    """Parse one state-variable declaration ending at ';'."""
    end = unit.scan(start, stop, (";",))
    decl = unit.tokens[start:end]
    # declaration part is everything left of '=' (initializer excluded)
    for idx, tok in enumerate(decl):
        if tok.text == "=" :
            decl = decl[:idx]
            break
    names = [t for t in decl if t.kind == "ident"]
    if not names:
        unit.diagnostics.append(
            f"line {unit.tokens[start].line}: unrecognized declaration in {contract.name}, skipped")
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
# Per-function facts
# ---------------------------------------------------------------------------

def _resolve_facts(unit: SourceUnit) -> None:
    """Fill every record's accesses, modifiers and call sites.

    A call by name resolves to the caller's own contract's function of that
    name, else to the unit's only function of that name; a modifier
    likewise to its own contract, else to the unit's only declarer. The
    free functions are one more scope, named "", with no state variables
    and no modifiers of its own.
    """
    scopes = [(c.name, c.functions, {name for name, _ in c.state_vars}, set(c.modifiers))
              for c in unit.contracts]
    scopes.append(("", unit.free_functions, set(), set()))
    functions_named: dict[str, list[FunctionUnit]] = {}
    modifier_owners: dict[str, list[str]] = {}
    for decl in unit.declarations():
        functions_named.setdefault(decl.fn.name, []).append(decl.fn)
    for contract in unit.contracts:
        for mod in contract.modifiers:
            modifier_owners.setdefault(mod, []).append(contract.name)

    tokens = unit.tokens
    for scope, decls, state_var_names, own_modifiers in scopes:
        own_functions = {decl.fn.name: decl.fn for decl in decls}
        for decl in decls:
            unshadowed = state_var_names.difference(decl.header.param_names)
            decl.accesses = _state_accesses(unit, decl, unshadowed)
            for mod in decl.header.modifiers:
                owners = [scope] if mod in own_modifiers else modifier_owners.get(mod, [])
                decl.modifiers.append((mod, owners[0] if len(owners) == 1 else None))
            for i, kind, value in _call_sites(unit, decl):
                callee = None
                if kind is None:  # a call by name
                    named = functions_named.get(tokens[i].text, [])
                    callee = own_functions.get(tokens[i].text)
                    if callee is None and len(named) == 1:
                        callee = named[0]
                    kind = ("resolved" if callee is not None
                            else "ambiguous" if len(named) > 1 else "unresolved")
                decl.calls.append(CallSite(i - decl.body_start, tokens[i], kind, callee, value))


def _call_sites(unit: SourceUnit, decl: FunctionDecl) -> list[tuple[int, Optional[str], bool]]:
    """``(i, kind, value)`` of each call in a function body, ``i`` the called
    name's index in ``unit.tokens`` and ``kind`` and ``value`` as in
    ``CallSite``; the kind of a call by name is None, left to resolve. A body
    lies between its braces, so the tokens just before and after it exist."""
    tokens, stop = unit.tokens, decl.body_end
    out: list[tuple[int, Optional[str], bool]] = []
    options: set[int] = set()  # the .value/.gas names of low-level calls
    for i, tok in enumerate(tokens[decl.body_start:stop], decl.body_start):
        if tok.kind != "ident" or i in options:
            continue
        name, nxt, prev = tok.text, tokens[i + 1].text, tokens[i - 1].text
        if prev == "." and name in _LOW_LEVEL_CALLS:
            value = False
            if nxt == "{":  # x.call{value: v}(...)
                end = unit.group_end(i + 1, stop)
                value = any(t.text == "value" for t in tokens[i + 2:end - 1])
            j = i + 1
            while (j + 2 < stop and tokens[j].text == "."
                   and tokens[j + 1].text in _CALL_OPTIONS and tokens[j + 2].text == "("):
                options.add(j + 1)
                value = value or tokens[j + 1].text == "value"
                j = unit.group_end(j + 2, stop)
            if nxt in ("(", "{") or j > i + 1:
                out.append((i, "low-level", value and name == "call"))
        elif nxt == "(" and prev == "." and name in ("send", "transfer"):
            out.append((i, "value", True))
        elif nxt == "(":
            kind = prev if prev in ("emit", "new") else \
                "builtin" if name in _BUILTIN_CALLABLES else None
            out.append((i, kind, False))
    return out


# ---------------------------------------------------------------------------
# Triple extraction
# ---------------------------------------------------------------------------

def extract_triples_with_diagnostics(unit: SourceUnit) -> tuple[list[Triple], list[str]]:
    """Entity-relationship triples of one parsed source unit, and its
    unresolved-reference diagnostics, emitted from the function records.

    A contract OWNS its state variables, modifiers and functions; a free
    function has no owner, and its triples are those of its own record."""
    triples: list[Triple] = []
    diagnostics: list[str] = []
    for contract in unit.contracts:
        c_ref = contract_ref(contract.name)
        # one ref per state variable, shared by its OWNS, READS and WRITES triples:
        # a fresh ref per access, held until build_graph, costs time and peak memory
        var_refs = {name: variable_ref(contract.name, name) for name, _type in contract.state_vars}
        for var_name, _var_type in contract.state_vars:
            triples.append(Triple(c_ref, "OWNS", var_refs[var_name]))
        for mod in contract.modifiers:
            triples.append(Triple(c_ref, "OWNS", modifier_ref(contract.name, mod)))
        for decl in contract.functions:
            f_ref = function_ref(decl.fn)
            triples.append(Triple(c_ref, "OWNS", f_ref))
            _function_triples(decl, f_ref, var_refs, triples, diagnostics)
    for decl in unit.free_functions:
        _function_triples(decl, function_ref(decl.fn), {}, triples, diagnostics)
    return triples, diagnostics


def _function_triples(decl: FunctionDecl, f_ref: NodeRef, var_refs: dict[str, NodeRef],
                      triples: list[Triple], diagnostics: list[str]) -> None:
    """Append the triples and diagnostics of one function's record, whose
    node is ``f_ref`` and whose scope's state variables ``var_refs`` holds."""
    fn = decl.fn
    for rtype in decl.header.return_types:
        triples.append(Triple(f_ref, "RETURNS", type_ref(rtype)))
    for mod, owner in decl.modifiers:
        if owner is None:
            diagnostics.append(f"{fn.qualified_name}: modifier {mod!r} not declared in this unit")
        else:
            triples.append(Triple(f_ref, "USES_MODIFIER", modifier_ref(owner, mod)))
    for site in decl.calls:
        if site.kind == "resolved":
            triples.append(Triple(f_ref, "CALLS", function_ref(site.callee)))
        elif site.kind in ("low-level", "value"):
            diagnostics.append(
                f"{fn.qualified_name}: {site.kind} .{site.token.text}() left unresolved")
        elif site.kind in ("unresolved", "ambiguous"):
            diagnostics.append(f"{fn.qualified_name}: {site.kind} call target {site.token.text!r}")
    for tok, kind in decl.accesses:
        triples.append(Triple(f_ref, "WRITES" if kind == "write" else "READS", var_refs[tok.text]))
