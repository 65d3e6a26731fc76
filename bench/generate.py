"""Seeded benchmark inputs: an N-copy corpus and renamed repair cases.

Everything is derived from the fixtures under ``tests/fixtures`` and one
integer seed; the same seed writes byte-identical files.

Corpus copy ``i`` holds every ``tests/fixtures/corpus/*.sol`` file. The
contract, state-variable and parameter names the ten files declare get one
seeded suffix per copy, so the canonical-hash dedup keeps every copy and the
hashing vectors differ between copies. Each ``function`` body also gets a
seeded padding variant, which sets the clone-group sizes: most copies keep
the original body (one large group), some take one of two shared variants
(two smaller groups), and the rest take a variant unique to the copy
(singletons). Constructors and modifiers are never padded, so the set of
functions below the clone-token threshold does not depend on the seed.

Repair cases are copies of the six ``tests/fixtures/eval_cases`` contracts,
renamed the same way, each with its own mock-LLM script whose rules and
responses carry the renamed identifiers. Every case therefore has a distinct
vulnerable function, so every retrieval query is distinct.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

FIXTURES = Path("tests") / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"
CASES_DIR = FIXTURES / "eval_cases"
GOLDEN_REPORT = FIXTURES / "golden" / "evaluation_report.txt"

#: Functions per copy of the fixture corpus.
FUNCTIONS_PER_COPY = 28

_CONTRACT_RE = re.compile(r"\b(?:contract|library|interface)\s+(\w+)")
_PARAMS_RE = re.compile(r"\b(?:function\s+\w+|constructor)\s*\(([^)]*)\)")
_FUNCTION_RE = re.compile(r"\bfunction\b")
_STRING_RE = re.compile(r'("(?:[^"\\\n]|\\.)*")')
_WORD_RE = re.compile(r"\w+")
_INITIALIZER_RE = re.compile(r"=(?!>)")

# Padding statements of distinct normalized shape (type keyword, operator).
_PAD_SHAPES = ("uint256 pad{n} = 0;", "bool pad{n} = false;", "int256 pad{n} = -1;")
# Share of copies that keep the original body / take shared variant 1 / 2;
# the remainder take a variant unique to their copy.
_VARIANT_CUTS = (0.6, 0.8, 0.9)
_UNIQUE_DIGITS = 5
MAX_COPIES = 3 ** _UNIQUE_DIGITS


def declared_names(text: str) -> list[str]:
    """Contract, state-variable and parameter names a source file declares."""
    names = list(_CONTRACT_RE.findall(text))
    for params in _PARAMS_RE.findall(text):
        for part in params.split(","):
            words = _WORD_RE.findall(part)
            if len(words) >= 2:
                names.append(words[-1])
    depth = 0
    for line in text.splitlines():
        stripped = line.strip()
        if depth == 1 and stripped.endswith(";"):
            words = _WORD_RE.findall(_INITIALIZER_RE.split(stripped[:-1])[0])
            if len(words) >= 2 and words[0] not in ("using", "event", "error"):
                names.append(words[-1])
        depth += line.count("{") - line.count("}")
    return list(dict.fromkeys(names))


def rename(text: str, names: list[str], suffix: str) -> str:
    """Append ``suffix`` to every whole-word use of ``names`` outside strings.

    Member accesses (``x.name``) are left alone, so ``msg.value`` survives a
    parameter called ``value``.
    """
    if not names:
        return text
    pattern = re.compile(r"(?<![\w.])(" + "|".join(map(re.escape, names)) + r")\b")
    parts = _STRING_RE.split(text)
    for i in range(0, len(parts), 2):  # odd indices are string literals
        parts[i] = pattern.sub(lambda m: m.group(1) + suffix, parts[i])
    return "".join(parts)


def _pad_statements(variant: tuple[int, ...]) -> str:
    return "".join("\n        " + _PAD_SHAPES[shape].format(n=n)
                   for n, shape in enumerate(variant))


def _pad_functions(text: str, variants: list[tuple[int, ...]]) -> str:
    """Insert ``variants[j]`` at the top of the j-th ``function`` body."""
    out = []
    last = 0
    for j, match in enumerate(_FUNCTION_RE.finditer(text)):
        brace = text.index("{", match.end())
        semi = text.find(";", match.end(), brace)
        if semi != -1:
            continue  # bodiless declaration
        out.append(text[last:brace + 1])
        out.append(_pad_statements(variants[j]))
        last = brace + 1
    out.append(text[last:])
    return "".join(out)


def _variant(rng: random.Random, copy: int) -> tuple[int, ...]:
    u = rng.random()
    if u < _VARIANT_CUTS[0]:
        return ()
    if u < _VARIANT_CUTS[1]:
        return (0,)
    if u < _VARIANT_CUTS[2]:
        return (1,)
    digits = []
    for _ in range(_UNIQUE_DIGITS):
        copy, digit = divmod(copy, 3)
        digits.append(digit)
    return (2, *digits)


def _suffixes(rng: random.Random, count: int, used: set[str]) -> list[str]:
    """``count`` distinct fixed-width seeded suffixes, none in ``used``."""
    out = []
    while len(out) < count:
        suffix = f"_{rng.getrandbits(24):06x}"
        if suffix not in used:
            used.add(suffix)
            out.append(suffix)
    return out


@dataclass(frozen=True)
class Inputs:
    corpus_paths: list[Path]
    manifest_path: Path
    case_count: int


def write_corpus(out_dir: Path, copies: int, rng: random.Random,
                 used: set[str]) -> list[Path]:
    """Write ``copies`` renamed, padded copies of the fixture corpus."""
    if not 1 <= copies <= MAX_COPIES:
        raise ValueError(f"copies must be in 1..{MAX_COPIES}")
    sources = [(p.stem, p.read_text(encoding="utf-8"))
               for p in sorted(CORPUS_DIR.glob("*.sol"))]
    names = list(dict.fromkeys(n for _, text in sources for n in declared_names(text)))
    paths = []
    for copy, suffix in enumerate(_suffixes(rng, copies, used)):
        copy_dir = out_dir / f"copy{copy:03d}"
        copy_dir.mkdir(parents=True)
        for stem, text in sources:
            functions = len(_FUNCTION_RE.findall(text))
            variants = [_variant(rng, copy) for _ in range(functions)]
            path = copy_dir / f"{stem}.sol"
            path.write_text(_pad_functions(rename(text, names, suffix), variants),
                            encoding="utf-8")
            paths.append(path)
    return paths


def _rule_substrings(rule: dict) -> list[str]:
    match = rule.get("match", {})
    return [match["substring"]] if "substring" in match else match.get("substrings", [])


def _rewrite_rule(rule: dict, names: list[str], suffix: str) -> dict:
    match = dict(rule.get("match", {}))
    if "substring" in match:
        match["substring"] = rename(match["substring"], names, suffix)
    if "substrings" in match:
        match["substrings"] = [rename(s, names, suffix) for s in match["substrings"]]
    return {"match": match, "response": rename(rule["response"], names, suffix)}


def write_cases(out_dir: Path, copies: int, rng: random.Random,
                used: set[str]) -> tuple[Path, int]:
    """Write ``copies`` renamed copies of each fixture case, one mock script
    per case, and a manifest listing them; returns (manifest, case count).

    Entries keep the fixture order within each copy, so entry ``i`` has the
    template of fixture entry ``i % 6``.
    """
    out_dir.mkdir(parents=True)
    template = json.loads((CASES_DIR / "manifest.json").read_text(encoding="utf-8"))
    rules = json.loads((CASES_DIR / "mock_script.json").read_text(encoding="utf-8"))["rules"]
    entries = []
    for copy, suffixes in enumerate(zip(*[iter(_suffixes(rng, copies * 6, used))] * 6)):
        for item, suffix in zip(template["entries"], suffixes):
            text = (CASES_DIR / item["path"]).read_text(encoding="utf-8")
            names = declared_names(text)
            contract = _CONTRACT_RE.search(text).group(1)
            stem = f"{Path(item['path']).stem}_{copy:03d}"
            (out_dir / f"{stem}.sol").write_text(rename(text, names, suffix),
                                                 encoding="utf-8")
            script = {"rules": [_rewrite_rule(rule, names, suffix) for rule in rules
                                if contract in _rule_substrings(rule)]}
            (out_dir / f"{stem}.mock.json").write_text(
                json.dumps(script, indent=1, sort_keys=True), encoding="utf-8")
            entries.append({**item, "path": f"{stem}.sol"})
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries}, indent=1), encoding="utf-8")
    return manifest, len(entries)


def mock_script_for(case_path: Path) -> Path:
    return case_path.with_suffix(".mock.json")


def generate(out_dir: Path, seed: int, corpus_copies: int, case_copies: int) -> Inputs:
    """Write the corpus (if ``corpus_copies``) and the cases under ``out_dir``."""
    rng = random.Random(seed)
    used: set[str] = set()
    corpus = []
    if corpus_copies:
        corpus = write_corpus(out_dir / "corpus", corpus_copies, rng, used)
    manifest, cases = write_cases(out_dir / "cases", case_copies, rng, used)
    return Inputs(corpus_paths=corpus, manifest_path=manifest, case_count=cases)
