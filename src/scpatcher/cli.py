"""Command-line interface.

Subcommands: build-kb (corpus -> knowledge base file), retrieve (ranked
references for one function), repair (single contract through the
two-stage pipeline), evaluate (batch run over a manifest with k sweep;
an entry whose canonical token hash equals a KB corpus file's is always
excluded, and a manifest file that cannot be read or is not UTF-8 stops
the run before any repair).
``--k`` (or ``evaluate``'s ``--k-sweep``) is the only retrieval option: the
k-NN pool of 50 and the rescoring ε = e - 1 are constants of the library,
and so is ``build-kb``'s clone threshold of 12 normalized tokens
(``graph.CLONE_MIN_TOKENS``).
``retrieve`` prints each reference from the KB's ``FunctionUnit`` that its
``Candidate`` holds.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .embedding import DEFAULT_DIMENSION, HashingEmbedder, RemoteEmbedder
from .evaluate import load_manifest, run_dataset
from .graph import MAX_DIMENSION, build_kb, load_kb, save_kb
from .ingest import load_source
from .llm import MockLlmBackend, RemoteLlmBackend
from .metrics import render_rate
from .model import VulnClass, VulnerabilityReport
from .repair import RepairConfig, repair, retrieve
from .rerank import DEFAULT_K

log = logging.getLogger(__name__)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _dimension(text: str) -> int:
    """A positive int that a knowledge base can hold as its dimension, so that
    a bad value is refused before the corpus is read."""
    value = _positive_int(text)
    if value > MAX_DIMENSION:
        raise argparse.ArgumentTypeError(f"expected an integer <= 2**32, got {text!r}")
    return value


def _parse_k_sweep(text: str) -> list[int]:
    values = [_positive_int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated k values, got {text!r}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="scpatcher",
                     description="Retrieval-augmented repair for Solidity contracts")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_build = sub.add_parser("build-kb", help="build a knowledge base from a corpus")
    p_build.add_argument("--corpus", required=True, help="directory of .sol files")
    p_build.add_argument("--out", required=True, help="knowledge base output file")
    p_build.add_argument("--embedder", choices=("hash", "remote"), default="hash")
    p_build.add_argument("--dimension", type=_dimension, default=DEFAULT_DIMENSION)
    p_build.set_defaults(func=_cmd_build_kb)

    p_retrieve = sub.add_parser("retrieve", help="rank reference functions for a query")
    p_retrieve.add_argument("--kb", required=True)
    p_retrieve.add_argument("--function", required=True,
                            metavar="PATH#Contract.func", help="query function locator")
    p_retrieve.add_argument("--k", type=_positive_int, default=DEFAULT_K)
    p_retrieve.set_defaults(func=_cmd_retrieve)

    p_repair = sub.add_parser("repair", help="repair one vulnerable function")
    p_repair.add_argument("--kb", required=True)
    p_repair.add_argument("--contract", required=True, help="path to the .sol file")
    p_repair.add_argument("--vuln", required=True, type=VulnClass.parse,
                          help="vulnerability class name")
    p_repair.add_argument("--function", required=True, help="function name")
    p_repair.add_argument("--llm", choices=("mock", "remote"), default="mock")
    p_repair.add_argument("--mock-script", help="JSON rule script for the mock backend")
    p_repair.add_argument("--model", default="default")
    p_repair.add_argument("--k", type=_positive_int, default=DEFAULT_K)
    p_repair.add_argument("--out", help="write the final patch to this file")
    p_repair.set_defaults(func=_cmd_repair)

    p_eval = sub.add_parser("evaluate", help="batch-evaluate a dataset manifest, "
                            "excluding entries that duplicate a KB corpus file")
    p_eval.add_argument("--kb", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--report", required=True, help="report output file")
    p_eval.add_argument("--k-sweep", type=_parse_k_sweep, default=[DEFAULT_K],
                        help="comma-separated k values, e.g. 1,3,5")
    p_eval.add_argument("--llm", choices=("mock", "remote"), default="mock")
    p_eval.add_argument("--mock-script", help="JSON rule script for the mock backend")
    p_eval.add_argument("--model", default="default")
    p_eval.add_argument("--jobs", type=_positive_int, default=1)
    p_eval.set_defaults(func=_cmd_evaluate)
    return parser


def _make_backend(args) -> object:
    if args.llm == "mock":
        if not args.mock_script:
            raise _UsageError("--llm mock requires --mock-script")
        return MockLlmBackend.from_script(args.mock_script)
    return RemoteLlmBackend()


def _cmd_build_kb(args) -> int:
    paths = sorted(str(p) for p in Path(args.corpus).rglob("*.sol"))
    if not paths:
        raise ValueError(f"no .sol files under {args.corpus}")
    if args.embedder == "hash":
        embedder = HashingEmbedder(args.dimension)
    else:
        embedder = RemoteEmbedder(dimension=args.dimension)
    graph, clones, report = build_kb(paths, embedder)
    save_kb(graph, clones, args.out)
    for line in report.lines():
        print(line)
    print(f"knowledge base written to {args.out}")
    return 0


def _split_locator(locator: str) -> tuple[str, str, str]:
    # a path may hold a '#'; a contract or function name never does
    path, sep, qualified = locator.rpartition("#")
    contract, dot, function = qualified.partition(".")
    if not sep or not dot or not path or not contract or not function:
        raise _UsageError(
            f"bad function locator {locator!r}, expected PATH#Contract.func")
    return path, contract, function


def _cmd_retrieve(args) -> int:
    path, contract_name, function_name = _split_locator(args.function)
    graph, _clones = load_kb(args.kb)
    unit = load_source(path)
    fn = unit.find_function(contract_name, function_name)
    if fn is None:
        raise ValueError(f"{contract_name}.{function_name} not found in {path}")
    retrieval = retrieve(graph, unit, fn, args.k)
    print(f"references for {contract_name}.{function_name} "
          f"(k={args.k}, pool={retrieval.pool_size}, "
          f"fallback={'yes' if retrieval.fallback else 'no'})")
    print("rank  s_sem   s_final  guf  clone             function")
    for rank, candidate in enumerate(retrieval.selected, start=1):
        ref = candidate.fn
        print(f"{rank:>4}  {candidate.s_sem:.4f}  {candidate.s_final:.4f}   "
              f"{ref.guf:>3}  {ref.clone_id or '-':<16}  {ref.qualified_name}")
    return 0


def _cmd_repair(args) -> int:
    backend = _make_backend(args)
    graph, _clones = load_kb(args.kb)
    unit = load_source(args.contract)
    fn = unit.find_function_by_name(args.function)
    if fn is None:
        raise ValueError(f"function {args.function!r} not found in {args.contract}")
    report = VulnerabilityReport(
        contract_path=args.contract,
        function_id=fn.id,
        vuln_class=args.vuln,
    )
    cfg = RepairConfig(k=args.k, backend=backend, model=args.model)
    outcome = repair(unit, report, graph, cfg)
    stage = outcome.stage_used.value if outcome.stage_used else "-"
    print(f"stage: {stage}")
    print(f"compiled: {'yes' if outcome.compiled else 'no'}")
    print(f"fixed: {'yes' if outcome.fixed else 'no'}")
    if outcome.diagnostics:
        print("diagnostics:")
        for line in outcome.diagnostics:
            print(f"  - {line}")
    if args.out:
        if outcome.patch is None:
            print(f"no patch produced, {args.out} not written")
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(outcome.patch.patched_source)
            print(f"patch written to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    backend = _make_backend(args)
    graph, _clones = load_kb(args.kb)
    manifest = load_manifest(args.manifest)
    cfg = RepairConfig(backend=backend, model=args.model)
    report = run_dataset(manifest, graph, cfg, k_values=args.k_sweep, jobs=args.jobs)
    report.save(args.report)
    for k_report in report.k_reports:
        metrics = k_report.metrics
        if metrics.n_total == 0:
            print(f"k={k_report.k}: empty batch")
            continue
        err_text = ("undefined" if metrics.n_comp == 0
                    else render_rate(metrics.err()))
        print(f"k={k_report.k}: cpr {render_rate(metrics.cpr())} "
              f"err {err_text} orr {render_rate(metrics.orr())}")
    print(f"report written to {args.report}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure contract: report and exit 2
        log.debug("traceback", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
