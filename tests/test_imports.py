"""A local run loads no HTTP client.

Only the remote providers send requests, and each imports ``requests`` on
first use. The check runs in a fresh interpreter, because the test modules
import ``requests`` themselves.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
EVAL_CASES = FIXTURES / "eval_cases"
GOLDEN = FIXTURES / "golden"

# argv: corpus directory, eval-case directory, KB path
_LOCAL_RUN = """
import sys
from pathlib import Path

import scpatcher.cli
from scpatcher import embedding, evaluate, graph, ingest, llm, repair, rerank, verify

corpus, cases, kb_path = map(Path, sys.argv[1:])
kb, clones, _ = graph.build_kb(sorted(corpus.glob("*.sol")), embedding.HashingEmbedder())
graph.save_kb(kb, clones, str(kb_path))
kb, clones = graph.load_kb(str(kb_path))
backend = llm.MockLlmBackend.from_script(str(cases / "mock_script.json"))
report = evaluate.run_dataset(evaluate.load_manifest(str(cases / "manifest.json")), kb,
                              repair.RepairConfig(backend=backend), k_values=[3])
sys.stdout.write(report.render())
if "requests" in sys.modules:
    sys.exit("requests was imported")
"""


def test_a_local_build_save_load_and_evaluate_import_no_http_client(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", _LOCAL_RUN, str(CORPUS), str(EVAL_CASES),
         str(tmp_path / "kb.scpk")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=120)
    assert result.returncode == 0, result.stderr
    # the run went the whole way: it printed the golden report
    assert result.stdout == (GOLDEN / "evaluation_report.txt").read_text()
