"""Shared fixtures: the corpus knowledge base and a network guard.

Every test runs with outbound sockets disabled so the suite stays
hermetic; the remote providers are only ever exercised against that
guard. Hypothesis properties run derandomized, with no example database
and no deadline, so every run checks the same examples and no failure
from an earlier run is replayed.
"""

import socket
from pathlib import Path

import pytest
from hypothesis import settings

from scpatcher.embedding import HashingEmbedder
from scpatcher.graph import build_kb, save_kb

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
DETECTORS = FIXTURES / "detectors"
EVAL_CASES = FIXTURES / "eval_cases"
ORACLES = FIXTURES / "oracles"
GOLDEN = FIXTURES / "golden"

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session", autouse=True)
def no_network():
    """Fail fast if anything tries to open a socket."""
    def refuse(*args, **kwargs):
        raise RuntimeError("network access attempted during tests")

    saved = (socket.socket.connect, socket.create_connection)
    socket.socket.connect = refuse
    socket.create_connection = refuse
    try:
        yield
    finally:
        socket.socket.connect, socket.create_connection = saved


@pytest.fixture(scope="session")
def corpus_paths():
    paths = sorted(CORPUS.glob("*.sol"))
    assert len(paths) == 10
    return paths


@pytest.fixture(scope="session")
def kb(corpus_paths):
    """(graph, clones, report) built once from the ten-file corpus."""
    return build_kb(corpus_paths, HashingEmbedder(256))


@pytest.fixture(scope="session")
def kb_file(kb, tmp_path_factory):
    graph, clones, _ = kb
    path = tmp_path_factory.mktemp("kb") / "corpus.scpk"
    save_kb(graph, clones, path)
    return path
