"""The remote chat-completion backend, against a fake session, and the
mock backend's script loading."""

import json
import threading

import pytest
import requests

from scpatcher import llm
from scpatcher.llm import LlmError, LlmRequest, MockLlmBackend, RemoteLlmBackend

REQUEST = LlmRequest(messages=(("system", "be brief"), ("user", "fix it")), model="m1")


class _FakeResponse:
    def __init__(self, body, status_code=200):
        self.body = body
        self.status_code = status_code

    def json(self):
        if isinstance(self.body, Exception):
            raise self.body
        return self.body


class _FakeSession:
    """Records each post's JSON payload and answers with ``reply``."""

    def __init__(self, reply):
        self.reply = reply
        self.posts = []

    def post(self, url, json, headers, timeout):
        self.posts.append(json)
        if isinstance(self.reply, Exception):
            raise self.reply
        return self.reply


def _backend(reply):
    session = _FakeSession(reply)
    return RemoteLlmBackend(url="http://llm.test/v1", session=session), session


def test_no_url_is_not_configured(monkeypatch):
    monkeypatch.delenv(llm.LLM_URL_VAR, raising=False)
    with pytest.raises(LlmError) as err:
        RemoteLlmBackend()
    assert err.value.code == "NotConfigured"


def test_reply_with_usage_gives_text_and_counts():
    backend, session = _backend(_FakeResponse({
        "choices": [{"message": {"content": "```solidity\ncontract A {}\n```"}}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 5},
    }))
    response = backend.complete(REQUEST)
    assert response.text == "```solidity\ncontract A {}\n```"
    assert (response.prompt_tokens, response.completion_tokens) == (12, 5)
    assert response.latency_ms >= 0
    assert session.posts == [{
        "model": "m1",
        "messages": [{"role": "system", "content": "be brief"},
                     {"role": "user", "content": "fix it"}],
        "temperature": llm.DEFAULT_TEMPERATURE,
        "max_tokens": llm.DEFAULT_MAX_TOKENS,
    }]


@pytest.mark.parametrize("reply, code", [
    (_FakeResponse({"error": "boom"}, status_code=500), "HttpStatus"),
    (requests.Timeout("slow"), "Timeout"),
    (requests.ConnectionError("refused"), "HttpStatus"),
    (_FakeResponse({"choices": []}), "HttpStatus"),
    (_FakeResponse({"choices": [{"message": {"content": "x"}}], "usage": None}), "HttpStatus"),
    (_FakeResponse({"choices": [{"message": {"content": "x"}}],
                    "usage": {"prompt_tokens": "many"}}), "HttpStatus"),
    (_FakeResponse({"choices": [{"message": {"content": ["x"]}}]}), "HttpStatus"),
    # JSON's Infinity and 1e400 both decode as inf, which int() cannot convert
    (_FakeResponse({"choices": [{"message": {"content": "x"}}],
                    "usage": {"prompt_tokens": float("inf")}}), "HttpStatus"),
], ids=["http-500", "timeout", "connection", "malformed", "usage-null", "usage-not-a-count",
        "content-list", "usage-infinite"])
def test_failures_raise_llm_errors(reply, code):
    backend, session = _backend(reply)
    with pytest.raises(LlmError) as err:
        backend.complete(REQUEST)
    assert err.value.code == code
    assert len(session.posts) == 1


_OK = _FakeResponse({"choices": [{"message": {"content": "x"}}]})


@pytest.fixture
def counted_sessions(monkeypatch):
    """Every session ``requests.Session()`` makes, each a fake that answers _OK."""
    made = []

    def session():
        made.append(_FakeSession(_OK))
        return made[-1]

    monkeypatch.setattr(requests, "Session", session)
    return made


def test_without_a_session_one_thread_makes_one_on_its_first_call(counted_sessions):
    backend = RemoteLlmBackend(url="http://llm.test/v1")
    assert counted_sessions == []
    backend.complete(REQUEST)
    backend.complete(REQUEST)
    assert len(counted_sessions) == 1
    assert len(counted_sessions[0].posts) == 2


def test_without_a_session_each_thread_makes_its_own(counted_sessions):
    backend = RemoteLlmBackend(url="http://llm.test/v1")
    barrier = threading.Barrier(2, timeout=10)

    def call():
        backend.complete(REQUEST)
        barrier.wait()  # both threads are alive, and have called, at once
        backend.complete(REQUEST)

    threads = [threading.Thread(target=call) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    # each thread posted both of its calls through the one session it made
    assert [len(session.posts) for session in counted_sessions] == [2, 2]


def test_an_injected_session_serves_every_thread(counted_sessions):
    backend, session = _backend(_OK)
    barrier = threading.Barrier(2, timeout=10)

    def call():
        backend.complete(REQUEST)
        barrier.wait()

    thread = threading.Thread(target=call)
    thread.start()
    call()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(session.posts) == 2
    assert counted_sessions == []


@pytest.mark.parametrize("script, message", [
    ([], 'script must be an object with a "rules" list'),
    ({"rules": {"match": {}, "response": "x"}}, 'script must be an object with a "rules" list'),
    ({}, 'script must be an object with a "rules" list'),
    ({"rules": ["x"]}, "rule 0: must be an object"),
    ({"rules": [{"response": "x"}, {"match": ["a"], "response": "x"}]},
     'rule 1: "match" must be an object'),
    ({"rules": [{"match": {"substrings": "exploit path"}, "response": "x"}]},
     'rule 0: "substrings" must be a list of strings'),
    ({"rules": [{"match": {"substrings": ["a", 1]}, "response": "x"}]},
     'rule 0: "substrings" must be a list of strings'),
    ({"rules": [{"match": {"substring": ["a"]}, "response": "x"}]},
     'rule 0: "substring" must be a string'),
    ({"rules": [{"match": {"digest": 7}, "response": "x"}]}, 'rule 0: "digest" must be a string'),
    ({"rules": [{"match": {}, "response": ["x"]}]}, 'rule 0: "response" must be a string'),
    ({"rules": [{"match": {}}]}, 'rule 0: "response" must be a string'),
], ids=["not-an-object", "rules-not-a-list", "no-rules", "rule-not-an-object",
        "match-not-an-object", "substrings-a-string", "substrings-not-all-strings",
        "substring-a-list", "digest-not-a-string", "response-not-a-string", "no-response"])
def test_mock_script_of_the_wrong_shape_is_refused(tmp_path, script, message):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        MockLlmBackend.from_script(str(path))
    assert str(err.value) == f"{path}: {message}"


def test_mock_script_rules_match_as_written(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"rules": [
        {"match": {"digest": "d1"}, "response": "by digest"},
        {"match": {"substring": "exploit path"}, "response": "by substring"},
        {"match": {"substrings": ["a", "b"]}, "response": "by substrings"},
        {"match": {}, "response": "catch-all"},
    ]}), encoding="utf-8")
    backend = MockLlmBackend.from_script(str(path))

    def reply(text, digest=""):
        return backend.complete(LlmRequest(messages=(("user", text),)), digest).text

    assert reply("anything", "d1") == "by digest"
    assert reply("an exploit path here") == "by substring"
    assert reply("b then a") == "by substrings"
    assert reply("exploit") == "catch-all"
