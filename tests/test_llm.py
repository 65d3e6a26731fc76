"""The remote chat-completion backend, against a fake session."""

import pytest
import requests

from scpatcher import llm
from scpatcher.llm import LlmError, LlmRequest, RemoteLlmBackend

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
], ids=["http-500", "timeout", "connection", "malformed"])
def test_failures_raise_llm_errors(reply, code):
    backend, session = _backend(reply)
    with pytest.raises(LlmError) as err:
        backend.complete(REQUEST)
    assert err.value.code == code
    assert len(session.posts) == 1
