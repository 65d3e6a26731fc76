"""Chat-completion backends: a remote HTTP client and a scripted mock.

The mock backend replays canned responses from a JSON rule script so the
whole repair pipeline runs deterministically with no network. Rules are
ordered; each matches on the exact prompt digest or on substrings of the
prompt text, and the first match wins. The remote backend imports
``requests`` on first use, so a run with the mock loads no HTTP client.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .model import CodedError

if TYPE_CHECKING:
    import requests

LLM_URL_VAR = "SCPATCHER_LLM_URL"
LLM_KEY_VAR = "SCPATCHER_LLM_KEY"

DEFAULT_TEMPERATURE = 0.0
DEFAULT_MAX_TOKENS = 4096


class LlmError(CodedError):
    """Backend failure.

    ``code`` is one of ``NotConfigured`` (no endpoint URL), ``Timeout``,
    ``HttpStatus`` (transport failure, non-200 reply or malformed payload),
    ``EmptyResponse``, or ``ScriptMiss``.
    """


@dataclass(frozen=True)
class LlmRequest:
    messages: tuple[tuple[str, str], ...]  # (role, content) pairs
    model: str = "default"
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS

    def flat_text(self) -> str:
        return "\n\n".join(content for _, content in self.messages)


@dataclass(frozen=True)
class LlmResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_ms: float = 0.0


@dataclass(frozen=True)
class MockRule:
    """One scripted response; matches on digest or on every substring."""

    response: str
    digest: Optional[str] = None
    substrings: tuple[str, ...] = ()

    def matches(self, prompt_digest: str, prompt_text: str) -> bool:
        if self.digest is not None:
            return self.digest == prompt_digest
        if self.substrings:
            return all(s in prompt_text for s in self.substrings)
        return True  # catch-all rule


@dataclass
class MockLlmBackend:
    """Deterministic scripted backend for hermetic tests."""

    rules: list[MockRule] = field(default_factory=list)

    @classmethod
    def from_script(cls, path: str) -> "MockLlmBackend":
        """Load rules from a JSON script file.

        Format: {"rules": [{"match": {"digest": HEX} or
        {"substring": S} or {"substrings": [S, ...]} or omitted (catch-all),
        "response": TEXT}, ...]}. Rules apply in order; first match wins.
        Any other shape raises ``ValueError``, naming the rule's position
        where there is one: a script that is not an object with a "rules"
        list, a rule or its "match" that is not an object, a "response",
        "digest" or "substring" that is not a string, or "substrings" that is
        not a list of strings. An empty "match" is a catch-all.
        """
        with open(path, "r", encoding="utf-8") as handle:
            try:
                script = json.load(handle)
            except RecursionError:
                raise ValueError(f"{path}: script is nested too deeply") from None
        items = script.get("rules") if isinstance(script, dict) else None
        if not isinstance(items, list):
            raise ValueError(f"{path}: script must be an object with a \"rules\" list")
        rules = []
        for position, raw in enumerate(items):
            where = f"{path}: rule {position}"
            if not isinstance(raw, dict):
                raise ValueError(f"{where}: must be an object")
            match = raw.get("match", {})
            if not isinstance(match, dict):
                raise ValueError(f"{where}: \"match\" must be an object")
            texts = {"response": raw.get("response"),
                     **{key: match[key] for key in ("digest", "substring") if key in match}}
            for key, value in texts.items():
                if not isinstance(value, str):
                    raise ValueError(f"{where}: \"{key}\" must be a string")
            substrings = match.get("substrings", [])
            if not isinstance(substrings, list) or not all(isinstance(s, str) for s in substrings):
                raise ValueError(f"{where}: \"substrings\" must be a list of strings")
            rules.append(MockRule(
                response=texts["response"],
                digest=texts.get("digest"),
                substrings=(texts["substring"],) if "substring" in texts else tuple(substrings),
            ))
        return cls(rules=rules)

    def complete(self, request: LlmRequest, prompt_digest: str = "") -> LlmResponse:
        text = request.flat_text()
        for rule in self.rules:
            if rule.matches(prompt_digest, text):
                return LlmResponse(text=rule.response)
        raise LlmError("ScriptMiss",
                       f"no mock rule matches prompt digest {prompt_digest or '?'}")


class RemoteLlmBackend:
    """HTTP chat-completion client (OpenAI-style response shape).

    An injected ``session`` serves every thread. Without one, each thread
    that calls ``complete`` makes its own ``requests.Session`` on its first
    call, so concurrent ``evaluate`` workers share no connection pool.
    """

    def __init__(self, url: Optional[str] = None, api_key: Optional[str] = None,
                 timeout: float = 120.0, session: Optional[requests.Session] = None):
        self.url = url or os.environ.get(LLM_URL_VAR, "")
        if not self.url:
            raise LlmError("NotConfigured",
                           f"no endpoint configured (set {LLM_URL_VAR})")
        self.api_key = api_key if api_key is not None else os.environ.get(LLM_KEY_VAR)
        self.timeout = timeout
        self._session = session
        self._local = threading.local()

    def complete(self, request: LlmRequest, prompt_digest: str = "") -> LlmResponse:
        import requests

        session = self._session or getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {
            "model": request.model,
            "messages": [{"role": role, "content": content}
                         for role, content in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        started = time.monotonic()
        try:
            response = session.post(self.url, json=body, headers=headers,
                                    timeout=self.timeout)
        except requests.Timeout as exc:
            raise LlmError("Timeout", f"{self.url}: {exc}") from None
        except requests.RequestException as exc:
            raise LlmError("HttpStatus", f"{self.url}: {exc}") from None
        elapsed_ms = (time.monotonic() - started) * 1000.0
        if response.status_code != 200:
            raise LlmError("HttpStatus",
                           f"{self.url}: HTTP {response.status_code}")
        try:
            payload = response.json()
            text = payload["choices"][0]["message"]["content"]
            usage = payload.get("usage", {})
            if not isinstance(text, (str, type(None))) or not isinstance(usage, dict):
                raise TypeError("content is not a string or usage is not an object")
            prompt_tokens = int(usage.get("prompt_tokens", 0))
            completion_tokens = int(usage.get("completion_tokens", 0))
        # OverflowError: a count of Infinity or 1e400, which JSON decodes as inf
        except (ValueError, KeyError, IndexError, TypeError, OverflowError) as exc:
            raise LlmError("HttpStatus",
                           f"{self.url}: malformed completion payload ({exc})") from None
        return LlmResponse(
            text=text or "",
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency_ms=elapsed_ms,
        )
