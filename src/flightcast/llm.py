"""Chat-completions client with retries, latency capture, and a mock backend.

The real client talks to any OpenAI-style ``/chat/completions`` endpoint
through the standard library's ``urllib.request`` and measures wall-clock
latency per request. The mock backend answers
windows in-process, one result for each as a served model would give for
its prompt, with one of four scripted behaviors (a kinematic prediction
and the three classic failure modes). The mock is a test double and is
not timed: its results carry a latency of 0.0.
"""

from __future__ import annotations

import http.client
import json
import logging
import math
import os
import random
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .domain import check_integer, check_number, round_attributes
from .predictors import forecast_windows, predict_kinematic
from .prompts import PromptRecord, serialize_values
from .windowing import Window

logger = logging.getLogger(__name__)

TOKEN_ENV_VAR = "FTP_LLM_TOKEN"

#: Statuses that ask the client to come back later; ``complete`` retries them.
_RETRY_STATUSES = frozenset({429, 503})

#: Delay before the first retry, seconds; it doubles with each further attempt.
_BACKOFF_BASE_S = 1.0


@dataclass
class EndpointConfig:
    """Connection settings for a chat-completions endpoint."""

    base_url: str
    model: str
    temperature: float = 0.0
    max_tokens: int = 512
    timeout_s: float = 30.0
    retries: int = 2
    auth_token: str | None = None
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        check_integer("retries", self.retries)
        if not 0 < self.timeout_s <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout_s must be > 0 and <= threading.TIMEOUT_MAX, not {self.timeout_s!r}")
        check_number("temperature", self.temperature)
        check_integer("max_tokens", self.max_tokens, 1)
        check_integer("max_in_flight", self.max_in_flight, 1)
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"base_url must be an http:// or https:// URL, not {self.base_url!r}")
        if not parts.hostname or " " in parts.hostname or not parts.hostname.isprintable():
            raise ValueError(f"base_url must name a host, not {self.base_url!r}")
        try:
            parts.port  # raises ValueError for a port that is not a number in 0..65535
        except ValueError as exc:
            raise ValueError(f"base_url has a bad port ({exc}): {self.base_url!r}") from None
        if self.auth_token is None:
            self.auth_token = os.environ.get(TOKEN_ENV_VAR)


@dataclass(frozen=True)
class CompletionResult:
    """Verbatim response text with its end-to-end latency."""

    text: str
    latency_s: float
    attempts: int


class EndpointError(RuntimeError):
    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


def complete(record: PromptRecord, cfg: EndpointConfig) -> CompletionResult:
    """Send one prompt and return the first choice's text verbatim.

    The record must be an inference record (empty assistant). The body is
    encoded once and each attempt is one ``urllib.request.urlopen`` call,
    over a fresh connection. Transport failures are retried up to
    ``cfg.retries`` times with exponential backoff (base delay doubling,
    plus jitter). A 429 or 503 status is retried within the same budget,
    after the seconds a numeric ``Retry-After`` asks for (at most
    ``cfg.timeout_s``) or, without one, after the backoff; every other
    error status is not retried. Latency is wall clock from request send
    to full response on the successful attempt, so server-side queuing is
    included.
    """
    if record.assistant:
        raise ValueError("inference record must have an empty assistant part")
    url = cfg.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    if cfg.auth_token:
        headers["Authorization"] = f"Bearer {cfg.auth_token}"
    payload = {
        "model": cfg.model,
        "messages": [
            {"role": "system", "content": record.system},
            {"role": "user", "content": record.user},
        ],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
    }
    body = json.dumps(payload, allow_nan=False).encode("utf-8")

    attempts = cfg.retries + 1
    for attempt in range(1, attempts + 1):
        request = urllib.request.Request(url, data=body, headers=headers, method="POST")
        start = time.perf_counter()
        try:
            status, reply_headers, raw = _post(request, cfg.timeout_s)
        except (OSError, http.client.HTTPException) as exc:
            if attempt == attempts:
                reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
                failure = "timeout" if isinstance(reason, TimeoutError) else "endpoint unreachable"
                raise EndpointError(f"{failure} after {attempt} attempt(s): {exc}", attempt) from exc
            _backoff_sleep(attempt)
            continue
        latency = time.perf_counter() - start
        if status in _RETRY_STATUSES and attempt < attempts:
            delay = _retry_after_s(reply_headers.get("Retry-After"))
            if delay is None:
                _backoff_sleep(attempt)
            else:
                time.sleep(min(delay, cfg.timeout_s))
            continue
        if status != 200:
            raise EndpointError(f"endpoint returned status {status}: {_excerpt(raw)}", attempt)
        try:
            text = json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise EndpointError(f"malformed response body: {_excerpt(raw)}", attempt) from exc
        return CompletionResult(text=text if text is not None else "", latency_s=latency, attempts=attempt)
    raise AssertionError("unreachable")


def _post(request: urllib.request.Request, timeout_s: float) -> tuple[int, http.client.HTTPMessage, bytes]:
    """Send one request; return its status, headers and whole body, for an error status too."""
    try:
        response = urllib.request.urlopen(request, timeout=timeout_s)
    except urllib.error.HTTPError as exc:
        response = exc
    with response:
        return response.status, response.headers, response.read()


def _excerpt(raw: bytes) -> str:
    return raw.decode("utf-8", errors="replace")[:200]


def _retry_after_s(value: str | None) -> float | None:
    """The seconds a numeric Retry-After asks for; None when it is missing or holds a date."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


def _backoff_sleep(attempt: int) -> None:
    delay = _BACKOFF_BASE_S * 2 ** (attempt - 1)
    delay += random.uniform(0, delay * 0.1)
    logger.debug("retrying in %.2fs (attempt %d failed)", delay, attempt)
    time.sleep(delay)


def complete_many(records: Sequence[PromptRecord], cfg: EndpointConfig) -> list[CompletionResult]:
    """Run prompts concurrently up to the in-flight limit, preserving order."""
    with ThreadPoolExecutor(max_workers=cfg.max_in_flight) as pool:
        return list(pool.map(lambda r: complete(r, cfg), records))


# --- Mock backend ------------------------------------------------------------


class MockBehavior(Enum):
    KINEMATIC = "kinematic"
    EMPTY = "empty"
    GARBLED = "garbled"
    SIGN_FLIP = "sign-flip"


_GARBLED_TEXT = (
    "The aircraft is expected to keep following its current route near "
    "(103.2, 30.5, 10000) over the coming minutes."
)


def mock_complete(
    windows: Sequence[Window], behavior: MockBehavior = MockBehavior.KINEMATIC
) -> list[CompletionResult]:
    """Deterministic in-process stand-in for a served model, one result per window, in order.

    KINEMATIC dead-reckons from each window's input columns, all windows
    in one forecast; EMPTY returns nothing; GARBLED returns prose with a
    single 3-field tuple; SIGN_FLIP returns the kinematic answer with
    longitude signs negated. Every result has latency 0.0 and one attempt.
    """
    if behavior in (MockBehavior.EMPTY, MockBehavior.GARBLED):
        texts = ["" if behavior is MockBehavior.EMPTY else _GARBLED_TEXT] * len(windows)
    else:
        blocks = forecast_windows(lambda inputs, horizon: round_attributes(predict_kinematic(inputs, horizon)),
                                  windows)
        if behavior is MockBehavior.SIGN_FLIP:
            for block in blocks:
                block[0] = -block[0]
        texts = list(map(serialize_values, blocks))
    return [CompletionResult(text, 0.0, 1) for text in texts]
