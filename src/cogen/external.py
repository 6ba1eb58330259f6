"""Adapter for external inference services exposing token log-probs.

Speaks the de-facto completions interface: POST a prompt with
max_tokens=1 and a logprob count, read back the top token log
probabilities. Returned tokens are mapped into the shared vocabulary
(exact match first, then with surrounding whitespace stripped); tokens
that map nowhere are dropped and their mass recorded as lost. Losing
more than half the mass flags the result as degraded so callers can
react.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import requests

from .backends import ConditioningInput, Role, check_context_blind
from .core import TokenDistribution, Vocab, _pairwise_sum
from .errors import InvalidConfigError, TransportError
from .fusion import TOP_K
from .tokenizer import Tokenizer

API_KEY_ENV = "COGEN_API_KEY"
DEGRADED_MASS_FRACTION = 0.5
HTTP_TIMEOUT_S = 30.0


class HttpCompletionsClient:
    """Thin requests-based client over one ``requests.Session``, so
    successive calls reuse one connection; its owner calls ``close``.
    Anything with the same ``complete`` method (e.g. a test stub) can
    stand in for it. The API key, if any, is read from ``COGEN_API_KEY``."""

    def __init__(self, endpoint: str) -> None:
        if not endpoint:
            raise InvalidConfigError("external service endpoint is empty")
        self.endpoint = endpoint
        self.api_key = os.environ.get(API_KEY_ENV)
        self._session = requests.Session()

    def complete(self, prompt: str, max_tokens: int, logprobs: int) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = self._session.post(
                self.endpoint,
                json={"prompt": prompt, "max_tokens": max_tokens, "logprobs": logprobs},
                headers=headers,
                timeout=HTTP_TIMEOUT_S,
            )
            response.raise_for_status()
            return response.json()
        except requests.RequestException as exc:
            raise TransportError(f"external service call failed: {exc}") from exc

    def close(self) -> None:
        self._session.close()


@dataclass(frozen=True)
class ExternalLogits:
    distribution: TokenDistribution
    lost_mass: float
    degraded: bool


def _top_logprobs(payload: dict) -> dict:
    try:
        raw = payload["choices"][0]["logprobs"]["top_logprobs"][0]
    except (KeyError, IndexError, TypeError):
        raw = None
    if not isinstance(raw, dict):
        raise TransportError(
            "external service reply lacks a choices[0].logprobs.top_logprobs[0] object", retryable=False
        )
    return raw


def external_next_logits(client, request: ConditioningInput, top_k: int, vocab: Vocab) -> ExternalLogits:
    """One next-token distribution from an external completions service;
    the emitted prefix is sent as whitespace-joined tokens."""
    if top_k < 1:
        raise InvalidConfigError("top_k must be >= 1")
    prompt = request.instruction
    if request.prefix_ids:
        prompt = prompt + " " + Tokenizer(vocab).detokenize(request.prefix_ids)
    payload = client.complete(prompt=prompt, max_tokens=1, logprobs=top_k)
    raw = _top_logprobs(payload)

    probs_by_id: dict[int, float] = {}
    lost = 0.0
    for token_text, logprob in raw.items():
        if type(logprob) not in (int, float) or not math.isfinite(logprob):
            raise TransportError(
                f"external service sent logprob {logprob!r} for {token_text!r}; "
                "expected a finite number",
                retryable=False,
            )
        p = math.exp(logprob)
        if token_text in vocab:
            tid = vocab.id_of(token_text)
        elif token_text.strip() in vocab and token_text.strip():
            tid = vocab.id_of(token_text.strip())
        else:
            lost += p
            continue
        probs_by_id[tid] = probs_by_id.get(tid, 0.0) + p
    total = sum(probs_by_id.values()) + lost
    degraded = total > 0 and lost / total > DEGRADED_MASS_FRACTION
    if not probs_by_id:
        return ExternalLogits(
            distribution=TokenDistribution.sparse([vocab.unk_id], [0.0], vocab.size),
            lost_mass=lost,
            degraded=True,
        )
    items = sorted(probs_by_id.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    probs = [min(p, 1.0) for _, p in items]
    kept = _pairwise_sum(probs)
    if kept > 1.0:
        probs = [p / kept for p in probs]
    return ExternalLogits(
        distribution=TokenDistribution.sparse([i for i, _ in items], probs, vocab.size),
        lost_mass=lost,
        degraded=degraded,
    )


class ExternalBackend:
    """Backend facade over an external completions service.

    Role is fixed to large_cloud: a request carrying context is refused,
    waiver or not, and the adapter only ever uploads the instruction plus
    the emitted prefix.
    """

    role = Role.LARGE_CLOUD

    def __init__(self, client, vocab: Vocab, top_k: int = TOP_K):
        self.client = client
        self.vocab = vocab
        self.top_k = top_k

    def next_distribution(self, request: ConditioningInput) -> TokenDistribution:
        check_context_blind(self.role, request.context)
        return external_next_logits(self.client, request, self.top_k, self.vocab).distribution
