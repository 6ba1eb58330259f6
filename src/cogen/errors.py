"""Exception hierarchy shared across the engine.

The CLI maps these onto exit codes: usage problems exit 1, data/contract
problems exit 2, transport problems exit 3, also when they abort a
session midway.
"""

from __future__ import annotations


class CogenError(Exception):
    """Base class for all engine errors."""


class InvalidInputError(CogenError):
    """An operation received arguments outside its stated domain."""


class InvalidConfigError(CogenError):
    """A configuration value violates its constraints."""


class InvalidDistributionError(CogenError):
    """A probability distribution failed validation."""


class IncompatibleVocabError(CogenError):
    """Two components that must share a vocabulary do not."""


class PrivacyContractError(CogenError):
    """Private context was routed toward a context-blind backend."""


class TemplateError(CogenError):
    """A prompt template could not be rendered."""


class SketchParseError(CogenError):
    """No numbered skeleton points could be parsed from model output."""

    def __init__(self, message: str, raw_text: str = "") -> None:
        super().__init__(message)
        self.raw_text = raw_text


class RatingParseError(CogenError):
    """A judge reply carried no in-range ``Rating: [[N]]`` marker."""


class CorpusError(CogenError):
    """An input data file (corpus, scores, judgments, pairs or trace)
    failed schema validation."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ModelIOError(CogenError):
    """A parameter container could not be read or written."""


class TransportError(CogenError):
    """A network operation failed.

    ``failed_step`` is the decode step it failed, which the decode loop
    notes on its way out (1 for a call that precedes the first step), so
    a session error can name it.
    """

    failed_step = 1

    def __init__(self, message: str, retryable: bool = True) -> None:
        super().__init__(message)
        self.retryable = retryable


class ProtocolError(CogenError):
    """A wire frame violated the protocol."""


class ServiceStartupError(CogenError):
    """The logit service could not start (e.g. bind failure)."""


class SessionError(CogenError):
    """A generation session aborted mid-stream.

    The failure itself is ``__cause__``, which ``raise ... from`` sets; a
    trace the caller passed to ``decode`` holds what was emitted before it.
    """
