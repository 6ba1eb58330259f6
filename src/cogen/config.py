"""Application configuration: JSON file with a strict schema.

Unknown keys and mistyped values are rejected, referenced files must
exist at load time, and the only environment overrides are COGEN_API_KEY
(external service credentials) and COGEN_LISTEN (service listen address).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .backends import BackendKind, NGramBackend, Role, TableBackend, train_ngram
from .core import SAMPLING_TYPES, SamplingConfig, Vocab
from .corpus import check_fields, parse_object
from .errors import InvalidConfigError
from .fusion import TOP_K
from .tokenizer import EOS_TOKEN, UNK_TOKEN

LISTEN_ENV = "COGEN_LISTEN"

_TOP_FIELDS = {
    "backends": dict,
    "templates_dir": str,
    "sampling": dict,
    "service_address": str,
    "audit": bool,
    "external": dict,
}
_BACKEND_FIELDS = {"kind": str, "role": str, "params": str}
_EXTERNAL_FIELDS = {"endpoint": str, "top_k": int}
# The fields of each params file, and of the vocab and table entries in it.
_PARAMS_FIELDS = {
    BackendKind.TABLE: {"vocab": dict, "rules": list[dict], "paths": list[list[str]],
                        "keyed": list[dict], "default": dict[str, float]},
    BackendKind.NGRAM: {"n": int, "alpha": float, "corpus": list[str], "vocab": dict},
}
_PARAMS_REQUIRED = {BackendKind.TABLE: set(), BackendKind.NGRAM: {"corpus"}}
_VOCAB_FIELDS = {"tokens": list[str], "eos": str, "unk": str}
_RULE_FIELDS = {"prefix": list[str], "next": dict[str, float]}
_KEYED_FIELDS = {"needle": str, "path": list[str]}


@dataclass(frozen=True)
class BackendSpec:
    name: str
    kind: BackendKind
    role: Role
    params_path: Path


@dataclass(frozen=True)
class AppConfig:
    backends: dict[str, BackendSpec]
    sampling: SamplingConfig
    templates_dir: Path | None
    service_address: str
    audit: bool
    external_endpoint: str | None
    external_top_k: int

    def backend(self, name: str) -> BackendSpec:
        spec = self.backends.get(name)
        if spec is None:
            raise InvalidConfigError(f"config has no backend named {name!r}")
        return spec


def load_config(path) -> AppConfig:
    path = Path(path)
    obj = check_fields(
        parse_object(path.read_bytes(), InvalidConfigError, f"config file {path}"),
        _TOP_FIELDS,
        InvalidConfigError,
    )
    base = path.parent

    backends: dict[str, BackendSpec] = {}
    raw_backends = obj.get("backends", {})
    # Any name may name a backend; each must map to an object.
    check_fields(raw_backends, dict.fromkeys(raw_backends, dict), InvalidConfigError, "backends")
    for name, spec in raw_backends.items():
        check_fields(spec, _BACKEND_FIELDS, InvalidConfigError, f"backends.{name}", {"kind", "role"})
        try:
            kind = BackendKind(spec["kind"])
            role = Role(spec["role"])
        except ValueError as exc:
            raise InvalidConfigError(f"backends.{name}: bad kind/role: {exc}") from exc
        params = spec.get("params")
        params_path = base / params if params else None
        if kind in (BackendKind.TABLE, BackendKind.NGRAM):
            if params_path is None or not params_path.is_file():
                raise InvalidConfigError(
                    f"backends.{name}: params file {params_path} does not exist"
                )
        backends[name] = BackendSpec(
            name=name, kind=kind, role=role, params_path=params_path
        )

    sampling = SamplingConfig(
        **check_fields(obj.get("sampling", {}), SAMPLING_TYPES, InvalidConfigError, "sampling")
    )

    templates = obj.get("templates_dir")
    templates_dir = base / templates if templates else None
    if templates_dir is not None and not templates_dir.is_dir():
        raise InvalidConfigError(f"templates_dir {templates_dir} does not exist")

    external = check_fields(obj.get("external", {}), _EXTERNAL_FIELDS, InvalidConfigError, "external")
    external_top_k = external.get("top_k", TOP_K)
    if external_top_k < 1:
        raise InvalidConfigError(f"external.top_k must be >= 1, not {external_top_k}")

    return AppConfig(
        backends=backends,
        sampling=sampling,
        templates_dir=templates_dir,
        service_address=os.environ.get(LISTEN_ENV) or obj.get("service_address", "127.0.0.1:7341"),
        audit=obj.get("audit", True),
        external_endpoint=external.get("endpoint"),
        external_top_k=external_top_k,
    )


def _vocab_from_obj(obj: dict, error) -> Vocab:
    check_fields(obj, _VOCAB_FIELDS, error, "vocab")
    tokens, eos, unk = obj.get("tokens", []), obj.get("eos", EOS_TOKEN), obj.get("unk", UNK_TOKEN)
    if eos not in tokens or unk not in tokens:
        raise error(f"vocab tokens must be strings that include {eos!r} and {unk!r}")
    return Vocab(tokens=tuple(tokens), eos_id=tokens.index(eos), unk_id=tokens.index(unk))


def build_backend(spec: BackendSpec):
    """Instantiate a table or n-gram backend from its params file, read
    as strictly as the config. Table params: {"vocab": {"tokens", "eos",
    "unk"}, "rules": [{"prefix", "next"}], "paths", "keyed": [{"needle",
    "path"}], "default"}. N-gram params: {"n", "alpha", "corpus",
    "vocab"}, trained on "corpus" at load over "vocab" or its own."""
    schema = _PARAMS_FIELDS.get(spec.kind)
    if schema is None:
        raise InvalidConfigError(f"{spec.kind.value} backends are built per session, not from params")
    what = f"params file {spec.params_path}"

    def error(message: str) -> InvalidConfigError:
        return InvalidConfigError(f"{what}: {message}")

    obj = parse_object(spec.params_path.read_bytes(), InvalidConfigError, what)
    check_fields(obj, schema, error, required=_PARAMS_REQUIRED[spec.kind])
    if spec.kind == BackendKind.NGRAM:
        vocab = _vocab_from_obj(obj["vocab"], error) if "vocab" in obj else None
        model = train_ngram(obj["corpus"], obj.get("n", 2), float(obj.get("alpha", 1.0)), vocab)
        return NGramBackend(model, spec.role)
    vocab = _vocab_from_obj(obj.get("vocab", {}), error)

    def entries(key: str, fields: dict) -> list[dict]:
        """The ``key`` list's objects, each checked by ``fields``, all required."""
        return [
            check_fields(entry, fields, error, f"{key}[{i}]", fields.keys())
            for i, entry in enumerate(obj.get(key, []))
        ]

    rules = {tuple(r["prefix"]): r["next"] for r in entries("rules", _RULE_FIELDS)}
    for path_tokens in obj.get("paths", []):
        rules.update(TableBackend.path_rules(vocab, path_tokens))
    keyed = [
        (entry["needle"], TableBackend.path_rules(vocab, entry["path"]))
        for entry in entries("keyed", _KEYED_FIELDS)
    ]
    try:
        return TableBackend(vocab, spec.role, rules=rules, keyed=keyed, default=obj.get("default"))
    except InvalidConfigError as exc:  # a token outside the vocab, or no mass
        raise error(str(exc)) from exc
