"""Application configuration: JSON file with a strict schema.

Unknown keys and mistyped values are rejected, referenced files must
exist at load time, and the only environment overrides are COGEN_API_KEY
(external service credentials) and COGEN_LISTEN (service listen address).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .backends import BackendKind, NGramBackend, Role, TableBackend, train_ngram
from .core import SamplingConfig, Vocab, check_sampling_types
from .errors import InvalidConfigError
from .tokenizer import EOS_TOKEN, UNK_TOKEN

LISTEN_ENV = "COGEN_LISTEN"

_TOP_KEYS = {"backends", "templates_dir", "sampling", "service_address", "audit", "external"}
_BACKEND_KEYS = {"kind", "role", "params"}
_EXTERNAL_KEYS = {"endpoint", "top_k"}
# The keys of each params file, and of the vocab in it, with their types.
_PARAMS_KEYS = {
    BackendKind.TABLE: {"vocab": dict, "rules": list, "paths": list, "keyed": list, "default": dict},
    BackendKind.NGRAM: {"n": int, "alpha": float, "corpus": list, "vocab": dict},
}
_VOCAB_KEYS = {"tokens": list, "eos": str, "unk": str}


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
    templates_dir: Path | None = None
    service_address: str = "127.0.0.1:7341"
    audit: bool = True
    external_endpoint: str | None = None
    external_top_k: int = 10

    def backend(self, name: str) -> BackendSpec:
        spec = self.backends.get(name)
        if spec is None:
            raise InvalidConfigError(f"config has no backend named {name!r}")
        return spec


def _reject_unknown(obj: dict, allowed: set, what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise InvalidConfigError(f"unknown keys in {what}: {sorted(unknown)}")


def _typed(obj: dict, key: str, want: type, where: str = "", default=None):
    """``obj[key]``, or ``default`` when it is absent. The value must have
    exactly type ``want`` (a float may also be an int), so JSON true/false
    pass for no number."""
    if key not in obj:
        return default
    value = obj[key]
    if type(value) not in ((int, float) if want is float else (want,)):
        raise InvalidConfigError(f"{where}{key} must be {want.__name__}, not {type(value).__name__}")
    return value


def _read_object(path: Path, what: str) -> dict:
    """The JSON object in ``path``, else an ``InvalidConfigError`` naming it."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise InvalidConfigError(f"{what} {path} does not exist") from exc
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise InvalidConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{what} {path} must hold a JSON object")
    return obj


def load_config(path) -> AppConfig:
    path = Path(path)
    obj = _read_object(path, "config file")
    _reject_unknown(obj, _TOP_KEYS, "config")
    base = path.parent

    backends: dict[str, BackendSpec] = {}
    raw_backends = _typed(obj, "backends", dict, default={})
    for name in raw_backends:
        spec = _typed(raw_backends, name, dict, "backends.")
        _reject_unknown(spec, _BACKEND_KEYS, f"backends.{name}")
        try:
            kind = BackendKind(spec["kind"])
            role = Role(spec["role"])
        except (KeyError, ValueError) as exc:
            raise InvalidConfigError(f"backends.{name}: bad kind/role: {exc}") from exc
        params = _typed(spec, "params", str, f"backends.{name}.")
        params_path = base / params if params else None
        if kind in (BackendKind.TABLE, BackendKind.NGRAM):
            if params_path is None or not params_path.is_file():
                raise InvalidConfigError(
                    f"backends.{name}: params file {params_path} does not exist"
                )
        backends[name] = BackendSpec(
            name=name, kind=kind, role=role, params_path=params_path
        )

    sampling_obj = _typed(obj, "sampling", dict, default={})
    _reject_unknown(sampling_obj, {f.name for f in fields(SamplingConfig)}, "sampling")
    check_sampling_types(sampling_obj)
    sampling = SamplingConfig(**sampling_obj)

    templates = _typed(obj, "templates_dir", str)
    templates_dir = base / templates if templates else None
    if templates_dir is not None and not templates_dir.is_dir():
        raise InvalidConfigError(f"templates_dir {templates_dir} does not exist")

    external = _typed(obj, "external", dict, default={})
    _reject_unknown(external, _EXTERNAL_KEYS, "external")
    address = _typed(obj, "service_address", str, default="127.0.0.1:7341")

    return AppConfig(
        backends=backends,
        sampling=sampling,
        templates_dir=templates_dir,
        service_address=os.environ.get(LISTEN_ENV) or address,
        audit=_typed(obj, "audit", bool, default=True),
        external_endpoint=_typed(external, "endpoint", str, "external."),
        external_top_k=_typed(external, "top_k", int, "external.", default=10),
    )


def _checked(obj: dict, schema: dict, what: str) -> dict:
    """``obj``, once it holds only ``schema``'s keys, each of its type."""
    _reject_unknown(obj, set(schema), what)
    for key, want in schema.items():
        _typed(obj, key, want, f"{what}: ")
    return obj


def _vocab_from_obj(obj: dict, what: str) -> Vocab:
    _checked(obj, _VOCAB_KEYS, f"{what}: vocab")
    tokens, eos, unk = obj.get("tokens", []), obj.get("eos", EOS_TOKEN), obj.get("unk", UNK_TOKEN)
    if not all(type(t) is str for t in tokens) or eos not in tokens or unk not in tokens:
        raise InvalidConfigError(f"{what}: vocab tokens must be strings that include {eos!r} and {unk!r}")
    return Vocab(tokens=tuple(tokens), eos_id=tokens.index(eos), unk_id=tokens.index(unk))


def build_backend(spec: BackendSpec):
    """Instantiate a table or n-gram backend from its params file, read
    as strictly as the config. Table params: {"vocab": {"tokens", "eos",
    "unk"}, "rules": [{"prefix", "next"}], "paths", "keyed": [{"needle",
    "path"|"rules"}], "default"}. N-gram params: {"n", "alpha", "corpus",
    "vocab"}, trained on "corpus" at load over "vocab" or its own."""
    schema = _PARAMS_KEYS.get(spec.kind)
    if schema is None:
        raise InvalidConfigError(f"{spec.kind.value} backends are built per session, not from params")
    what = f"params file {spec.params_path}"
    obj = _checked(_read_object(spec.params_path, "params file"), schema, what)
    if spec.kind == BackendKind.NGRAM:
        corpus = obj.get("corpus")
        if corpus is None or not all(type(t) is str for t in corpus):
            raise InvalidConfigError(f"{what}: corpus must be a list of strings")
        vocab = _vocab_from_obj(obj["vocab"], what) if "vocab" in obj else None
        model = train_ngram(corpus, obj.get("n", 2), float(obj.get("alpha", 1.0)), vocab)
        return NGramBackend(model, spec.role)
    vocab = _vocab_from_obj(obj.get("vocab", {}), what)
    try:
        rules = {tuple(r["prefix"]): r["next"] for r in obj.get("rules", [])}
        for path_tokens in obj.get("paths", []):
            rules.update(TableBackend.path_rules(vocab, path_tokens))
        keyed = []
        for entry in obj.get("keyed", []):
            if "path" in entry:
                ruleset = TableBackend.path_rules(vocab, entry["path"])
            else:
                ruleset = {tuple(r["prefix"]): r["next"] for r in entry["rules"]}
            keyed.append((entry["needle"], ruleset))
        return TableBackend(vocab, spec.role, rules=rules, keyed=keyed, default=obj.get("default"))
    except (KeyError, TypeError, AttributeError) as exc:
        raise InvalidConfigError(f"{what}: malformed table entry: {exc!r}") from exc
