"""Every reader of JSON from outside the program goes through one parse and
one type rule: a value of the wrong JSON type, or a document nested past
the parser's depth, raises the error class of the format it came in."""

import io
import json
import re
import shutil
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogen.backends import BackendKind, Role
from cogen.config import BackendSpec, build_backend, load_config
from cogen.core import SamplingConfig
from cogen.corpus import check_fields, load_corpus
from cogen.decoder import read_trace
from cogen.errors import CorpusError, InvalidConfigError, ProtocolError
from cogen.report import read_pairs
from cogen.service import read_frame, sampling_to_wire, validate_request

FIXTURES = Path(__file__).parent / "fixtures"
DEEP_JSON = "[" * 100_000 + "]" * 100_000

CONFIG = {
    **json.loads((FIXTURES / "config.json").read_text(encoding="utf-8")),
    "templates_dir": ".",
    "external": {"endpoint": "http://127.0.0.1:1/v1", "top_k": 10},
}
CORPUS_LINE = json.loads((FIXTURES / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0])
TRACE_LINES = [
    {"mode": "logit_fusion[mean]", "seed": 0, "events": ["an event"]},
    {"step": 1, "token_id": 2, "token": "A", "w": 0.5, "p_s_top1": 0.25, "p_l_top1": 1},
]
TABLE_PARAMS = {
    "vocab": {"tokens": ["A", "B", "</s>", "<unk>"], "eos": "</s>", "unk": "<unk>"},
    "rules": [{"prefix": ["A"], "next": {"A": 0.5, "B": 1}}],
    "paths": [["B", "A"]],
    "keyed": [{"needle": "x", "path": ["B"]}],
    "default": {"A": 1.0},
}
LOGITS = {
    "version": 1,
    "kind": "logits",
    "session": "s",
    "instruction": "do",
    "prefix_ids": [0, 1],
    "top_k": 10,
}
GENERATE = {
    "version": 1,
    "kind": "generate",
    "session": "s",
    "instruction": "do",
    "prefix_ids": [0],
    "sampling": sampling_to_wire(SamplingConfig(max_new_tokens=4)),
}


def key_paths(obj, prefix=()):
    """The path to every value in ``obj``, into nested objects and arrays
    too."""
    for key, value in obj.items() if type(obj) is dict else enumerate(obj):
        yield prefix + (key,)
        if type(value) in (dict, list):
            yield from key_paths(value, prefix + (key,))


def wrong_values(value):
    """Values of JSON types that ``value``'s field does not take: a bool
    for a number, an int for a string, null, a list and a nested object."""
    wrong = [None, [{"a": 1}], {"a": {"b": 1}}]
    if type(value) in (int, float):
        wrong.append(True)
    if type(value) is str:
        wrong.append(7)
    return wrong


@st.composite
def mistyped(draw, doc):
    """``doc`` with one field's value replaced by one of another type."""
    doc = json.loads(json.dumps(doc))
    *parents, key = draw(st.sampled_from(list(key_paths(doc))))
    target = doc
    for parent in parents:
        target = target[parent]
    target[key] = draw(st.sampled_from(wrong_values(target[key])))
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("readers")
    for name in ("slm_table.json", "llm_table.json"):
        shutil.copy(FIXTURES / name, path / name)
    return path


def write_lines(path, objs):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")
    return path


def build_table(workdir, params):
    path = write_lines(workdir / "table.json", [params])
    return build_backend(BackendSpec("slm", BackendKind.TABLE, Role.SMALL_DEVICE, path))


def test_the_unchanged_documents_pass(workdir):
    write_lines(workdir / "config.json", [CONFIG])
    assert load_config(workdir / "config.json").external_top_k == 10
    records = load_corpus(write_lines(workdir / "corpus.jsonl", [CORPUS_LINE]))
    assert records[0].user_id == CORPUS_LINE["user_id"]
    assert read_trace(write_lines(workdir / "trace.jsonl", TRACE_LINES)).steps[0].p_l_top1 == 1
    assert build_table(workdir, TABLE_PARAMS).vocab.tokens[0] == "A"
    for request in (LOGITS, GENERATE):
        validate_request(request, 100)


@settings(max_examples=200, deadline=None)
@given(config=mistyped(CONFIG))
def test_a_mistyped_config_value_is_a_config_error(workdir, config):
    with pytest.raises(InvalidConfigError):
        load_config(write_lines(workdir / "config.json", [config]))


@settings(max_examples=200, deadline=None)
@given(params=mistyped(TABLE_PARAMS))
def test_a_mistyped_table_params_value_is_a_config_error(workdir, params):
    with pytest.raises(InvalidConfigError, match="table.json: "):
        build_table(workdir, params)


@settings(max_examples=100, deadline=None)
@given(line=mistyped(CORPUS_LINE))
def test_a_mistyped_corpus_field_is_a_corpus_error(workdir, line):
    with pytest.raises(CorpusError, match="line 2: "):
        load_corpus(write_lines(workdir / "corpus.jsonl", [dict(CORPUS_LINE, user_id="other"), line]))


@settings(max_examples=100, deadline=None)
@given(which=st.sampled_from([0, 1]), data=st.data())
def test_a_mistyped_trace_field_is_a_corpus_error(workdir, which, data):
    lines = list(TRACE_LINES)
    lines[which] = data.draw(mistyped(lines[which]))
    with pytest.raises(CorpusError, match=f"line {which + 1}: "):
        read_trace(write_lines(workdir / "trace.jsonl", lines))


@settings(max_examples=200, deadline=None)
@given(request=st.sampled_from([LOGITS, GENERATE]).flatmap(mistyped))
def test_a_mistyped_request_field_is_a_protocol_error(request):
    with pytest.raises(ProtocolError):
        validate_request(request, 100)


def test_bad_utf8_in_a_jsonl_file_names_the_line(workdir):
    path = workdir / "corpus.jsonl"
    path.write_bytes(json.dumps(CORPUS_LINE).encode("utf-8") + b"\n\xff\n")
    with pytest.raises(CorpusError, match="line 2: .*corpus.jsonl is not valid UTF-8 JSON"):
        load_corpus(path)


def test_unknown_trace_keys_are_rejected(workdir):
    lines = [TRACE_LINES[0], dict(TRACE_LINES[1], extra=1)]
    with pytest.raises(CorpusError, match=r"line 2: unknown keys: \['extra'\]"):
        read_trace(write_lines(workdir / "trace.jsonl", lines))


@pytest.mark.parametrize(
    "read, error",
    [
        (load_config, InvalidConfigError),
        (load_corpus, CorpusError),
        (read_trace, CorpusError),
        (read_pairs, CorpusError),
        (lambda path: read_frame(io.BytesIO(path.read_bytes()).read), ProtocolError),
    ],
    ids=["config", "corpus", "trace", "pairs", "frame"],
)
def test_a_document_nested_past_the_parsers_depth_is_the_formats_error(workdir, read, error):
    path = workdir / "deep"
    body = DEEP_JSON.encode("ascii")
    path.write_bytes(struct.pack(">I", len(body)) + body if error is ProtocolError else body)
    with pytest.raises(error, match="nests JSON deeper than the parser allows"):
        read(path)


@pytest.mark.parametrize(
    "value, want",
    [
        (1, float), (1.5, float), (["a"], list[str]), ([], list[str]), (True, bool), ({}, dict),
        ({"a": 1, "b": 0.5}, dict[str, float]), ([["a"], []], list[list[str]]),
    ],
)
def test_the_type_rule_accepts(value, want):
    check_fields({"x": value}, {"x": want}, ValueError)


@pytest.mark.parametrize(
    "value, want, message",
    [
        (True, int, "x must be int, not bool"),
        (False, float, "x must be float, not bool"),
        (1.0, int, "x must be int, not float"),
        ("1", int, "x must be int, not str"),
        (["a", 1], list[str], "x must be list[str], not list"),
        (None, str, "x must be str, not NoneType"),
        ({"a": True}, dict[str, float], "x must be dict[str, float], not dict"),
        (["a"], dict[str, float], "x must be dict[str, float], not list"),
        ({"a": "b"}, list[str], "x must be list[str], not dict"),
    ],
)
def test_the_type_rule_rejects(value, want, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_fields({"x": value}, {"x": want}, ValueError)
