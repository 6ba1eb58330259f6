"""Every public function, class and method of ``src/cogen`` has a caller
outside the tests.

A definition counts as called when a module of ``src/cogen`` or of the
benchmark harness under ``perfbench`` names it: as a bare name, as an
attribute or in an import. Test modules do not count, so an API that only
tests use fails here unless ``TEST_ONLY`` lists it with the reason it
stays. The check is by name, so a name that some other definition shares
counts as used; it errs toward passing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cogen"
CALLERS = (PACKAGE, ROOT / "perfbench")

TEST_ONLY = {
    "softmax": "builds the dense distributions the tests feed in",
    "TableBackend.from_path": "builds the scripted backends the tests decode with",
    "perplexity": "the reference scorer that fused scoring is checked against",
    "Splitmix64.uniform": "the scalar reference for Splitmix64.uniforms",
    "build_judge_prompt": "its renders are pinned by the acceptance goldens",
    "parse_rating": "its parsing is pinned by the acceptance goldens",
}


def public_definitions() -> dict[str, str]:
    """Qualified name -> defining file, for each public module-level
    function and class and each public method of such a class."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = path.name
    return found


def names_used() -> set[str]:
    """Every name, attribute and import alias in the calling modules."""
    used = set()
    for folder in CALLERS:
        for path in folder.rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update(node.name.split("."))
                    if node.asname:
                        used.add(node.asname)
    return used


def test_every_public_definition_has_a_caller():
    used = names_used()
    uncalled = sorted(
        f"{qualified} ({path})"
        for qualified, path in public_definitions().items()
        if qualified.rpartition(".")[2] not in used and qualified not in TEST_ONLY
    )
    assert not uncalled, f"public API that only tests use: {uncalled}"


def test_test_only_list_names_uncalled_definitions():
    definitions = public_definitions()
    used = names_used()
    for qualified, reason in TEST_ONLY.items():
        assert qualified in definitions, f"{qualified} is gone; drop it from TEST_ONLY"
        assert qualified.rpartition(".")[2] not in used, (
            f"{qualified} has a caller now; drop it from TEST_ONLY ({reason})"
        )
