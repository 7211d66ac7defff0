"""The CI workflow selects tests that exist."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _step(name: str) -> str:
    """The text of the workflow step called ``name``, up to the next step."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    start = text.index(f"- name: {name}\n")
    end = text.find("- name:", start + 1)
    return text[start:end if end >= 0 else None]


def _test_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test")]


def test_every_lockstep_fragment_selects_a_test():
    """Each ``-k`` fragment of the lockstep bit-equality step is part of a test
    name in the files that step runs, so a renamed test cannot drop out of
    the step unnoticed."""
    step = _step("Lockstep bit-equality checks")
    files = re.findall(r"tests/test_\w+\.py", step)
    words = re.search(r'-k "([^"]*)"', step).group(1).split()
    fragments, joins = words[::2], words[1::2]
    assert files and fragments and set(joins) <= {"or"}
    names = [name.lower() for f in files for name in _test_names(ROOT / f)]
    unmatched = [frag for frag in fragments if not any(frag.lower() in n for n in names)]
    assert not unmatched, f"-k fragments that select no test: {unmatched}"
