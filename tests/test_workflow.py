"""The CI workflow names the known acceptance failures by test name; a
rename there or in tests/test_acceptance.py must fail here, not only in CI."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return fh.read()


def test_expected_failures_in_the_workflow_are_acceptance_tests():
    workflow = _read(".github", "workflows", "tier1.yml")
    found = re.search(r'f"tests\.test_acceptance::test_criterion_\{name\}"'
                      r'\s*for name in \(([^)]*)\)', workflow)
    assert found, "tier1.yml no longer lists the expected failures"
    names = [f"test_criterion_{name}"
             for name in re.findall(r'"([^"]+)"', found.group(1))]
    assert len(names) == 3      # criteria 1, 2 and 4
    tree = ast.parse(_read("tests", "test_acceptance.py"))
    tests = {node.name for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    assert set(names) <= tests
