"""README's numeric-contract table names code sites and tests that exist.

Each row of the table names the code that relies on its rule, as
``file.py:name`` under ``src/polarlab``, and the tests that pin it, as
``test_file.py::test_name`` under ``tests``. A rename that leaves a row
pointing at nothing fails here. Test ids are found with ``ast`` in the
named file, so nothing is collected or imported twice; code sites are
resolved by import, to a module attribute or a method.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SITE = re.compile(r"`(\w+)\.py:([\w.]+)`")
TEST = re.compile(r"`(test_\w+)\.py::(\w+)`")


def _contract_rows():
    """``(number, sites, tests)`` per rule of the table under the README's
    "Numeric contract" heading; a row with an empty first cell continues
    the rule above it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Numeric contract\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|") or cells[0] in ("#", "---"):
            continue
        if cells[0]:
            rows.append((int(cells[0]), [], []))
        rows[-1][1].extend(SITE.findall(line))
        rows[-1][2].extend(TEST.findall(line))
    return rows


ROWS = _contract_rows()


def test_rows_are_numbered_in_order_and_each_names_a_site_and_a_test():
    assert [number for number, _, _ in ROWS] == list(range(1, len(ROWS) + 1))
    assert all(sites and tests for _, sites, tests in ROWS)


@pytest.mark.parametrize("module, name", sorted({site for _, sites, _ in ROWS
                                                  for site in sites}))
def test_each_code_site_exists(module, name):
    obj = importlib.import_module(f"polarlab.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)


def _test_functions(filename):
    tree = ast.parse((ROOT / "tests" / f"{filename}.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("filename, name", sorted({test for _, _, tests in ROWS
                                                    for test in tests}))
def test_each_test_id_exists(filename, name):
    assert name in _test_functions(filename)


def test_rows_cited_in_the_source_exist():
    # docstrings and comments cite "contract row 3" or "contract rows 2 and
    # 4", across a line break and its comment mark too
    for path in sorted((ROOT / "src" / "polarlab").glob("*.py")):
        text = " ".join(re.sub(r"\n\s*#", " ", path.read_text()).split())
        for cited in re.findall(r"contract,? rows? (\d+(?:(?:, | and )\d+)*)", text):
            for number in re.findall(r"\d+", cited):
                assert 1 <= int(number) <= len(ROWS), f"{path.name} cites row {number}"
