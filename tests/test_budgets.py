"""The README's table of resource budgets, checked against the code."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "buchi"
BUDGET = re.compile(r"MAX_\w+|\w+_BUDGET")
ROW = re.compile(r"^\| `(\w+)` \| `([\w.]+)` \| ([\d,]+) \|", re.MULTILINE)


def budgets_in_code() -> dict[str, tuple[str, int]]:
    """Every module-level MAX_* and *_BUDGET assignment in the package,
    as name -> (module, current value)."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                if isinstance(target, ast.Name) and BUDGET.fullmatch(target.id):
                    value = getattr(importlib.import_module(f"buchi.{module}"), target.id)
                    found[target.id] = (module, value)
    return found


def test_readme_table_lists_every_budget_with_its_value():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = {name: (module, int(value.replace(",", "")))
             for name, module, value in ROW.findall(readme)}
    code = budgets_in_code()
    assert len(code) >= 19
    assert table == code
