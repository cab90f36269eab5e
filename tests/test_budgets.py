"""The README's table of resource budgets, checked against the code, and
the one helper that raises every resource-guard refusal."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "buchi"
BUDGET = re.compile(r"MAX_\w+|\w+_BUDGET")
ROW = re.compile(r"^\| `(\w+)` \| `([\w.]+)` \| ([\d,]+) \|", re.MULTILINE)


def readme_table() -> dict[str, tuple[str, int]]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return {name: (module, int(value.replace(",", "")))
            for name, module, value in ROW.findall(readme)}


def package_trees():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def budgets_in_code() -> dict[str, tuple[str, int]]:
    """Every module-level MAX_* and *_BUDGET assignment in the package,
    as name -> (module, current value)."""
    found = {}
    for path, tree in package_trees():
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                if isinstance(target, ast.Name) and BUDGET.fullmatch(target.id):
                    value = getattr(importlib.import_module(f"buchi.{module}"), target.id)
                    found[target.id] = (module, value)
    return found


def guard_calls() -> list[tuple[Path, ast.Call]]:
    return [(path, node) for path, tree in package_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "guard"]


def test_readme_table_lists_every_budget_with_its_value():
    code = budgets_in_code()
    assert len(code) >= 20
    assert readme_table() == code


def test_each_guard_call_names_the_constant_it_is_given():
    # guard("NAME", cost, NAME, what, ...): the name in the message is the
    # constant that bounds the cost, and that constant is a README row
    table = readme_table()
    calls = guard_calls()
    assert len(calls) >= 22
    for path, call in calls:
        name, limit = call.args[0], call.args[2]
        where = f"{path.name}:{call.lineno}"
        assert isinstance(name, ast.Constant) and isinstance(limit, ast.Name), where
        assert name.value == limit.id and name.value in table, where


def test_every_budget_is_checked_by_a_guard_call():
    assert {call.args[0].value for _, call in guard_calls()} == set(readme_table())


def refusal_strings(tree: ast.AST) -> list[ast.Constant]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and "(resource guard)" in node.value]


def test_only_the_helper_formats_a_refusal():
    init = PACKAGE / "__init__.py"
    helper = next(node for node in ast.parse(init.read_text(encoding="utf-8")).body
                  if isinstance(node, ast.FunctionDef) and node.name == "guard")
    assert refusal_strings(helper)
    for path, tree in package_trees():
        for node in refusal_strings(tree):
            assert path == init and helper.lineno <= node.lineno <= helper.end_lineno, \
                f"{path.name}:{node.lineno}"
