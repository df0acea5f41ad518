"""The README's "Library use" snippet runs and gives the values it documents,
its scenario schema is the one the loader reads, its layout names every
module, and the package exports only names that have a caller."""

import ast
import json
import math
import re
from pathlib import Path

import fixpoint
from fixpoint.cli import main
from fixpoint.scenarios import EXPECTED, PIECES, SCENARIO, SETS

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_snippet_runs():
    env: dict = {}
    exec(compile(_library_use(), "README.md", "exec"), env)
    assert abs(env["q"].c - 0.25) <= 1e-6
    assert abs(env["srp"].value - 2 / math.sqrt(3)) <= 1e-3
    regularity = env["regularity"]
    for p, seed, est in zip(env["pairs"], [0, 1, 2], env["stacked"], strict=True):
        alone = regularity.estimate_sr_prime(p.A, p.B, p.base_point, 0.1,
                                             intersection=p.intersection, seed=seed)
        assert est.value == alone.value > 0


def _package_names(tree: ast.Module, package: str) -> set:
    """The names a module imports from the package's modules, the modules it
    imports among them, and the attributes it reads of those modules: a name
    of the package spelled by a local variable or an unrelated attribute
    does not count."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(package)):
            if node.module:  # from .geometry import ... uses the module geometry
                names.add(node.module.rpartition(".")[2])
            for alias in node.names:
                names.add(alias.name)
                if node.module in (None, package):  # from . import regularity as reg
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(node.attr)
    return names


def _module_level_loads(tree: ast.Module) -> set:
    """The names a module's own top-level statements read, outside any
    function or class body, as engine.OPERATORS reads DouglasRachford: each
    is the module's global of that name, never a local variable."""
    return {n.id for node in tree.body if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_export_has_a_caller():
    # a name fixpoint exports is imported, or read off an imported module, by
    # another module of the package or by the README's "Library use" block,
    # or read at the top level of a module of the package
    used = _package_names(ast.parse(_library_use()), "fixpoint")
    for path in (README.parent / "src" / "fixpoint").glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= _package_names(tree, "fixpoint") | _module_level_loads(tree)
    assert [name for name in fixpoint.__all__ if name not in used] == []


def test_schema_section_lists_the_loaders_keys():
    section = README.read_text(encoding="utf-8").split("## Scenario JSON schema", 1)[1]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    assert set(example) == set(SCENARIO)
    # the README word for each kind of expected value
    words = {"number": "number", "bool": "`true`/`false`", "count": "integer >= 0",
             "point": "point", "points": "non-empty list of points"}
    table = section.split("| key | value | the scenario needs |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.strip().splitlines()[1:]]
    kinds = {key: value.strip() for keys, value in rows for key in re.findall(r"`(\w+)`", keys)}
    assert kinds == {key: words[kind] for key, (kind, _) in EXPECTED.items()}


def _schema_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Scenario JSON schema", 1)[1]
    return re.search(r"```json\n(.*?)```", section, re.S).group(1)


def test_schema_example_runs_and_meets_its_expectation(tmp_path):
    path, out = tmp_path / "my_pair.json", tmp_path / "o"
    path.write_text(_schema_example(), encoding="utf-8")
    assert main(["run", str(path), "--out", str(out), "--samples", "16"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert math.isfinite(report["estimates"]["sr_prime"])


def _table(section: str, header: str) -> list[tuple[str, list[str]]]:
    """Each row of the table under the header: its first cell's name and the
    names its second cell lists, in order."""
    table = section.split(header, 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.strip().splitlines()[1:]]
    return [(re.fullmatch(r" `(\w+)` ", name).group(1), re.findall(r"`(\w+)`", keys))
            for name, keys in rows]


def test_set_tables_list_the_readers_variants_and_keys_in_order():
    section = README.read_text(encoding="utf-8").split("## Scenario JSON schema", 1)[1]
    assert _table(section, "| variant | keys, in order |") == [
        (variant, list(keys)) for variant, (_, keys) in SETS.items()]
    assert _table(section, "| kind | keys, in order |") == [
        (kind, list(keys)) for kind, (_, keys) in PIECES.items()]


def test_layout_names_every_module():
    section = README.read_text(encoding="utf-8").split("## Layout", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    named = set(re.findall(r"^  (\w+\.py) ", block, re.M))
    modules = {p.name for p in (README.parent / "src" / "fixpoint").glob("*.py")}
    assert named == modules - {"__init__.py"}
