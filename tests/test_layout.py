"""Layout rules of the package source, read from its syntax trees.

Each config section reaches its reader as an argument: a function that
needs one takes it without a default, so the ``CampaignConfig`` built from
the campaign's YAML is the only home of a section's defaults. Every
name is imported from the module that defines it, as the package
docstring states. ``design_space``, which the other modules build on,
imports none of them. And outside ``noise`` the package reaches a cell's
noise law only through a ``NoiseSpec`` and a layer's ``CellNoise``.
"""

import ast
import dataclasses
import importlib
import typing
from pathlib import Path

import reramopt
from reramopt.config import CampaignConfig

SRC = Path(reramopt.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))

# The section classes: CampaignConfig's field types that are dataclasses.
SECTIONS = tuple(t for t in typing.get_type_hints(CampaignConfig).values() if dataclasses.is_dataclass(t))


def _tree(stem: str) -> ast.Module:
    return ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))


def _resolve(node: ast.expr, namespace: dict):
    """The object that a name or dotted name refers to in ``namespace``, else None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


def _is_section(node: ast.expr, namespace: dict) -> bool:
    """Whether ``node`` builds a section, or names one that is built."""
    if isinstance(node, ast.Call):
        cls = _resolve(node.func, namespace)
        return isinstance(cls, type) and issubclass(cls, SECTIONS)
    return isinstance(_resolve(node, namespace), SECTIONS)


def _defined_names(tree: ast.Module) -> set[str]:
    """The names that a module's top level defines rather than imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_no_default_or_constant_is_a_section():
    # A section built in a signature or at module level is a second home
    # for its defaults, and a caller that leaves it out silently gets them.
    assert {"NoiseSpec", "MlpSpec", "HwCostParams", "GpConfig", "SpaceBounds"} <= {c.__name__ for c in SECTIONS}
    found = []
    for stem in MODULES:
        tree = _tree(stem)
        namespace = vars(importlib.import_module(f"reramopt.{stem}"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
                found += [f"{stem}.py:{d.lineno} default" for d in defaults if _is_section(d, namespace)]
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if _is_section(node.value, namespace):
                    found.append(f"{stem}.py:{node.lineno} constant")
    assert found == []


def test_names_are_imported_from_their_defining_module():
    found = []
    for stem in MODULES:
        for node in ast.walk(_tree(stem)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None:
                defined = _defined_names(_tree(node.module))
                found += [
                    f"{stem}.py:{node.lineno} {alias.name} from .{node.module}"
                    for alias in node.names
                    if alias.name not in defined
                ]
    assert found == []


def test_design_space_imports_no_package_module():
    # An import back into the package, even a lazy one in a function,
    # would make an import cycle.
    found = [
        f"design_space.py:{node.lineno}"
        for node in ast.walk(_tree("design_space"))
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "reramopt")
        or isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "reramopt" for alias in node.names)
    ]
    assert found == []


def test_outside_noise_only_the_spec_and_the_cell_noise_are_imported_from_it():
    # The noise module itself, imported whole, would reach every formula.
    found = []
    for stem in set(MODULES) - {"noise"}:
        for node in ast.walk(_tree(stem)):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, "noise"), (0, "reramopt.noise")):
                names = [alias.name for alias in node.names if alias.name not in {"NoiseSpec", "CellNoise"}]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names if alias.name.split(".")[-1] == "noise"]
            else:
                continue
            found += [f"{stem}.py:{node.lineno} {name}" for name in names]
    assert found == []
