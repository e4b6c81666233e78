"""The package keeps only what runs: every public name has a caller.

A public top-level function, class or constant in ``src/adiabatic_sim``
must be referenced by an ``ast.Name`` node, and a public method of a public
class by an ``ast.Attribute`` node, somewhere in the package outside its own
definition and ``__init__.py``.  Docstrings and comments do not count: the
check matches syntax nodes, not text.  (An attribute such as
``args.two_level`` is no call of the function ``two_level``, hence the split
by node kind.)  Methods of private classes are skipped: ``cli._Parser.error``
is an argparse override that argparse calls.  A name that only tests call,
the acceptance suite's references among them, belongs in
``tests/helpers.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adiabatic_sim"


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    """(qualified name, defining node, referencing node type) for each public
    top-level name and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node, ast.Name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield f"{node.name}.{item.name}", item, ast.Attribute
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _public(target.id):
                    yield target.id, node, ast.Name


def _references(tree: ast.Module):
    """(node type, referenced name, line) for every Name and Attribute node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield ast.Name, node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield ast.Attribute, node.attr, node.lineno


def unreferenced_names() -> list:
    """Qualified public names of the package that nothing outside their definition uses."""
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    refs = {stem: list(_references(tree)) for stem, tree in modules.items()}
    missing = []
    for stem, tree in modules.items():
        for qualname, node, kind in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            span = range(node.lineno, node.end_lineno + 1)
            used = any(
                ref_kind is kind and ref == name and (other != stem or line not in span)
                for other, module_refs in refs.items()
                for ref_kind, ref, line in module_refs
            )
            if not used:
                missing.append(f"{stem}.{qualname}")
    return missing


def test_every_public_name_has_a_caller():
    missing = unreferenced_names()
    assert not missing, f"public names with no caller in src/: {', '.join(missing)}"


def test_no_problem_fork_below_the_readout():
    # below the readout a problem is an oracle with n inputs and m outputs:
    # the Hamiltonian and evolution layers name neither problem, and the
    # branch pair depends on the schedule alone
    forks = []
    for stem in ("hamiltonians", "evolution"):
        for node in ast.walk(ast.parse((PACKAGE / f"{stem}.py").read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith(("bv_", "simon_")):
                forks.append(f"{stem}.{node.name}")
            elif isinstance(node, ast.Constant) and node.value in ("bv", "simon"):
                forks.append(f"{stem}.py:{node.lineno} {node.value!r}")
    assert not forks, f"problem forks below the readout: {', '.join(forks)}"
    protocols = ast.parse((PACKAGE / "protocols.py").read_text())
    (branch_pair,) = (node for node in protocols.body
                      if isinstance(node, ast.FunctionDef) and node.name == "branch_pair")
    args = branch_pair.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["total_time", "steps"]
    assert args.vararg is None and args.kwarg is None
