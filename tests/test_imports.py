"""Every import in src/maxord is used by the module that makes it, so that
deleting the last use of a name also deletes its import."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "maxord"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = \
                    node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line)
              for name, line in sorted(imported.items()) if name not in used]
    assert not unused, "unused imports in %s: %s" % (path.name,
                                                      ", ".join(unused))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_private_definitions_are_used(path):
    """Every _-prefixed function, method or class is referenced in its own
    module, so that deleting its last caller also deletes it."""
    tree = ast.parse(path.read_text())
    defined = {}  # private name -> line of its definition
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
            if name.startswith("_") and not name.endswith("__"):
                defined[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    unused = ["%s (line %d)" % (name, line)
              for name, line in sorted(defined.items()) if name not in used]
    assert not unused, "unused private definitions in %s: %s" % (
        path.name, ", ".join(unused))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_private_imports(path):
    """No module imports an _-prefixed name from another: a name shared
    between modules is public."""
    private = ["%s (line %d)" % (alias.name, node.lineno)
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert not private, "private names imported in %s: %s" % (
        path.name, ", ".join(private))


# library entry points that no module of the package calls
ENTRY_POINTS = {"check_naturality"}


def test_public_definitions_are_reached():
    """Every public function, method or class is referenced by name
    somewhere in src/maxord besides its own definition, or is a library
    entry point, so that deleting its last caller also deletes it."""
    defined, used = {}, set()  # public name -> "module:line" of a definition
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.setdefault(node.name, "%s:%d" % (path.name,
                                                            node.lineno))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreached = ["%s (%s)" % (name, where)
                 for name, where in sorted(defined.items())
                 if name not in used | ENTRY_POINTS]
    assert not unreached, "public definitions that nothing reaches: %s" % (
        ", ".join(unreached))


def top_level_imports(name):
    """The maxord modules that maxord.<name> imports when it is loaded:
    its imports outside any function body."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                found.update([child.module] if child.module else
                             [alias.name for alias in child.names])
            elif isinstance(child, ast.Import):
                found.update(alias.name.split(".")[1] for alias in child.names
                             if alias.name.startswith("maxord."))
            visit(child)

    visit(ast.parse((SRC / (name + ".py")).read_text()))
    return found


def test_cli_loads_no_p_step_module_at_import():
    """Only the commands that take a p-step import orders and finitealg,
    inside their handlers; no module that importing maxord.cli loads may
    import them at its top level."""
    # a control: the walk reads the top-level imports of orders itself
    assert {"finitealg"} <= top_level_imports("orders")
    loaded, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name not in loaded:
            loaded.add(name)
            todo.extend(top_level_imports(name))
    assert {"algebras", "serialize"} <= loaded
    assert not loaded & {"orders", "finitealg"}, sorted(loaded)
