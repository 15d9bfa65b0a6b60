"""Rules on the library source itself."""

import ast
import importlib
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "leecodes"


def test_library_code_has_no_assert_statements():
    # invariants must hold under `python -O` too, which strips asserts
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert list(SOURCE.glob("*.py"))
    assert not found, found


# names that make or hold a float: the float type (float(...), astype(float)),
# numpy's float dtypes, infinities and NaNs, and the true divisions and means
FLOAT_NAMES = {"float", "float16", "float32", "float64", "inf", "nan",
               "mean", "true_divide", "divide"}


def test_library_code_has_no_floating_point():
    # every computation is exact: no float literal, no true division (/ or /=)
    # and no name of FLOAT_NAMES; docstrings may still mention floats
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else None
            if name in FLOAT_NAMES:
                found.append(f"{path.name}:{node.lineno}: {name}")
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}: /")
    assert not found, found


def test_every_exported_name_resolves():
    missing = []
    for path in sorted(SOURCE.glob("*.py")):
        module = importlib.import_module(f"leecodes.{path.stem}".replace(".__init__", ""))
        missing.extend(f"{path.name}: {name}" for name in getattr(module, "__all__", ())
                       if not hasattr(module, name))
    assert not missing, missing


def _private_definitions(tree):
    """(name, statement) of each private name the module defines at top
    level: a function, a class or an assigned name that starts with one
    underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [leaf.id for target in targets for leaf in ast.walk(target)
                     if isinstance(leaf, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_used_in_the_library():
    # a private helper that only its own body or the tests read is dead code:
    # a simplification that orphans one must delete it
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SOURCE.glob("*.py"))}
    reads = {}   # name -> the (file, top-level statement index) of each read
    for file, tree in trees.items():
        for i, node in enumerate(tree.body):
            for leaf in ast.walk(node):
                name = leaf.id if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load) \
                    else leaf.attr if isinstance(leaf, ast.Attribute) else None
                reads.setdefault(name, set()).add((file, i))
    unused = [f"{file}: {name}" for file, tree in trees.items()
              for name, node in _private_definitions(tree)
              if not reads.get(name, set()) - {(file, tree.body.index(node))}]
    assert trees
    assert not unused, unused


# the pairwise equivalence check, its first-seen loop and the scalar
# enumeration are references the tests compare the library with
REFERENCES = {"signed_perm_equivalent", "dedup_codes", "enumerate_codes"}


def test_no_library_path_reads_the_references():
    # a reference reads only the others; every library path classes codes
    # by the orbit walk, names witnesses by equality and scans by index
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if getattr(node, "name", None) in REFERENCES:
                continue
            for leaf in ast.walk(node):
                name = leaf.id if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load) \
                    else leaf.attr if isinstance(leaf, ast.Attribute) else None
                if name in REFERENCES:
                    found.append(f"{path.name}: {getattr(node, 'name', node.lineno)} reads {name}")
    assert list(SOURCE.glob("*.py"))
    assert not found, found
