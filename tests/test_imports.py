"""What a cold interpreter imports: the package resolves its names lazily
and each CLI subcommand loads only the modules it runs.  Also what the
modules define that outlives a call, the functools caches, that every
module-level import of the package and of the tests is read, and that one
function holds the package's integer rule."""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from functools import cached_property
from importlib import import_module
from pathlib import Path

import pytest

from cli_pins import NOT_FOR_MULT

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent

# every name the package exports
FORMER_NAMES = {
    "BinomialPolynomial", "ClassVector", "convolve_C_classes", "f_constant",
    "g_constant", "g_table", "multiply", "oracle_convolve", "product_expansion",
    "product_expansion_a", "psi_image", "q_polynomial", "to_C_basis",
    "CharacterTable", "F_eval", "character", "p_sharp", "s_star",
    "x_mu", "Filling", "canonical_filling", "convolve",
    "enumerate_F", "DegreeFunction", "check_filtration", "check_gamma_inequalities",
    "limit_ratio", "PartialPermutation", "canonical_rep", "enumerate_class",
    "product", "Partition", "enumerate_partitions", "partitions_up_to",
    "GroupAlgebraElement", "SemigroupAlgebraElement", "center_dimension",
    "class_element", "epsilon", "forget_support", "phi_x", "truncate"}


def _cold(code: str) -> dict:
    """Run code in a fresh interpreter importing the sources under src; the
    code binds `out`, printed as the JSON that this returns."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    script = f"import json, sys\n{code}\nprint(json.dumps(out))"
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=SRC.parent,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_mult_loads_no_module_it_does_not_run():
    out = _cold(f"""
import classconv.cli
code = classconv.cli.main(["mult", "--lhs", "6", "--rhs", "6"])
out = [code, [m for m in {NOT_FOR_MULT!r} if m in sys.modules]]
""")
    assert out == [0, []]


def test_verify_loads_the_suites():
    out = _cold("""
import classconv.cli
code = classconv.cli.main(["verify", "--suite", "gamma"])
out = [code, "classconv.verify" in sys.modules]
""")
    assert out == [0, True]


def test_exported_names_resolve_to_their_home_objects():
    out = _cold("""
import classconv
from importlib import import_module
out = {}
for name in classconv.__all__:
    obj = getattr(classconv, name)
    out[name] = obj is getattr(import_module(obj.__module__), name)
""")
    assert set(out) == FORMER_NAMES
    assert all(out.values()), [name for name, same in out.items() if not same]


def test_unknown_attribute_raises():
    import classconv
    with pytest.raises(AttributeError, match="no_such_name"):
        classconv.no_such_name
    # a submodule that is not an exported name still imports by name
    from classconv import oracle_convolve, verify
    assert oracle_convolve is verify.oracle_convolve


# every cache in the package, each read by a production path
CACHES = {"partitions._partitions_tuple", "characters._positions", "characters._shape",
          "characters._strips", "characters._column", "characters._s_star_weights",
          "class_algebra._level_table", "class_algebra._expand"}


def test_every_cache_is_listed():
    import classconv
    found = set()
    for info in pkgutil.iter_modules(classconv.__path__):
        module = import_module(f"classconv.{info.name}")
        owners = [module] + [obj for obj in vars(module).values()
                             if isinstance(obj, type) and obj.__module__ == module.__name__]
        for owner in owners:
            for name, obj in vars(owner).items():
                cached = (isinstance(obj, cached_property)
                          or hasattr(obj, "cache_info")
                          and getattr(obj, "__module__", None) == module.__name__)
                if cached:
                    qualified = name if owner is module else f"{owner.__name__}.{name}"
                    found.add(f"{info.name}.{qualified}")
    assert found == CACHES


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) for each name a module-level import of the file binds
    and no expression of the file reads."""
    tree = ast.parse(path.read_text())
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound += [(stmt.lineno, a.asname or a.name.split(".")[0]) for a in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound += [(stmt.lineno, a.asname or a.name) for a in stmt.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_every_module_level_import_is_used():
    paths = sorted([*(SRC / "classconv").glob("*.py"), *TESTS.glob("*.py")])
    assert len(paths) > 20
    unused = [(path.name, line, name) for path in paths for line, name in _unused_imports(path)]
    assert unused == []


def _int_type_tests(path: Path) -> list[str]:
    """The qualified name of the function around each `type(...) is not int`
    comparison in the file."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Compare) and isinstance(child.left, ast.Call)
                    and isinstance(child.left.func, ast.Name) and child.left.func.id == "type"
                    and any(isinstance(op, ast.IsNot) for op in child.ops)
                    and any(isinstance(c, ast.Name) and c.id == "int"
                            for c in child.comparators)):
                found.append(owner)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{owner}.{child.name}".lstrip(".") if named else owner)

    visit(ast.parse(path.read_text()), "")
    return found


def test_one_integer_rule():
    # every int argument goes through partitions._check_int; the other test
    # is _coeff's, which also takes a Fraction
    sites = sorted(f"{path.stem}.{owner}" for path in (SRC / "classconv").glob("*.py")
                   for owner in _int_type_tests(path))
    assert sites == ["class_vector._coeff", "partitions._check_int"]
