"""Package-wide contracts that no single module's tests own."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import embgeom

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(embgeom.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"embgeom.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def _module_trees():
    """Each module of the package, by its name, as a parsed tree."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in Path(embgeom.__file__).parent.glob("*.py")}


# The pure-Python algebra: the traced benchmark counts calls of these three
# (tests/test_benchmark_contract.py pins the names) and tests replay the
# numpy kernels against them, but no shipped path runs them.
PURE_PYTHON = {"dot", "softmax", "linear_apply"}


def _linalg_names_used():
    """Per module of the package, the linalg names it imports or reads as attributes."""
    used = {}
    for module, tree in _module_trees().items():
        names = used[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "linalg":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "linalg":
                names.add(node.attr)
    return used


def test_every_linalg_export_has_a_caller_in_the_package():
    used = set().union(*_linalg_names_used().values())
    exported = importlib.import_module("embgeom.linalg").__all__
    assert set(exported) - used - PURE_PYTHON == set()


def test_no_shipped_path_runs_the_pure_python_algebra():
    assert {m: n & PURE_PYTHON for m, n in _linalg_names_used().items() if n & PURE_PYTHON} == {}


def _private_definitions_and_uses():
    """The package's module-level private names, and the ones it reads.

    Both are (module, name) pairs. A definition is a function, class or
    assigned constant at module level whose name starts with one
    underscore. Module m reads its own names bare, and another module
    reads them by ``from .m import name`` or as ``m.name``.
    """
    defined, used = set(), set()
    for module, tree in _module_trees().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((module, n) for n in names
                           if n.startswith("_") and not n.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add((node.value.id, node.attr))
    return defined, used


def test_every_private_helper_is_used_in_the_package():
    defined, used = _private_definitions_and_uses()
    assert sorted(defined - used) == []


# Exports with no reader in the package, each kept for a caller outside it.
_FUZZ = "the format fuzz in tests/test_formats.py builds its inputs with it"
UNREAD_EXPORTS = {
    **{("linalg", n): "the traced benchmark counts its calls" for n in PURE_PYTHON},
    ("sense_geometry", "ambiguity_flag"): "acceptance criterion 09 calls it",
    ("sense_geometry", "save_sense_tsv"):
        f"writes the sense TSV the CLI reads; {_FUZZ}; ROADMAP item 5 gives it a caller",
    ("sense_geometry", "save_probe_tsv"): f"writes the probe TSV the CLI reads; {_FUZZ}",
}


def test_every_export_is_read_in_the_package():
    _, used = _private_definitions_and_uses()
    unread = {(m, n) for m in MODULES
              for n in getattr(importlib.import_module(f"embgeom.{m}"), "__all__", ())
              if (m, n) not in used}
    assert sorted(unread - set(UNREAD_EXPORTS)) == []
    assert sorted(set(UNREAD_EXPORTS) - unread) == []


def test_only_linalg_makes_numpy_errors_raise():
    # linalg._float64_policy is the one rule for numeric failure; a module
    # with its own raising np.errstate would name its failures its own way
    raising = set()
    for module, tree in _module_trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "errstate"
                    and any(isinstance(k.value, ast.Constant)
                            and k.value.value in {"raise", "call"} for k in node.keywords)):
                raising.add(module)
    assert raising == {"linalg"}


def test_only_linalg_holds_the_norm_rule():
    # linalg._norms is the one row-norm kernel; a module that sums squares,
    # takes roots or scales rows itself, or keeps its own safe range, would
    # take norms a second way (selfcheck's np.linalg.norm oracle stays its own;
    # math.sqrt of one scalar, as attention's 1/sqrt(d), is no row norm)
    scaling = {"frexp", "ldexp", "einsum", "sqrt"}
    holders = set()
    for module, tree in _module_trees().items():
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Attribute) and node.attr in scaling
                 and not (node.attr == "sqrt" and getattr(node.value, "id", None) == "math"))
                    or (isinstance(node, ast.alias) and node.name in scaling)
                    or (isinstance(node, ast.Name) and node.id == "_SAFE_SQUARES"
                        and isinstance(node.ctx, ast.Store))):
                holders.add(module)
    assert holders == {"linalg"}


def test_only_linalg_calls_the_checking_vector_constructor():
    # Vector(...) checks its input through matrix_array; outside linalg the
    # package holds checked floats already, and Vector._of adopts the rows
    # a function returns without a second check
    callers = set()
    for module, tree in _module_trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and "Vector" in {getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None)}):
                callers.add(module)
    assert callers <= {"linalg"}


def _nodes_and_holders(tree):
    """Each node of ``tree`` with the dotted name of the def or class it sits in."""
    def visit(node, holder):
        for child in ast.iter_child_nodes(node):
            inner = holder
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{holder}.{child.name}" if holder else child.name
            yield child, inner
            yield from visit(child, inner)
    return visit(tree, "")


def test_only_matrix_array_and_take_check_finiteness():
    # matrix_array validates caller-supplied reals, Vector and Matrix input
    # alike, and Matrix._take the arrays the package builds; a finiteness
    # check anywhere else in linalg would validate input a second way
    checkers = {holder for node, holder in _nodes_and_holders(_module_trees()["linalg"])
                if (isinstance(node, ast.Attribute) and node.attr == "isfinite")
                or (isinstance(node, ast.alias) and node.name == "isfinite")}
    assert checkers == {"matrix_array", "Matrix._take"}


def test_only_container_reads_a_source():
    # container.read turns every source into one read-only buffer; a module
    # that reads a file itself would decide a second way how input is held
    readers = set()
    for module, tree in _module_trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"read", "readinto"}
                    and not (node.func.attr == "read"
                             and getattr(node.func.value, "id", None) == "container")):
                readers.add(module)
    assert readers <= {"container"}


def test_only_embed_store_starts_threads():
    # the text loader forks its workers: every thread the package starts is
    # embed_store's own, joined before the call that started it returns
    users = set()
    for module, tree in _module_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {(node.module or "").split(".")[0]} | {a.name for a in node.names}
            else:
                continue
            if names & {"threading", "_thread", "ThreadPoolExecutor"}:
                users.add(module)
    assert users <= {"embed_store"}


def test_only_embed_store_starts_processes():
    # the text loader's forked workers are the package's only processes, so
    # its fork-safety argument (no thread alive at the fork) has one module
    # to check
    starters = set()
    for module, tree in _module_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {(node.module or "").split(".")[0]} | {a.name for a in node.names}
            elif (isinstance(node, ast.Attribute) and node.attr == "fork"
                  and getattr(node.value, "id", None) == "os"):
                names = {"fork"}
            else:
                continue
            if names & {"multiprocessing", "ProcessPoolExecutor", "subprocess", "fork"}:
                starters.add(module)
    assert starters <= {"embed_store"}


def test_no_subcommand_writes_stdout_itself():
    # cli.main prints the seed and a command's lines once the command has
    # returned, so a failing run leaves stdout empty
    writers = set()
    for node in _module_trees()["cli"].body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Name) and inner.id == "print"
                        or isinstance(inner, ast.Attribute) and inner.attr == "stdout"):
                    writers.add(node.name)
    assert writers == set()


def test_selfcheck_names_each_check_once():
    # selfcheck._CHECKS is the one table of (printed name, check): a check
    # left out of it never runs, and a CheckResult built anywhere but
    # run_all could name a check a second way
    tree = _module_trees()["selfcheck"]
    defined = [node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")]
    names, checks = zip(*importlib.import_module("embgeom.selfcheck")._CHECKS)
    assert sorted(check.__name__ for check in checks) == sorted(defined)
    assert len(set(names)) == len(names)
    builders = set()
    for node in tree.body:
        for inner in ast.walk(node):
            if (isinstance(inner, ast.Call)
                    and "CheckResult" in {getattr(inner.func, "id", None),
                                          getattr(inner.func, "attr", None)}):
                builders.add(getattr(node, "name", None))
    assert builders == {"run_all"}
