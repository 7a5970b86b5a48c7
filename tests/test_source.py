"""Checks over the library's source text."""

import argparse
import ast
from pathlib import Path

import cauchynet
from cauchynet import cli

SRC = Path(cauchynet.__file__).parent


def test_library_has_no_assert_statements():
    # Invariants are explicit checks that raise a library error: `python -O`
    # strips assert statements, and a failed one is a traceback, not an exit code.
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_never_calls_reciprocal():
    # Every kernel value is one division of 1.0 by a product of shifted
    # columns (kernel.cauchy_block); np.reciprocal rounds the imaginary part
    # differently, so a call to it would bring back a second rounding rule.
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and "reciprocal" in ast.unparse(node.func)]
    assert found == []


def test_only_the_workers_module_forks():
    # Work runs in parallel only through workers: map_forked and Pipeline.
    # multiprocessing and concurrent.futures stay out of the library, and so
    # does their import time before the first epoch.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            forks = (isinstance(node, ast.Attribute) and node.attr == "fork"
                     or isinstance(node, ast.alias) and node.name == "fork")
            module = (node.name if isinstance(node, ast.alias)
                      else node.module or "" if isinstance(node, ast.ImportFrom) else "")
            if (forks and path.name != "workers.py"
                    or module.split(".")[0] in ("multiprocessing", "concurrent")):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_only_process_slots_reads_the_environment():
    # A run's values come from its recipe alone: a preset or --config, plus
    # --set.  The environment sets only the BLAS thread counts that size the
    # forked workers, so a new environment knob fails here.
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}                        # node -> innermost enclosing function
        for fn in ast.walk(tree):         # breadth first: inner functions overwrite
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else "")
            if name in ("environ", "environb", "getenv", "getenvb"):
                found.add(f"{path.relative_to(SRC)}:{owner.get(id(node), '<module>')}")
    assert sorted(found) == ["workers.py:process_slots"]


def _args_read(fn):
    """The attributes that function `fn` reads off a name `args`."""
    return {node.attr for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "args"}


def test_every_cli_option_is_read_by_its_command():
    # A flag its command never reads is a setting that silently does nothing.
    # Each option must be read as args.<dest> by the command's handler or by
    # a cli.py function the handler calls (load_spec, _outdir).
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    unread = []
    for name, parser in commands.items():
        handler = functions[parser.get_default("fn").__name__]
        called = {ast.unparse(node.func) for node in ast.walk(handler)
                  if isinstance(node, ast.Call)} & functions.keys()
        read = set().union(*(_args_read(functions[f]) for f in called | {handler.name}))
        unread += [f"{name} {action.option_strings[0]}" for action in parser._actions
                   if not isinstance(action, argparse._HelpAction) and action.dest not in read]
    assert unread == []


def test_experiments_trains_only_through_fit():
    # One fit path: every run, ablation arm and sweep cell trains through it.
    tree = ast.parse((SRC / "experiments.py").read_text(encoding="utf-8"))
    callers = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "train"]
    assert callers == ["fit", "fit_baseline"]


def test_batch_gradient_reaches_the_kernel_through_forward_batch():
    # The benchmark traces the training forward pass where grad looks up
    # forward_batch; a batch_gradient that built its kernel block any other
    # way would leave that layer reading zero.
    tree = ast.parse((SRC / "grad.py").read_text(encoding="utf-8"))
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "batch_gradient")
    called = {ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
    assert "forward_batch" in called
    kernel_calls = sorted({ast.unparse(node.func) for node in ast.walk(tree)
                           if isinstance(node, ast.Call)}
                          & {"cauchy_block", "kernel_rows", "kernel_sum"})
    assert kernel_calls == []


# Public names kept without a caller in the library or the benchmark.
UNCALLED_BY_DESIGN = {
    "finite_difference_gradients": "forward-only gradient oracle for the analytic path",
    "cauchy_activation": "scalar activation oracle for the kernel block",
    "cauchy_activation_derivative": "closed-form derivative oracle for the activation",
    "load_mlp_checkpoint": "reader for the baseline checkpoint a run writes",
}


def _public_definitions(tree):
    """Public top-level functions and classes, and the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _private_functions(tree):
    """Private top-level functions: helpers the library keeps for itself."""
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                and not node.name.startswith("__")):
            yield node.name


def _referenced_names(tree):
    """Every name used as a variable or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_function_has_a_caller():
    # API that only tests call is code the library carries for nothing: a
    # public function, class or method needs a reference from the library
    # (its __init__ re-exports do not count) or from the benchmark, or an
    # entry above saying why it is kept.  So does a private top-level
    # function: a helper that only tests reach is a second path.
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    callers = [tree for path, tree in trees.items() if path.name != "__init__.py"]
    callers += [ast.parse(path.read_text(encoding="utf-8"))
                for path in sorted((SRC.parents[1] / "perfbench").glob("*.py"))]
    referenced = {name for tree in callers for name in _referenced_names(tree)}
    defined = {name for tree in trees.values()
               for name in (*_public_definitions(tree), *_private_functions(tree))}
    uncalled = sorted(defined - referenced - set(UNCALLED_BY_DESIGN))
    assert uncalled == []
