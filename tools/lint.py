#!/usr/bin/env python3
"""A stdlib-only lint for the runtime-error class of checks.

The same rule families ruff is configured with in ``pyproject.toml``
(``E9``, ``F63``, ``F7``, ``F82``), written with ``compile``, ``ast`` and
``symtable`` alone so that it runs wherever Python does — next to ruff
in CI's ``lint`` job, and on a machine where ruff and mypy are not
installed.  Codes and messages follow ruff's:

* ``E902`` a file that cannot be read or decoded; ``E999`` a syntax
  error (anything ``ast.parse`` or ``compile`` refuses that no rule
  below names);
* ``F631`` an assert on a non-empty tuple (always true); ``F632`` ``is``
  / ``is not`` against a str, bytes or number literal; ``F633`` ``print
  >>``; ``F634`` an ``if`` on a non-empty tuple;
* ``F701`` ``break`` / ``F702`` ``continue`` outside a loop; ``F704``
  ``yield`` / ``await`` outside a function; ``F706`` ``return`` outside
  a function; ``F707`` a bare ``except:`` that is not the last handler;
* ``F821`` a name read in a scope that resolves to the module and is
  bound neither there nor among the builtins; ``F822`` a name in
  ``__all__`` the module does not bind.

Not covered, by design (ruff still checks them in CI): ``F821`` for
names only annotations use (under ``from __future__ import
annotations`` the symbol table does not see them) and for names read
before the module binds them; ``F823`` (a local read before its
assignment).  A module with a ``from ... import *`` or a module-level
``__getattr__`` skips ``F821`` / ``F822``.  ``# noqa`` comments are not
read: the tree needs none for these rules.

Usage::

    python tools/lint.py                 # src tests benchmarks tools bench
    python tools/lint.py PATH [PATH...]  # files or directories

Prints one ``path:line:col: CODE message`` per finding and exits 1 if
there is any.
"""

from __future__ import annotations

import ast
import builtins
import os
import symtable
import sys
import warnings

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools", "bench")

#: Names every module can read without binding them.
_MODULE_NAMES = frozenset(dir(builtins)) | {
    "__file__", "__name__", "__doc__", "__spec__", "__loader__",
    "__package__", "__builtins__", "__path__", "__annotations__"}

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_literal(node: ast.AST) -> bool:
    """A str, bytes or number literal (not None, a bool or ``...``)."""
    if isinstance(node, ast.JoinedStr):
        return True
    return isinstance(node, ast.Constant) \
        and isinstance(node.value, (str, bytes, int, float, complex)) \
        and not isinstance(node.value, bool)


def _nonempty_tuple(node: ast.AST) -> bool:
    return isinstance(node, ast.Tuple) and bool(node.elts)


class _Rules:
    """The F63 and F7 checks, in one walk that tracks whether the code
    is inside a function and inside a loop."""

    def __init__(self) -> None:
        self.found: list[tuple[int, int, str, str]] = []

    def report(self, node: ast.AST, code: str, message: str) -> None:
        self.found.append((node.lineno, node.col_offset + 1, code, message))

    def walk(self, node: ast.AST, *, function: bool, loop: bool) -> None:
        self.check(node, function=function, loop=loop)
        if isinstance(node, _SCOPES):
            function, loop = True, False
        elif isinstance(node, ast.ClassDef):
            function, loop = False, False
        for field, value in ast.iter_fields(node):
            children = value if isinstance(value, list) else [value]
            inner = loop or (isinstance(node, _LOOPS) and field == "body")
            for child in children:
                if isinstance(child, ast.AST):
                    self.walk(child, function=function, loop=inner)

    def check(self, node: ast.AST, *, function: bool, loop: bool) -> None:
        if isinstance(node, ast.Assert) and _nonempty_tuple(node.test):
            self.report(node, "F631",
                        "Assert test is a non-empty tuple, which is always "
                        "`True`")
        elif isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Is, ast.IsNot)) \
                        and (_is_literal(left) or _is_literal(right)):
                    self.report(node, "F632",
                                "Use `==` / `!=` to compare constant "
                                "literals")
                left = right
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift) \
                and isinstance(node.left, ast.Name) \
                and node.left.id == "print":
            self.report(node, "F633", "Use of `>>` is invalid with `print`")
        elif isinstance(node, (ast.If, ast.IfExp)) \
                and _nonempty_tuple(node.test):
            self.report(node, "F634",
                        "If test is a tuple, which is always `True`")
        elif isinstance(node, ast.Break) and not loop:
            self.report(node, "F701", "`break` outside loop")
        elif isinstance(node, ast.Continue) and not loop:
            self.report(node, "F702", "`continue` not properly in loop")
        elif isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)) \
                and not function:
            keyword = {ast.Yield: "yield", ast.YieldFrom: "yield from",
                       ast.Await: "await"}[type(node)]
            self.report(node, "F704", f"`{keyword}` statement outside of a "
                        "function")
        elif isinstance(node, ast.Return) and not function:
            self.report(node, "F706", "`return` statement outside of a "
                        "function/method")
        elif isinstance(node, (ast.Try, ast.TryStar)):
            for handler in node.handlers[:-1]:
                if handler.type is None:
                    self.report(handler, "F707", "An `except` block as not "
                                "the last exception handler")


def _module_bindings(table: symtable.SymbolTable) -> set[str]:
    """Names bound at module level: there, or through ``global`` in any
    nested scope."""
    bound = {s.get_name() for s in table.get_symbols()
             if s.is_assigned() or s.is_imported() or s.is_namespace()}
    pending = list(table.get_children())
    while pending:
        scope = pending.pop()
        bound.update(s.get_name() for s in scope.get_symbols()
                     if s.is_declared_global() and s.is_assigned())
        pending.extend(scope.get_children())
    return bound


def _global_reads(table: symtable.SymbolTable) -> set[str]:
    """Names read in any scope that resolve to the module namespace."""
    reads: set[str] = set()
    pending = [table]
    while pending:
        scope = pending.pop()
        reads.update(s.get_name() for s in scope.get_symbols()
                     if s.is_referenced() and s.is_global())
        pending.extend(scope.get_children())
    return reads


def _exported(tree: ast.Module) -> list[ast.Constant]:
    """The string constants of every module-level ``__all__`` assignment
    (``=``, ``+=`` and annotated)."""
    names: list[ast.Constant] = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets, value = [node.target], node.value
        else:
            continue
        if value is None or not any(isinstance(t, ast.Name)
                                    and t.id == "__all__" for t in targets):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            names += [e for e in value.elts if isinstance(e, ast.Constant)
                      and isinstance(e.value, str)]
    return names


def _names(tree: ast.Module, table: symtable.SymbolTable
           ) -> list[tuple[int, int, str, str]]:
    """The F821 / F822 findings of one module."""
    star = any(isinstance(node, ast.ImportFrom)
               and any(alias.name == "*" for alias in node.names)
               for node in tree.body)
    bound = _module_bindings(table)
    if star or "__getattr__" in bound:
        return []
    found = []
    for constant in _exported(tree):
        if constant.value not in bound:
            found.append((constant.lineno, constant.col_offset + 1, "F822",
                          f"Undefined name `{constant.value}` in "
                          f"`__all__`"))
    undefined = _global_reads(table) - bound - _MODULE_NAMES
    if undefined:
        first: dict[str, ast.Name] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in undefined \
                    and isinstance(node.ctx, ast.Load):
                seen = first.get(node.id)
                if seen is None or (node.lineno, node.col_offset) \
                        < (seen.lineno, seen.col_offset):
                    first[node.id] = node
        for name in sorted(undefined):
            node = first.get(name)
            line, col = (node.lineno, node.col_offset + 1) if node else (1, 1)
            found.append((line, col, "F821", f"Undefined name `{name}`"))
    return found


def lint_source(source: str, filename: str = "<string>"
                ) -> list[tuple[int, int, str, str]]:
    """``(line, column, code, message)`` for each finding in ``source``,
    sorted by position."""
    try:
        tree = ast.parse(source, filename)
    except SyntaxError as exc:
        return [(exc.lineno or 1, exc.offset or 1, "E999",
                 f"SyntaxError: {exc.msg}")]
    rules = _Rules()
    rules.walk(tree, function=False, loop=False)
    found = rules.found
    if not any(code.startswith("F7") for __, __, code, __ in found):
        # What the compiler refuses beyond the walk above (a misplaced
        # ``nonlocal``, a duplicate argument, ...).
        try:
            with warnings.catch_warnings():
                # The rules above say it better ("is" with a literal...).
                warnings.simplefilter("ignore", SyntaxWarning)
                compile(tree, filename, "exec")
                table = symtable.symtable(source, filename, "exec")
        except SyntaxError as exc:
            found.append((exc.lineno or 1, exc.offset or 1, "E999",
                          f"SyntaxError: {exc.msg}"))
        else:
            found += _names(tree, table)
    return sorted(found)


def lint_file(path: str) -> list[tuple[int, int, str, str]]:
    try:
        with open(path, "rb") as handle:
            source = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [(1, 1, "E902", f"{type(exc).__name__}: {exc}")]
    return lint_source(source, path)


def python_files(paths) -> list[str]:
    """Every ``*.py`` file under ``paths`` (files or directories), in a
    stable order; hidden and ``__pycache__`` directories are skipped."""
    files = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for directory, subdirs, names in os.walk(path):
            subdirs[:] = sorted(d for d in subdirs
                                if d != "__pycache__" and not d.startswith("."))
            files += [os.path.join(directory, name) for name in sorted(names)
                      if name.endswith(".py")]
    return files


def main(argv: list[str]) -> int:
    paths = argv[1:] or [os.path.join(REPO, p) for p in DEFAULT_PATHS]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"lint: no such path {missing[0]}", file=sys.stderr)
        return 2
    files = python_files(paths)
    count = 0
    for path in files:
        for line, col, code, message in lint_file(path):
            print(f"{os.path.relpath(path)}:{line}:{col}: {code} {message}")
            count += 1
    print(f"lint: {len(files)} files, {count} finding(s)", file=sys.stderr)
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
