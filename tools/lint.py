#!/usr/bin/env python3
"""A stdlib-only lint for the runtime-error class of checks and dead code.

The rule families ruff is configured with in ``pyproject.toml`` (``E9``,
``F63``, ``F7``, ``F82``) plus the dead-code pair ``F401`` / ``F841``,
written with ``compile``, ``ast`` and ``symtable`` alone so that it runs
wherever Python does — next to ruff in CI's ``lint`` job, and on a
machine where ruff and mypy are not installed.  Codes and messages
follow ruff's:

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
  ``__all__`` the module does not bind;
* ``F401`` an import no code reads — in the importing scope, a scope
  nested in it, an annotation (string annotations included) or the
  module's ``__all__``.  ``__future__`` imports, redundant aliases
  (``import x as x``) and imports under ``if TYPE_CHECKING:`` are not
  reported;
* ``F841`` a local variable a function assigns (``=``, an annotated
  ``=``, ``:=`` or ``with ... as``) and never reads, nor does a scope
  nested in it; and an ``except ... as name`` whose handler never reads
  ``name``.  Tuple unpacking, loop targets, names ruff's default
  ``dummy-variable-rgx`` matches (``_``, ``__``, ``_unused``) and the
  locals of a function that calls ``locals()`` are not reported.

Not covered, by design (ruff still checks them in CI): ``F821`` for
names only annotations use (under ``from __future__ import
annotations`` the symbol table does not see them) and for names read
before the module binds them; ``F823`` (a local read before its
assignment).  A module with a ``from ... import *`` or a module-level
``__getattr__`` skips ``F821`` / ``F822``.  ``F401`` and ``F841`` judge
a name, not each binding of it, as pyflakes does: a name bound twice
and read once counts as read.  ``# noqa`` comments are not read: the
tree needs none for these rules.

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
import re
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

#: ruff's default ``dummy-variable-rgx``: locals no one is meant to read.
_DUMMY = re.compile(r"^(_+|(_+[a-zA-Z0-9_]*[a-zA-Z0-9]+?))$")


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


def _own_nodes(scope: ast.AST):
    """The nodes of one scope's own code: the bodies of the functions,
    lambdas and classes it defines are theirs (comprehensions are
    walked — a ``:=`` inside one binds in the scope around it)."""
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))


def _read_below(table: symtable.SymbolTable, name: str,
                module: bool | None = None) -> bool:
    """Whether a scope nested in ``table`` reads ``table``'s ``name``
    (``module``: whether the binding is a global).

    A nested function or lambda that binds ``name`` itself hides it
    from everything inside; a class body hides nothing from its methods.
    """
    if module is None:
        module = table.get_type() == "module"
    for child in table.get_children():
        try:
            symbol = child.lookup(name)
        except KeyError:
            symbol = None
        if symbol is not None and symbol.is_referenced() and (
                symbol.is_free() or module and symbol.is_global()):
            return True
        hidden = symbol is not None and child.get_type() != "class" \
            and (symbol.is_local() or not module and symbol.is_global())
        if not hidden and _read_below(child, name, module):
            return True
    return False


def _annotation_names(tree: ast.Module) -> set[str]:
    """Every name an annotation reads, string annotations included."""
    pending = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            pending.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            pending.append(node.annotation)
    names: set[str] = set()
    while pending:
        annotation = pending.pop()
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                try:
                    pending.append(ast.parse(node.value, mode="eval").body)
                except SyntaxError:
                    pass
    return names


def _typing_only(tree: ast.Module) -> set[int]:
    """``id()`` of each import under an ``if TYPE_CHECKING:``."""
    found: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and (
                isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"
                or isinstance(node.test, ast.Attribute)
                and node.test.attr == "TYPE_CHECKING"):
            found.update(id(inner) for stmt in node.body
                         for inner in ast.walk(stmt)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return found


def _unused_imports(scope: symtable.SymbolTable, node: ast.AST,
                    spared: set[str], typing_only: set[int]
                    ) -> list[tuple[int, int, str, str]]:
    """The F401 findings of one scope; ``spared`` names count as read."""
    found = []
    for stmt in _own_nodes(node):
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)) \
                or id(stmt) in typing_only \
                or isinstance(stmt, ast.ImportFrom) \
                and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            if alias.name == "*" or alias.asname == alias.name:
                continue
            name = alias.asname or alias.name.partition(".")[0]
            symbol = scope.lookup(name)
            if name in spared or symbol.is_referenced() \
                    or scope.get_type() != "module" and symbol.is_global() \
                    or _read_below(scope, name):
                continue
            qualified = alias.name
            if isinstance(stmt, ast.ImportFrom):
                qualified = "." * stmt.level + (
                    f"{stmt.module}.{alias.name}" if stmt.module
                    else alias.name)
            found.append((alias.lineno, alias.col_offset + 1, "F401",
                          f"`{qualified}` imported but unused"))
    return found


def _unused_locals(scope: symtable.SymbolTable, node: ast.AST
                   ) -> list[tuple[int, int, str, str]]:
    """The F841 findings of one function's assignments."""
    try:
        if scope.lookup("locals").is_referenced():
            return []
    except KeyError:
        pass
    targets: list[ast.expr] = []
    #: Names ``+=`` or ``del`` reads: as pyflakes, not unused.
    touched: set[str] = set()
    for stmt in _own_nodes(node):
        if isinstance(stmt, ast.Assign):
            targets += stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                or isinstance(stmt, ast.NamedExpr):
            targets.append(stmt.target)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            targets += [item.optional_vars for item in stmt.items]
        elif isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Name):
            touched.add(stmt.target.id)     # reads before it assigns
        elif isinstance(stmt, ast.Name) and isinstance(stmt.ctx, ast.Del):
            touched.add(stmt.id)
    found = []
    for target in targets:
        if not isinstance(target, ast.Name) or _DUMMY.match(target.id) \
                or target.id in touched:
            continue
        symbol = scope.lookup(target.id)
        if symbol.is_local() and not symbol.is_referenced() \
                and not _read_below(scope, target.id):
            found.append((target.lineno, target.col_offset + 1, "F841",
                          f"Local variable `{target.id}` is assigned to "
                          f"but never used"))
    return found


def _unused(tree: ast.Module, table: symtable.SymbolTable
            ) -> list[tuple[int, int, str, str]]:
    """The F401 / F841 findings of one module."""
    nodes = {(node.name, node.lineno): node for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))}
    spared = _annotation_names(tree) | {c.value for c in _exported(tree)}
    typing_only = _typing_only(tree)
    found = []
    pending = [(table, tree)]
    while pending:
        scope, node = pending.pop()
        if node is None:
            continue  # a lambda or comprehension: no statements
        found += _unused_imports(scope, node, spared, typing_only)
        if scope.get_type() == "function":
            found += _unused_locals(scope, node)
        pending += [(child, nodes.get((child.get_name(),
                                       child.get_lineno())))
                    for child in scope.get_children()]
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.name \
                and not _DUMMY.match(node.name) \
                and not any(isinstance(inner, ast.Name)
                            and inner.id == node.name
                            for stmt in node.body
                            for inner in ast.walk(stmt)):
            found.append((node.lineno, node.col_offset + 1, "F841",
                          f"Local variable `{node.name}` is assigned to "
                          f"but never used"))
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
            found += _names(tree, table) + _unused(tree, table)
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
