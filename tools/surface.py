#!/usr/bin/env python3
"""Surface counts of ``src/repro``: how much there is to read, call and set.

Prints the numbers every simplification PR has so far gathered by hand,
one per line, so a CI log carries them for every commit:

* ``files`` / ``lines`` — ``*.py`` files under the tree and their
  physical lines;
* ``functions`` / ``parameters`` — ``def``s (methods and nested
  functions included, lambdas not) and the parameters they declare,
  ``self`` included: the count PRs 15, 17 and 18 reported (3 186 at
  PR 18);
* ``cli_flags`` — ``add_argument`` calls (positionals included);
* ``env_reads`` — reads of the process environment (``os.environ``,
  ``os.getenv`` and their bytes forms, or importing them from ``os``).

Standard library only (``ast``); nothing is imported from the tree.

Usage::

    python tools/surface.py            # src/repro of this checkout
    python tools/surface.py PATH       # any other tree
"""

from __future__ import annotations

import ast
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_ENV_ATTRS = ("environ", "environb", "getenv", "getenvb")


def _parameters(args: ast.arguments) -> int:
    return (len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
            + (args.vararg is not None) + (args.kwarg is not None))


def count_source(source: str, filename: str = "<string>") -> dict[str, int]:
    """The counts of one module's source text."""
    counts = {"functions": 0, "parameters": 0, "cli_flags": 0,
              "env_reads": 0}
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            counts["functions"] += 1
            counts["parameters"] += _parameters(node.args)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "add_argument":
            counts["cli_flags"] += 1
        elif isinstance(node, ast.Attribute) and node.attr in _ENV_ATTRS \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            counts["env_reads"] += 1
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            counts["env_reads"] += sum(alias.name in _ENV_ATTRS
                                       for alias in node.names)
    return counts


def count_tree(root: str) -> dict[str, int]:
    """The counts of every ``*.py`` file under ``root``."""
    totals = {"files": 0, "lines": 0, "functions": 0, "parameters": 0,
              "cli_flags": 0, "env_reads": 0}
    for directory, subdirs, names in os.walk(root):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            totals["files"] += 1
            totals["lines"] += source.count("\n")
            for key, value in count_source(source, path).items():
                totals[key] += value
    return totals


def main(argv: list[str]) -> int:
    root = argv[1] if len(argv) > 1 else os.path.join(REPO, "src", "repro")
    if not os.path.isdir(root):
        print(f"surface: no such directory {root}", file=sys.stderr)
        return 2
    print(f"surface of {os.path.relpath(root)}")
    for key, value in count_tree(root).items():
        print(f"  {key:<11}{value:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
