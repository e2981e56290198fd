"""tools/surface.py counts what it says it counts (CI prints its output
on every PR, so a miscount would be quoted in CHANGES.md for good)."""

from __future__ import annotations

import importlib.util
import os

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "surface", os.path.join(_REPO, "tools", "surface.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''
import os
from os import getenv, path

class Thing:
    def method(self, a, *, b=1, **rest):
        return lambda x: x          # lambdas are not counted

    async def other(self, *args):
        def nested(y):
            return os.environ.get("HOME"), os.getenv("USER")
        return nested

def cli(parser):
    parser.add_argument("--flag")
    parser.add_argument("positional")
    environ = {}                    # a local name is not the environment
    return environ
'''


def test_counts_of_a_sample_module():
    assert _tool().count_source(SAMPLE) == {
        "functions": 4, "parameters": 4 + 2 + 1 + 1,
        "cli_flags": 2, "env_reads": 3}


def test_tree_counts_cover_every_module():
    tool = _tool()
    root = os.path.join(_REPO, "src", "repro")
    totals = tool.count_tree(root)
    modules = [name for __, __, names in os.walk(root)
               for name in names if name.endswith(".py")]
    assert totals["files"] == len(modules)
    assert totals["lines"] > totals["parameters"] > totals["functions"] > 0
    # The engine is configured by arguments, never by the environment.
    assert totals["env_reads"] == 0
