"""tools/lint.py catches each rule it claims, and the tree is clean.

One planted file per rule (and a clean one that exercises every
construct the rules must *not* flag); CI runs the same tool over the
whole tree in its ``lint`` job."""

from __future__ import annotations

import importlib.util
import os

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "lint", os.path.join(_REPO, "tools", "lint.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: code -> a module that breaks exactly that rule.
PLANTED = {
    "E999": "def broken(:\n    pass\n",
    "F631": "assert (1, 'always true')\n",
    "F632": "x = 'a'\nif x is 'a':\n    pass\n",
    "F633": "print >> None, 'x'\n",
    "F634": "if (1, 2):\n    pass\n",
    "F701": "for i in range(2):\n    pass\nelse:\n    break\n",
    "F702": "def f():\n    continue\n",
    "F704": "yield 1\n",
    "F706": "class C:\n    return 1\n",
    "F707": "try:\n    pass\nexcept:\n    pass\nexcept ValueError:\n"
            "    pass\n",
    "F821": "def f():\n    return undefined_name\n",
    "F822": "__all__ = ['present', 'absent']\npresent = 1\n",
    "F401": "import os\n",
    "F841": "def f():\n    unused = 1\n",
}

CLEAN = '''
from __future__ import annotations

import json as json
import os
from collections import deque
from textwrap import dedent
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections import OrderedDict
    from decimal import Decimal

__all__ = ["Thing", "helper", "late", "dedent"]


def annotated(queue: "deque[int]") -> None:
    import sys

    def inner():
        return sys.argv

    return inner


def locals_kept(items):
    total = 0
    for item in items:
        total += item
    first, second = items[0], items[1]
    _ = __ = _scratch = first
    scratch = []
    del scratch
    captured = 1

    def inner():
        return captured

    try:
        inner()
    except ValueError as error:
        raise RuntimeError(second) from error


def uses_locals():
    hidden = 1
    return locals()


class Thing:
    size = len("abc")

    def method(self) -> OrderedDict:
        for item in range(3):
            if item is None or item is not True:
                continue
            break
        else:
            return __class__
        return helper(self.size)


def helper(n):
    global late
    late = n
    yield n
    assert n, ("a message", n)
    try:
        return os.sep, __file__
    except ValueError:
        pass
    except:
        raise


async def waiter(x):
    await x
'''


@pytest.mark.parametrize("code", sorted(PLANTED))
def test_each_planted_offence_is_caught(tmp_path, code):
    path = tmp_path / f"{code.lower()}.py"
    path.write_text(PLANTED[code])
    assert [found[2] for found in _tool().lint_file(str(path))] == [code]


def test_a_clean_module_has_no_findings():
    assert _tool().lint_source(CLEAN) == []


def test_every_unused_binding_form_is_caught():
    source = '''
import os.path
from collections import deque as queue


def f(path):
    import sys
    plain = 1
    annotated: int = 2
    (walrus := 3)
    with open(path) as handle:
        pass
    try:
        pass
    except ValueError as error:
        pass
    shadowed = 4

    def inner(shadowed):
        return shadowed

    return inner


class Holder:
    import json
'''
    found = [(line, code, message.split("`")[1])
             for line, __, code, message in _tool().lint_source(source)]
    assert found == [
        (2, "F401", "os.path"), (3, "F401", "collections.deque"),
        (7, "F401", "sys"), (8, "F841", "plain"),
        (9, "F841", "annotated"), (10, "F841", "walrus"),
        (11, "F841", "handle"), (15, "F841", "error"),
        (17, "F841", "shadowed"), (26, "F401", "json")]


def test_the_command_reports_and_fails(tmp_path, capsys):
    tool = _tool()
    for code, source in PLANTED.items():
        (tmp_path / f"{code.lower()}.py").write_text(source)
    (tmp_path / "clean.py").write_text(CLEAN)
    assert tool.main(["lint", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(PLANTED)
    assert {line.split()[1] for line in lines} == set(PLANTED)
    assert tool.main(["lint", str(tmp_path / "clean.py")]) == 0


def test_the_tree_is_clean():
    tool = _tool()
    paths = [os.path.join(_REPO, p) for p in tool.DEFAULT_PATHS]
    findings = {path: tool.lint_file(path)
                for path in tool.python_files(paths)}
    assert {path: found for path, found in findings.items() if found} == {}
