"""Smoke tests: every example script must run cleanly end to end."""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _run_example(name: str) -> str:
    """Import an example module and run its main(); returns stdout."""
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        spec.loader.exec_module(module)
        # Scripts guard main() behind __main__; call explicitly.
        if hasattr(module, "main"):
            module.main()
        else:
            for fn_name in ("scripted_party", "simulated_party"):
                getattr(module, fn_name)()
    return buffer.getvalue()


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "lan_party.py",
    "document_workflow.py",
    "knowledge_portal.py",
    "time_travel.py",
])
def test_example_runs(script):
    output = _run_example(script)
    assert output.strip()


def test_quickstart_output_content():
    output = _run_example("quickstart.py")
    assert "Hello, world!" in output
    assert "authors:" in output


def test_lan_party_converges():
    output = _run_example("lan_party.py")
    assert "converged    : True" in output
    assert "chain intact : True" in output


def test_workflow_completes():
    output = _run_example("document_workflow.py")
    assert "process state: completed" in output
    assert "The supplier delivers monthly." in output


def test_knowledge_portal_sections():
    output = _run_example("knowledge_portal.py")
    for heading in ("Dynamic folders", "Data lineage", "Visual mining",
                    "Search"):
        assert heading in output
    assert "paste(s) in" in output   # the Fig. 1 tree rendered


def test_time_travel_recovery():
    output = _run_example("time_travel.py")
    assert "matches committed state: True" in output
    assert "chain integrity: OK" in output
