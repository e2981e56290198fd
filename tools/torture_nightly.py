#!/usr/bin/env python3
"""Nightly torture driver: elevated fault schedules + soak, seeds exported.

Runs the deterministic fault-injection and crash-torture suites at an
elevated schedule count (``--torture-schedules 200`` vs. the tier-1
default of 25), the MVCC snapshot-isolation, WAL-stream (differential
replay + record codec) and doc-values search-equivalence property
suites at their nightly Hypothesis budget
(``MVCC_PROPERTY_PROFILE=nightly``: 300 examples / 60 stateful steps
vs. the tier-1 40 / 30), then the newsroom soak test over
several master seeds.
Every torture test is parameterised by its seed, and every
:class:`~repro.faults.plan.FaultPlan` is derived deterministically from
that seed — so a failing *seed* is a complete reproduction.

On failure the driver parses the junit reports and writes
``torture_failures.json``: one entry per failing node with the extracted
seed and the exact local repro command.  The nightly workflow uploads
that file (plus the junit XML) as the failure artifact.

Usage::

    PYTHONPATH=src python tools/torture_nightly.py --schedules 200
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Suites whose tests take ``crash_seed`` (scaled by --torture-schedules).
TORTURE_PATHS = (
    "tests/test_fault_injection.py",
    "tests/test_crash_torture.py",
    "tests/test_repl_torture.py",
    "tests/test_db_concurrency_stress.py",
)

SOAK_PATH = "tests/test_soak_newsroom.py"

#: Hypothesis suites that scale via ``MVCC_PROPERTY_PROFILE=nightly``
#: (300 examples / 60 stateful steps vs. the tier-1 budget of 40 / 30).
#: Failures are reproducible from the printed falsifying example, not a
#: seed, so these get their own junit report instead of seed extraction.
#: ``test_wal_stream.py`` also replays seeded torture logs, so the
#: property run takes ``--torture-schedules`` too.
PROPERTY_PATHS = ("tests/test_mvcc_property.py", "tests/test_wal_stream.py",
                  "tests/test_search_docvalues.py")

#: ``test_name[17]`` or ``test_name[17-foo]`` — the leading int param of
#: a torture node is its crash seed (see tests/conftest.py).
_SEED_IN_ID = re.compile(r"\[(\d+)")


def _pytest(args: list[str], junit: str,
            extra_env: dict[str, str] | None = None) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if extra_env:
        env.update(extra_env)
    cmd = [sys.executable, "-m", "pytest", "-q",
           f"--junitxml={junit}", *args]
    print("+", " ".join(cmd), flush=True)
    return subprocess.run(cmd, cwd=REPO, env=env).returncode


def _failures_from_junit(junit: str, repro_flag: str) -> list[dict]:
    """Failing nodes (+ extracted seeds) from one junit XML report."""
    if not os.path.exists(junit):
        return [{"nodeid": f"<missing junit report {junit}>",
                 "seed": None, "repro": None}]
    failures = []
    for case in ET.parse(junit).getroot().iter("testcase"):
        if case.find("failure") is None and case.find("error") is None:
            continue
        name = case.get("name", "")
        nodeid = f"{case.get('classname', '')}::{name}"
        match = _SEED_IN_ID.search(name)
        seed = int(match.group(1)) if match else None
        repro = None
        if seed is not None:
            repro = (f"PYTHONPATH=src python -m pytest "
                     f"'{case.get('file', '')}' -k '{name}' {repro_flag}")
        failures.append({"nodeid": nodeid, "seed": seed, "repro": repro})
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schedules", type=int, default=200,
                        help="fault schedules per torture test "
                             "(nightly default: 200)")
    parser.add_argument("--soak-seeds", default="1,2,3",
                        help="comma-separated master seeds for the "
                             "newsroom soak runs")
    parser.add_argument("--out", default="torture_failures.json",
                        help="failure-artifact path (written only when "
                             "something failed)")
    args = parser.parse_args(argv)

    failures: list[dict] = []
    status = 0

    torture_junit = os.path.join(REPO, "torture_report.xml")
    rc = _pytest([*TORTURE_PATHS,
                  "--torture-schedules", str(args.schedules)],
                 torture_junit)
    if rc:
        status = 1
        failures += _failures_from_junit(
            torture_junit,
            f"--torture-schedules {args.schedules}")

    property_junit = os.path.join(REPO, "property_report.xml")
    rc = _pytest([*PROPERTY_PATHS,
                  "--torture-schedules", str(args.schedules)],
                 property_junit,
                 extra_env={"MVCC_PROPERTY_PROFILE": "nightly"})
    if rc:
        status = 1
        for failure in _failures_from_junit(property_junit, ""):
            failure["seed"] = None
            failure["repro"] = (
                f"MVCC_PROPERTY_PROFILE=nightly PYTHONPATH=src "
                f"python -m pytest {' '.join(PROPERTY_PATHS)} "
                f"--torture-schedules {args.schedules} "
                f"-k '{failure['nodeid'].rsplit('::', 1)[-1]}'")
            failures.append(failure)

    for soak_seed in [int(s) for s in args.soak_seeds.split(",") if s]:
        soak_junit = os.path.join(REPO, f"soak_report_{soak_seed}.xml")
        rc = _pytest([SOAK_PATH, "--soak-seed", str(soak_seed)], soak_junit)
        if rc:
            status = 1
            for failure in _failures_from_junit(
                    soak_junit, f"--soak-seed {soak_seed}"):
                failure["seed"] = soak_seed
                failure["repro"] = (f"PYTHONPATH=src python -m pytest "
                                    f"{SOAK_PATH} --soak-seed {soak_seed}")
                failures.append(failure)

    if failures:
        payload = {
            "schedules": args.schedules,
            "soak_seeds": args.soak_seeds,
            "failures": failures,
        }
        out = os.path.join(REPO, args.out)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{len(failures)} failing node(s); seeds written to {out}",
              file=sys.stderr)
    else:
        print(f"torture x{args.schedules} + property(nightly) + soak: "
              f"all green")
    return status


if __name__ == "__main__":
    sys.exit(main())
