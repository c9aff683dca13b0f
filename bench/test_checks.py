"""Self-test of the benchmark's checks: real outputs pass, and a corrupted
output (a flipped verdict, a wrong min_value, a perturbed rho) is counted as
a failed operation.  Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import workload  # noqa: E402

PICK = ("int-n10-p50", "hnb-frac-n16-b4", "rho-hnb-n600-b5")


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    import factorspec.cli

    work = str(tmp_path_factory.mktemp("work"))
    runner = workload.Runner(factorspec.cli)
    for req in workload.check_requests(work, seed=7):
        if req["id"] in PICK:
            runner.run(req, timed=True)
    assert sorted(runner.records) == sorted(PICK)
    return runner.records


def corrupt(records, rid, edit):
    """A copy of the records with one field of rid's JSON output edited."""
    bad = copy.deepcopy(records)
    output = bad[rid]["outputs"][0]
    doc = json.loads(output[1])
    edit(doc)
    output[1] = json.dumps(doc)
    return bad


def test_real_outputs_pass(records):
    attempted, failed, correct, problems = checks.tally(records, checks.load_references())
    assert (attempted, failed, correct, problems) == (3, 0, True, [])


@pytest.mark.parametrize("rid, edit", [
    ("int-n10-p50", lambda d: d.update(verdict=not d["verdict"])),
    ("hnb-frac-n16-b4", lambda d: d.update(verdict=not d["verdict"])),
    ("int-n10-p50", lambda d: d.update(min_value=d["min_value"] - 1)),
    ("hnb-frac-n16-b4", lambda d: d.update(min_value=d["min_value"] + 1)),
    ("rho-hnb-n600-b5", lambda d: d.update(rho=d["rho"] * (1 + 1e-7))),
])
def test_corrupted_output_is_counted_failed(records, rid, edit):
    bad = corrupt(records, rid, edit)
    attempted, failed, correct, problems = checks.tally(bad, checks.load_references())
    assert (attempted, failed, correct) == (3, 1, False)
    assert len(problems) == 1 and problems[0].startswith(f"{rid}: wrong")


def test_error_exit_is_failed_but_not_wrong(records):
    bad = copy.deepcopy(records)
    bad["rho-hnb-n600-b5"]["outputs"][0][0] = 2
    attempted, failed, correct, problems = checks.tally(bad, checks.load_references())
    assert (attempted, failed, correct) == (3, 1, True)


def test_differing_repeats_are_wrong(records):
    bad = copy.deepcopy(records)
    bad["rho-hnb-n600-b5"]["outputs"].append([0, "{}", ""])
    attempted, failed, correct, problems = checks.tally(bad, checks.load_references())
    assert (failed, correct) == (1, False)
