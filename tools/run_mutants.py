"""Run the committed mutation kill-list, ``tools/mutants.json``.

Each entry names a file, an ``old`` text that must occur in it exactly once,
the ``new`` text that replaces it, and either ``kill``, the one test that must
fail under the mutant, or ``equivalent``, the reason no test can tell it from
the program.  The runner copies the working tree, without ``.git`` and
caches, to a temporary directory and runs every named test there once
unmutated (each must pass).  Then it applies one mutant at a time and runs
only its named test.  It writes nothing in the checkout.

    python tools/run_mutants.py            # every entry
    python tools/run_mutants.py NAME ...   # only these entries

Exit status 0 when every mutant is killed, 1 when one survives, when a named
test fails unmutated, or when an entry does not apply exactly once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KILL_LIST = ROOT / "tools" / "mutants.json"
SKIPPED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".bench_run")


def load(names: list[str]) -> list[dict]:
    entries = json.loads(KILL_LIST.read_text())
    unknown = set(names) - {e["name"] for e in entries}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    return [e for e in entries if not names or e["name"] in names]


def problems(entry: dict) -> list[str]:
    """What keeps an entry from applying as one mutant with one verdict."""
    found = []
    if ("kill" in entry) == ("equivalent" in entry):
        found.append("needs exactly one of 'kill' and 'equivalent'")
    if entry["old"] == entry["new"]:
        found.append("old and new text are equal")
    count = (ROOT / entry["file"]).read_text().count(entry["old"])
    if count != 1:
        found.append(f"old text occurs {count} times in {entry['file']}")
    return found


def pytest(tree: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    # hypothesis's pytest plugin can turn a failing example into an internal
    # error (exit 3) under filterwarnings = error; without it, @given still
    # runs and a failing example is an ordinary failure (exit 1)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-p", "no:hypothesispytest", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main(argv: list[str]) -> int:
    entries = load(argv)
    failed = False
    for entry in entries:
        for problem in problems(entry):
            print(f"BROKEN    {entry['name']}: {problem}")
            failed = True
    if failed:
        return 1
    runnable = [e for e in entries if "kill" in e]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*SKIPPED))
        tests = sorted({e["kill"] for e in runnable})
        if tests and pytest(tree, tests) != 0:
            print("BROKEN    the named tests do not all pass on the unmutated tree")
            return 1
        for entry in entries:
            if "equivalent" in entry:
                print(f"EQUIV     {entry['name']}: {entry['equivalent']}")
                continue
            path = tree / entry["file"]
            original = path.read_text()
            path.write_text(original.replace(entry["old"], entry["new"]))
            start = time.perf_counter()
            try:
                code = pytest(tree, [entry["kill"]])
            finally:
                path.write_text(original)
            took = time.perf_counter() - start
            # 1 is "tests failed"; any other code is an error, not a kill
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR({code})"
            failed |= code != 1
            print(f"{verdict:<9} {entry['name']} by {entry['kill']} ({took:.1f} s)")
    print(f"{len(runnable)} mutants run, {len(entries) - len(runnable)} equivalent: "
          f"{'FAIL' if failed else 'all killed'}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
