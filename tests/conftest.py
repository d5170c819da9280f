"""Shared fixtures.

``verify_paper`` runs ``fimlab verify-paper --suite <name>`` through the CLI
entry point at most once per suite and test session, so the acceptance
criteria and the golden digests read the same reports instead of computing
``suites.run_all(0)`` twice.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fimlab.cli import main


@pytest.fixture(scope="session")
def verify_paper():
    """``verify_paper(suite)`` -> (exit code, parsed JSON output)."""
    runs = {}

    def run(suite):
        if suite not in runs:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(["verify-paper", "--suite", suite])
            runs[suite] = code, json.loads(out.getvalue())
        return runs[suite]

    return run
