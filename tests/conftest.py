"""Shared fixtures.

``verify_paper`` runs ``fimlab verify-paper --suite <name>`` through the CLI
entry point at most once per suite and test session, so the acceptance
criteria and the golden digests read the same reports instead of computing
``suites.run_all(0)`` twice.  ``morphism_builds`` counts constructions of
the reference ``Morphism`` in ``oracles.py`` and stops a test that makes
more than 10,000.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fimlab.cli import main

from oracles import Morphism


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


@pytest.fixture
def morphism_builds(monkeypatch):
    """A list that grows by one per ``Morphism`` built; the build after the
    10,000th raises, so a loop over every injection fails fast."""
    builds = []
    check = Morphism.__post_init__

    def counting(self):
        builds.append(self)
        if len(builds) > 10_000:
            raise RuntimeError("more than 10,000 morphisms built")
        check(self)

    monkeypatch.setattr(Morphism, "__post_init__", counting)
    return builds
