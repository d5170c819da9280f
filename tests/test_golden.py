"""Outputs stay byte-identical: every document of the set in
``golden_docs.py`` hashes to the sha256 pinned in ``golden_digests.json``.

The digests were computed before the refactors they guard, and agree under
PYTHONHASHSEED 1 and 2 and under Python 3.10 and 3.11.  A change that means
to alter an output regenerates the file with

    PYTHONPATH=src python tests/golden_docs.py > tests/golden_digests.json

and says in CHANGES.md which documents changed and why.
"""

import json
from pathlib import Path

from golden_docs import digests

from fimlab.suites import SUITES

PINNED = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


def test_outputs_match_pinned_digests(verify_paper):
    # the suite reports come from the same CLI runs as the acceptance tests
    suite_reports = []
    for name in SUITES:
        _, payload = verify_paper(name)
        suite_reports.extend(payload["suites"])
    got = digests(suite_reports)
    assert sorted(got) == sorted(PINNED), "the document set itself changed"
    changed = [name for name, digest in PINNED.items() if got[name] != digest]
    assert not changed, f"documents differ from their pinned digests: {changed}"
