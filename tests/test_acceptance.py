"""Acceptance criteria, one test per criterion.

Each criterion is a named CLI suite (`fimlab verify-paper --suite ...`);
the tests run the suite through the CLI entry point (the session's
``verify_paper`` fixture, whose reports the golden digests also read),
assert every check passed, enforce the stated time budget, and print one
pass/fail line.  All arithmetic underneath is exact rational.
"""

import pytest

CRITERIA = [
    # (number, description, suite name, budget seconds)
    (1, "shift/derivative decompositions of free modules", "lemma2.3", 60),
    (2, "shift and kernel functors commute", "commutation", 60),
    (3, "torsion detection and filtration", "torsion", 120),
    (4, "homological degree drop and inequalities", "degree", 120),
    (5, "semi-induced detection with witnesses", "semiinduced", 120),
    (6, "shift theorem search with certificates", "thm1", 300),
    (7, "group factor: adjunction, averaging, Ext", "group", 120),
    (8, "cogeneration by injective members", "thm4.10", 300),
    (9, "injective classification evidence", "thm2", 600),
    (10, "serialization round trip and validation", "roundtrip", 60),
]


@pytest.mark.parametrize("number,desc,suite,budget", CRITERIA,
                         ids=[f"criterion-{c[0]:02d}-{c[2]}" for c in CRITERIA])
def test_acceptance_criterion(capsys, verify_paper, number, desc, suite, budget):
    code, payload = verify_paper(suite)
    report = payload["suites"][0]
    elapsed = report["elapsed_seconds"]
    failures = [c for c in report["checks"] if not c["ok"]]
    verdict = "PASS" if (code == 0 and not failures and elapsed < budget) else "FAIL"
    with capsys.disabled():
        print(
            f"[{verdict}] criterion {number}: {desc} "
            f"({len(report['checks'])} checks, {elapsed:.1f}s, budget {budget}s)"
        )
    assert code == 0, f"suite {suite} exited nonzero"
    assert not failures, f"failing checks: {[c['name'] for c in failures][:5]}"
    assert elapsed < budget, f"suite {suite} exceeded its {budget}s budget"
