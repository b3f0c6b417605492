"""Acceptance battery: ten headline checks, exact equality throughout.

Each test prints one line; flagged entries report known misprints in the
reproduced source and never fail a criterion.
"""

import hashlib
import json

import pytest

from edsx import __version__, papercheck

ORDER = [key for key, _ in papercheck.CHECKS]


@pytest.fixture(scope="module")
def results():
    out = {}
    for key, fn in papercheck.CHECKS:
        out[key] = fn(1000) if key == "property-suites" else fn()
    return out


@pytest.mark.parametrize("num,key", list(enumerate(ORDER, start=1)),
                         ids=["%02d-%s" % (i, k)
                              for i, k in enumerate(ORDER, start=1)])
def test_criterion(results, num, key):
    res = results[key]
    verdict = "PASS" if res.passed else "FAIL"
    print("criterion %02d %-22s %s" % (num, res.key, verdict))
    bad = [l["text"] for l in res.lines if l["status"] == "fail"]
    assert res.passed, "criterion %d (%s) failed:\n%s" % (
        num, res.key, "\n".join("  " + t for t in bad))


# sha256 and length of the bytes `edsx paper-check --json` prints; the
# payload is built as cli.cmd_paper_check builds it, from the results above
PAPER_CHECK_JSON_SHA256 = (
    "399692a260118d5087043cf42b0584da26f0f753a06c9be471a191f0e58cd6cd")
PAPER_CHECK_JSON_BYTES = 22827


def test_paper_check_json_is_pinned(results):
    checks = [results[key] for key in ORDER]
    flagged = [l["text"] for res in checks for l in res.lines
               if l["status"] == "flagged"]
    payload = {"command": "paper-check", "cases": 1000,
               "checks": [res.to_json() for res in checks],
               "flagged": flagged,
               "passed": all(res.passed for res in checks),
               "tool": "edsx", "version": __version__}
    out = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    assert len(out) == PAPER_CHECK_JSON_BYTES
    assert hashlib.sha256(out).hexdigest() == PAPER_CHECK_JSON_SHA256
