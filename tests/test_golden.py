"""The command-line tool against its committed golden outputs.

Exit code and stderr must match exactly. Weak-engine and non-numeric stdout
must match byte for byte (by sha256). An exact-engine stdout must match with
its exact-engine numbers masked, and each number must lie within its stored
tolerance. See golden_corpus.py for how the expectations are generated.
"""
import json
import math

import pytest

from golden_corpus import CASES, EXPECTED, expectations, is_exact, run, sha256, split_exact

RECORDS = json.loads(EXPECTED.read_text())


def test_corpus_covers_every_case():
    listed = [(name, list(argv)) for name, commands in sorted(CASES.items()) for argv in commands]
    assert [(r["file"], r["argv"]) for r in RECORDS] == listed


@pytest.mark.parametrize(
    "record", RECORDS, ids=[f"{r['file']}:{' '.join(r['argv'])}" for r in RECORDS]
)
def test_output_matches_golden(record):
    code, out, err = run(record["file"], record["argv"])
    assert (code, err) == (record["exit"], record["stderr"])
    if "numbers" not in record:
        assert not (is_exact(record["argv"]) and code == 0)
        assert sha256(out) == record["stdout_sha256"]
        return
    masked, numbers = split_exact(record["argv"], out)
    assert sha256(masked) == record["masked_sha256"]
    assert len(numbers) == len(record["numbers"])
    for (_, where, value), (expected, tol) in zip(numbers, record["numbers"]):
        if math.isnan(expected):
            assert math.isnan(value), where
        else:
            assert abs(value - expected) <= tol, (where, value, expected)


def test_exact_outputs_agree_with_the_oracle():
    # expectations() checks every exact-engine number against the
    # frequency-domain evaluation in frequency_domain.py, and raises if one
    # is off by more than its tolerance.
    assert len(expectations()) == len(RECORDS)
