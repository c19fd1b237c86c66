"""The golden corpus: every committed CLI case still gives its exact stdout, first and last stderr line and exit code.

Regenerate tests/golden/cases.json with tests/golden/generate.py only for an
intended output change; its diff then lists the cases that moved.
"""

import json
from pathlib import Path

import pytest

from golden.generate import CORPUS, INPUTS, _cases, run_case

_CORPUS = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("case", _CORPUS["cases"], ids=[case["id"] for case in _CORPUS["cases"]])
def test_case_matches_the_corpus(case, tmp_path):
    expected = {key: case[key] for key in ("stdout", "stderr", "stderr_last", "exit")}
    assert run_case(case, _CORPUS["inputs"], Path(tmp_path)) == expected


def test_corpus_holds_the_generated_cases():
    # an edit to the case list or an input that was never regenerated shows here, not as a failing case
    recorded = [{key: case[key] for key in ("id", "args", "input", "guard")} for case in _CORPUS["cases"]]
    assert recorded == _cases()
    assert _CORPUS["inputs"] == INPUTS
