"""The golden corpus: every committed CLI case still gives its exact stdout, first stderr line and exit code.

Regenerate tests/golden/cases.json with tests/golden/generate.py only for an
intended output change; its diff then lists the cases that moved.
"""

import json
from pathlib import Path

import pytest

from golden.generate import CORPUS, run_case

_CORPUS = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("case", _CORPUS["cases"], ids=[case["id"] for case in _CORPUS["cases"]])
def test_case_matches_the_corpus(case, tmp_path):
    expected = {key: case[key] for key in ("stdout", "stderr", "exit")}
    assert run_case(case, _CORPUS["inputs"], Path(tmp_path)) == expected
