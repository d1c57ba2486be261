"""The mutation gate's mutants still apply to the code.

`tools/mutants.py` runs each mutant's tests on a mutated copy, outside
Tier-1 (about a minute).  Here only its texts are checked: each mutant's old
text occurs exactly once in its file, so an edit that moves or changes a
mutated line shows at once.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=lambda m: m.name)
def test_the_mutant_applies_once(m):
    assert (ROOT / m.file).read_text().count(m.old) == 1
