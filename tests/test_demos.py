import json
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parents[1] / "demos"
DEMO_REFERENCE = json.loads(
    (Path(__file__).parent / "reference" / "demos_stdout.json").read_text()
)


def test_every_demo_has_a_reference():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_REFERENCE)


@pytest.mark.parametrize("name", sorted(DEMO_REFERENCE))
def test_demo_stdout_matches_the_recorded_reference(capsys, name):
    # every byte each demo prints
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out == DEMO_REFERENCE[name]
