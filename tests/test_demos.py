import ast
import json
import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parents[1] / "demos"
README = Path(__file__).parents[1] / "README.md"
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


def test_the_readme_python_example_prints_what_its_comments_say(capsys):
    # the library example runs as written, and each print's trailing
    # comment describes what it prints
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})
    values_line, csv = capsys.readouterr().out.split("\n", 1)
    values_comment, rows_comment = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    values = ast.literal_eval(values_line)
    assert values_comment == "all three negative"
    assert len(values) == 3 and all(v < 0.0 for v in values)
    rows = [line.split(",") for line in csv.split()[1:]]
    rounded = ["none" if status == "none" else f"{float(lam):.3f}" for _, lam, status in rows]
    assert rows_comment == ", ".join(rounded)
