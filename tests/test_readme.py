"""README's library example runs as written."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(compile(block, str(README), "exec"), {})
