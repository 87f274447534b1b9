"""The README's library example runs as written, on the README's own bubble."""
import json
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_library_example_runs_on_the_documented_bubble(tmp_path, monkeypatch):
    (example,) = re.findall(r"```python\n(.*?)```", README, re.S)
    (bubble,) = re.findall(r"^`(\{\"d\".*\})`$", README, re.M)
    (tmp_path / "bubble.json").write_text(json.dumps(json.loads(bubble)))
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
