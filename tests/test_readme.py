"""The README's library quick start runs and its config block loads as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("completed")


def test_readme_config_block_is_the_defaults(tmp_path):
    from polardirac import cli

    text = README.read_text().split("### Config keys", 1)[1]
    block = re.search(r"```yaml\n(.*?)```", text, re.S).group(1)
    path = tmp_path / "readme.yaml"
    path.write_text(block)
    assert cli.load_config(str(path)) == cli.DEFAULTS
