"""Every ```python block of README.md runs as written."""

import os
import re

import pytest

_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _python_blocks() -> list[str]:
    with open(_README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.M | re.S)


BLOCKS = _python_blocks()


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, tmp_path, monkeypatch):
    # run in a scratch directory, since a block may write files
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
