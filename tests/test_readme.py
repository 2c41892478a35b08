"""Every ``python`` block of the README runs as written."""

import pytest

from test_imports import REPO, readme_python_blocks

BLOCKS = readme_python_blocks((REPO / "README.md").read_text())


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
