"""The package surface as the README shows it and as ``__all__`` exports it."""

from pathlib import Path

import bsgx

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_surface_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library surface\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    # gen_random(63, 127, 7) at eps 1/4 takes branch Q: |A'| = 47, |A'-A'| = 127
    assert capsys.readouterr().out.splitlines()[0] == "Q 47 127"


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from bsgx import *", namespace)
    del namespace["__builtins__"]
    assert len(set(bsgx.__all__)) == len(bsgx.__all__)
    assert sorted(namespace) == sorted(bsgx.__all__)
