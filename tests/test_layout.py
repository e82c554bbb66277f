"""The README's library layout names exactly the package's modules."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_layout_lists_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `structlabor\.(\w+)`", section, flags=re.M)
    modules = sorted(path.stem for path in (ROOT / "src" / "structlabor").glob("*.py") if path.stem != "__init__")
    assert sorted(listed) == modules
    assert len(set(listed)) == len(listed)
    for name in listed:
        importlib.import_module(f"structlabor.{name}")
