"""DESIGN.md §3 names every library module and C source, and only ones that exist.

The inventory block lists a top-level file or a package directory at an
indent of two spaces and a package's files at four; deeper lines continue
a description. A name column holds one or more names separated by two
spaces, then the description starts.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def design_inventory():
    text = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("\n## 3.", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    paths, package = set(), ""
    for line in block.splitlines():
        indent = len(line) - len(line.lstrip(" "))
        if indent not in (2, 4):
            continue  # the src/repro/ root, or a description continuation
        names = re.split(r"\s{2,}", line.strip())
        if names[0].endswith("/"):
            package = names[0]
            continue
        for name in names:
            if not name.endswith((".py", ".c")):
                break  # the description
            paths.add(name if indent == 2 else package + name)
    return paths


def test_design_inventory_matches_the_source_tree():
    modules = {
        path.relative_to(SRC).as_posix()
        for pattern in ("*.py", "*.c")
        for path in SRC.rglob(pattern)
        if path.name not in ("__init__.py", "__main__.py")
    }
    listed = design_inventory()
    assert sorted(listed - modules) == [], "DESIGN §3 names missing modules"
    assert sorted(modules - listed) == [], "DESIGN §3 omits modules"
