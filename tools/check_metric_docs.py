#!/usr/bin/env python3
"""Checks that docs/OBSERVABILITY.md documents every metric under src/.

Every "doppio.*" string literal under src/ names a metric. A literal ending
in "." is a prefix completed at run time ("doppio.engine." + id + ...); it
is documented by a table name that continues it with a <placeholder>. Table
names may use {a,b} alternatives and a trailing * wildcard. The check also
fails on a documented name that no literal under src/ produces.

Usage: python3 tools/check_metric_docs.py [repo-root]
"""
import itertools
import pathlib
import re
import sys

root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                    pathlib.Path(__file__).resolve().parent.parent)
literals = set()
for path in sorted((root / "src").rglob("*")):
    if path.suffix in (".h", ".cc"):
        literals.update(re.findall(r'"(doppio\.[A-Za-z0-9_.]*)"',
                                   path.read_text()))

documented = []
for line in (root / "docs" / "OBSERVABILITY.md").read_text().splitlines():
    cell = line.split("|")[1].strip() if line.startswith("| `doppio.") else ""
    for name in re.findall(r"`(doppio\.[^`]+)`", cell):
        parts = re.split(r"\{([^}]*)\}", name)
        options = [p.split(",") if i % 2 else [p] for i, p in enumerate(parts)]
        documented += ["".join(o) for o in itertools.product(*options)]


def pattern(name):
    regex = re.escape(name).replace(r"\*", r"[\w.]*")
    return re.compile(re.sub(r"<[^>]*>", r"[^.]+", regex) + "$")


def covers(name, literal):
    if literal.endswith("."):
        return name.startswith(literal + "<")
    return "<" not in name and pattern(name).match(literal) is not None


undocumented = sorted(l for l in literals
                      if not any(covers(n, l) for n in documented))
stale = sorted(n for n in documented
               if not any(covers(n, l) for l in literals))
for name in undocumented:
    print(f"undocumented metric: {name}")
for name in stale:
    print(f"documented metric not registered under src/: {name}")
sys.exit(1 if undocumented or stale else 0)
