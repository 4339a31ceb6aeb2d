"""Fail unless two run directories' manifests list the same files, byte
for byte, but for config.json, which records the worker count.  On a
difference, print each path that only one run lists or whose entries
differ, with both entries.

    python3 .github/scripts/same_manifests.py runs/desk-w1 runs/desk-w2
"""

import json
import os
import sys


def listed(run):
    with open(os.path.join(run, "manifest.json"), encoding="utf-8") as fh:
        return [e for e in json.load(fh)["files"] if e["path"] != "config.json"]


def differences(first, second):
    """One line per path that only one of the entry lists holds or whose
    entries differ."""
    a, b = ({e["path"]: e for e in entries} for entries in (first, second))
    lines = []
    for path in sorted(a.keys() | b.keys()):
        if path not in b:
            lines.append(f"{path}: only in the first run")
        elif path not in a:
            lines.append(f"{path}: only in the second run")
        elif a[path] != b[path]:
            lines.append(f"{path}: {json.dumps(a[path])} != {json.dumps(b[path])}")
    return lines


if __name__ == "__main__":
    first, second = map(listed, sys.argv[1:])
    if first != second:
        lines = differences(first, second) or ["the same paths and entries, listed otherwise"]
        sys.exit("manifests differ:\n" + "\n".join(f"  {line}" for line in lines))
