"""Fail unless two run directories' manifests list the same files, byte
for byte, but for config.json, which records the worker count.

    python3 .github/scripts/same_manifests.py runs/desk-w1 runs/desk-w2
"""

import json
import os
import sys


def listed(run):
    with open(os.path.join(run, "manifest.json"), encoding="utf-8") as fh:
        return [e for e in json.load(fh)["files"] if e["path"] != "config.json"]


if __name__ == "__main__":
    first, second = sys.argv[1:]
    sys.exit("manifests differ" if listed(first) != listed(second) else None)
