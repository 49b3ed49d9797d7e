"""Run every bundled recipe through ``harness.run``.

    PYTHONPATH=src python3 scripts/run_recipes.py OUT

Each recipe ``<name>`` writes its ``report.csv``, spectrum dumps and field
CSVs into ``OUT/<name>``.  The outputs of two trees are compared with
``diff -r`` of their two ``OUT`` directories: a change that should not move
any number leaves no difference.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from sparsedyn import harness


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory that gets one folder per recipe")
    out = parser.parse_args().out
    for name in harness.bundled_recipes():
        harness.run(harness.load_recipe(name), out / name)
        print(name)


if __name__ == "__main__":
    main()
