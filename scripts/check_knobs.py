#!/usr/bin/env python3
"""Checks the DYNO_* knob list (src/common/knobs.h) against its readers.

Two checks, both against the table `dyno_knobs` renders from the list:
  1. README.md's knob table, between the knob-table markers, equals it.
  2. Every "DYNO_..." string literal in the C++ sources under src/, bench/,
     examples/ and tests/, and every `environment` key of a preset in
     CMakePresets.json, names a row. A misspelled variable would otherwise
     run its regime with the knob silently off.

Usage: scripts/check_knobs.py [--build DIR] [--write]
  --build DIR  build tree holding examples/dyno_knobs (default: build)
  --write      rewrite README's table from the list instead of comparing
Exits 0 when both checks pass, 1 when one fails, 2 on a usage error.
"""

import argparse
import difflib
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BEGIN = "<!-- knob-table:begin -->\n"
END = "<!-- knob-table:end -->\n"
SOURCE_DIRS = ("src", "bench", "examples", "tests")
SOURCE_SUFFIXES = (".cc", ".h", ".cpp")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build", default="build")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    tool = ROOT / args.build / "examples" / "dyno_knobs"
    if not tool.is_file():
        print(f"check_knobs: {tool} not built", file=sys.stderr)
        return 2
    table = subprocess.run([str(tool)], check=True, capture_output=True,
                           text=True).stdout
    names = set(re.findall(r"^\| `(DYNO_[A-Z0-9_]+)`", table, re.M))

    readme_path = ROOT / "README.md"
    readme = readme_path.read_text()
    if readme.count(BEGIN) != 1 or readme.count(END) != 1:
        print("check_knobs: README.md needs one pair of knob-table markers",
              file=sys.stderr)
        return 2
    head, rest = readme.split(BEGIN)
    current, tail = rest.split(END)
    failed = False
    if args.write:
        readme_path.write_text(head + BEGIN + table + END + tail)
    elif current != table:
        failed = True
        print("check_knobs: README.md's knob table differs from the list "
              "(scripts/check_knobs.py --write rewrites it):")
        sys.stdout.writelines(difflib.unified_diff(
            current.splitlines(True), table.splitlines(True),
            "README.md", "dyno_knobs"))

    for directory in SOURCE_DIRS:
        for path in sorted((ROOT / directory).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            for number, line in enumerate(path.read_text().splitlines(), 1):
                for name in re.findall(r'"(DYNO_[A-Za-z0-9_]*)', line):
                    if name not in names:
                        failed = True
                        print(f"{path.relative_to(ROOT)}:{number}: {name} "
                              "is not a knob")

    presets = json.loads((ROOT / "CMakePresets.json").read_text())
    for kind, entries in presets.items():
        if not isinstance(entries, list):
            continue
        for preset in entries:
            for name in preset.get("environment", {}):
                if name not in names:
                    failed = True
                    print(f"CMakePresets.json: {kind} '{preset['name']}': "
                          f"{name} is not a knob")

    if failed:
        return 1
    print(f"check_knobs: {len(names)} knobs; README's table, the source "
          "literals and the preset environments agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
