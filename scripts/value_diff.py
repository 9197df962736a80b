#!/usr/bin/env python3
"""Classify every value that differs between two cli_outputs.py trees.

OLD and NEW are output directories of scripts/cli_outputs.py.  Each changed
leaf is one of:

    rounding     numbers at most 4 ulp apart
    up           a larger number in NEW
    down         a smaller number in NEW
    count        a JSON integer on both sides, such as starts_converged or
                 index: a tally, never a value that moved
    non-numeric  anything else: text, a flag, a key, a row or a file that
                 one tree lacks, or a number that is not finite
    exit         a changed exit code

A changed usage error (a .err file) is one non-numeric change, shown by
its last line, the error itself.  JSON outputs are walked key by key; csv
and table outputs cell by cell, each cell named by its line and column
header.  The script prints one row per command with its counts and its
worst case, the largest relative change of a number that is not a count,
and exits 0 whatever differs, so it reports next to `diff -r` and never
stands in for it:

    python scripts/value_diff.py out-base out-head

It exits 2 when a tree cannot be read.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import struct
import sys
from collections import Counter
from pathlib import Path

CLASSES = ("rounding", "up", "down", "count", "non-numeric", "exit")
ROUNDING_ULPS = 4


def _ordinal(x: float) -> int:
    """The double's position on the number line, in ulps from zero."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _number(leaf):
    """The float of a JSON number or a numeric cell, else None."""
    if isinstance(leaf, bool) or not isinstance(leaf, (int, float, str)):
        return None
    try:
        return float(leaf)
    except ValueError:
        return None


def classify(old, new):
    """(class, relative change or None) of a changed leaf."""
    if all(isinstance(x, int) and not isinstance(x, bool) for x in (old, new)):
        return "count", None
    a, b = _number(old), _number(new)
    # a JSON number that became a string, or back, is a change of text
    if a is None or b is None or isinstance(old, str) != isinstance(new, str) \
            or not (math.isfinite(a) and math.isfinite(b)):
        return "non-numeric", None
    scale = max(abs(a), abs(b))
    rel = abs(b - a) / scale if scale else 0.0
    if abs(_ordinal(a) - _ordinal(b)) <= ROUNDING_ULPS:
        return "rounding", rel
    return ("up" if b > a else "down"), rel


class _Missing:
    """The value at a key or row that one document lacks."""

    def __repr__(self):
        return "<missing>"


_MISSING = _Missing()


def _leaves(old, new, path):
    """(path, old, new) for every leaf at which two JSON documents differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _leaves(old.get(key, _MISSING), new.get(key, _MISSING), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from _leaves(old[i] if i < len(old) else _MISSING,
                               new[i] if i < len(new) else _MISSING, f"{path}[{i}]")
    elif repr(old) != repr(new):
        # repr, not ==: it tells -0.0 from 0.0, 1 from 1.0, and a NaN from itself
        yield path, old, new


def _rows(text: str, suffix: str) -> list[dict]:
    """The rows of a csv or table output as {column: cell}, the columns
    named by its first line."""
    if suffix == ".csv":
        lines = list(csv.reader(io.StringIO(text)))
    else:
        lines = [line.split() for line in text.splitlines()]
    header = lines[0] if lines else []
    return [{header[j] if j < len(header) else str(j): cell for j, cell in enumerate(row)}
            for row in lines[1:]]


def _parsed(text: str, suffix: str):
    if suffix == ".json":
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return text
    return _rows(text, suffix)


def compare_file(name: str, old: str | None, new: str | None):
    """(path, class, relative change, old, new) per changed leaf of one file."""
    if old is None or new is None:
        return [(name, "non-numeric", None, old is not None, new is not None)]
    suffix = Path(name).suffix
    if suffix == ".exit":
        return [] if old == new else [(name, "exit", None, old.strip(), new.strip())]
    if suffix == ".err":
        last = [text.strip().rpartition("\n")[2] for text in (old, new)]
        return [] if old == new else [(name, "non-numeric", None, *last)]
    return [(path, *classify(a, b), a, b)
            for path, a, b in _leaves(_parsed(old, suffix), _parsed(new, suffix), name)]


def _read_tree(root: Path) -> dict[str, str]:
    if not root.is_dir():
        raise OSError(f"{root} is not a directory")
    return {f.name: f.read_text() for f in sorted(root.iterdir()) if f.is_file()}


def compare_trees(old_root: Path, new_root: Path) -> dict[str, list]:
    """{command stem: changed leaves} for every command of either tree."""
    old, new = _read_tree(old_root), _read_tree(new_root)
    out: dict[str, list] = {}
    for name in sorted(old.keys() | new.keys()):
        out.setdefault(Path(name).stem, []).extend(compare_file(name, old.get(name), new.get(name)))
    return out


def _worst(changes) -> str:
    numeric = [c for c in changes if c[2] is not None]
    if numeric:
        path, _, rel, a, b = max(numeric, key=lambda c: c[2])
        return f"{rel:.2g} at {path}: {a!r} -> {b!r}"
    if changes:
        path, _, _, a, b = changes[0]
        return f"{path}: {a!r} -> {b!r}"
    return "-"


def report(diffs: dict[str, list]) -> str:
    width = max([len("command"), *map(len, diffs)])
    lines = ["  ".join([f"{'command':<{width}}", *(f"{c:>11}" for c in CLASSES), "worst"])]
    for stem, changes in diffs.items():
        counts = Counter(c[1] for c in changes)
        lines.append("  ".join([f"{stem:<{width}}", *(f"{counts[c]:>11}" for c in CLASSES),
                                _worst(changes)]))
    changed = sum(1 for changes in diffs.values() if changes)
    lines.append(f"{changed} of {len(diffs)} commands changed")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    try:
        diffs = compare_trees(args.old, args.new)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report(diffs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
