#!/usr/bin/env python3
"""Compare two campaign reports trial by trial.

Usage: python scripts/compare_campaigns.py OLD.json NEW.json

Both files are `run_fuzz_campaign.py` reports of the same config.  Prints how
many trials moved (any report field differs), and for each numeric report
field the number of trials where it moved and the largest |Δ| with its
trial.  Exit code 1 if any trial's holds, not_evaluable or statuses changed,
or the two reports do not hold the same trials; 0 otherwise.
"""

import argparse
import json
import sys

VERDICT_FIELDS = ("holds", "not_evaluable", "statuses")


def load_trials(path: str) -> dict:
    with open(path) as fh:
        return {t["index"]: t for t in json.load(fh)["trials"]}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(old: dict, new: dict) -> tuple[list[str], bool]:
    """The summary lines and whether any verdict, not-evaluable flag or status changed."""
    if old.keys() != new.keys():
        return [f"the reports hold different trials: {len(old)} against {len(new)}"], True
    moved = 0
    changed = []          # (index, field) of verdict changes
    largest = {}          # field -> (|Δ|, index, moves)
    for index in sorted(old):
        a, b = old[index]["report"], new[index]["report"]
        if a != b or old[index]["scenario"] != new[index]["scenario"]:
            moved += 1
        changed += [(index, name) for name in VERDICT_FIELDS if a.get(name) != b.get(name)]
        for name in sorted(a.keys() | b.keys()):
            x, y = a.get(name), b.get(name)
            if is_number(x) and is_number(y) and x != y:
                delta, _, moves = largest.get(name, (-1.0, None, 0))
                if abs(y - x) > delta:
                    largest[name] = (abs(y - x), index, moves + 1)
                else:
                    largest[name] = (delta, largest[name][1], moves + 1)
    lines = [f"{moved} of {len(old)} trials moved"]
    for name, (delta, index, moves) in sorted(largest.items()):
        lines.append(f"  {name}: {moves} moved, largest |delta| {delta:.3g} at trial {index} "
                     f"({old[index]['scenario']['f']}, {old[index]['scenario'].get('g', '-')}, "
                     f"p = {old[index]['scenario']['p']})")
    for index, name in changed:
        lines.append(f"  CHANGED trial {index} {name}: {old[index]['report'].get(name)!r} -> "
                     f"{new[index]['report'].get(name)!r}")
    lines.append(f"{len(changed)} verdict, not-evaluable or status changes")
    return lines, bool(changed)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args()
    lines, changed = compare(load_trials(args.old), load_trials(args.new))
    print("\n".join(lines))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
