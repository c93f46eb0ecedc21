"""Compare two benchmark results metric by metric.

usage: python3 perfbench/compare.py BASE.json NEW.json

BASE and NEW are result files written by run.py to perfbench/out/.  Two
results are comparable only when they ran the same workload and trace mode on
the same polynomial kernel and rational type; otherwise this exits with code 2.
"""

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = (load(p) for p in argv)
    for key in ("kernel", "qq"):
        if base["provenance"][key] != new["provenance"][key]:
            print(f"refusing to compare: {key} is {base['provenance'][key]!r} "
                  f"in {argv[0]} and {new['provenance'][key]!r} in {argv[1]}", file=sys.stderr)
            sys.exit(2)
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refusing to compare: different {key}", file=sys.stderr)
            sys.exit(2)
    print(f"{base['workload']}: seed {base['seed']} at {base['provenance']['git_revision']} "
          f"vs seed {new['seed']} at {new['provenance']['git_revision']}")
    for name, b in base["result"]["metrics"].items():
        n = new["result"]["metrics"][name]
        ratio = f"{n['value'] / b['value']:.3f}" if b["value"] else "-"
        print(f"{name:40s} {b['value']:>14.6g} {n['value']:>14.6g} {b['unit']:>6s}  new/base {ratio}")


if __name__ == "__main__":
    main(sys.argv[1:])
