"""One benchmark round in this interpreter; prints its record as one JSON line.

usage: python3 perfbench/round.py WORKLOAD SEED TRACE SMOKE [SPANS_PATH]
"""

import json
import sys

from tracer import Tracer
from workloads import run_round


def main(argv):
    name, seed, trace, smoke = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    tracer = Tracer() if trace else None
    rec = run_round(name, seed, smoke, tracer)
    if tracer is not None:
        rec["layers"] = tracer.layer_metrics()
        rec["spans"] = len(tracer.spans)
        if len(argv) > 4:
            tracer.write_spans(argv[4])
    print(json.dumps(rec))


if __name__ == "__main__":
    main(sys.argv[1:])
