"""Record the reference outputs every benchmark pass is checked against.

    python3 cfsbench/record.py [workload ...]

Runs one pass of each input variant of the named workloads (all by default)
and writes their digests into ``cfsbench/refs.json``, keeping the entries of
workloads not named.  Run it only on a commit whose outputs are known good:
the references define what counts as a correct pass.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import VARIANTS, WORKLOADS  # noqa: E402


def main(argv) -> int:
    names = argv or list(WORKLOADS)
    path = HERE / "refs.json"
    doc = json.loads(path.read_text()) if path.exists() else {"variants": VARIANTS, "workloads": {}}
    if doc["variants"] != VARIANTS:
        doc = {"variants": VARIANTS, "workloads": {}}
    nproc = len(os.sched_getaffinity(0))
    warnings.simplefilter("ignore")
    for name in names:
        workload = WORKLOADS[name]
        entries = {}
        for variant in range(VARIANTS):
            with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
                state = workload.setup(variant, nproc, Path(tmp))
                out = workload.run(state)
                problems = workload.verify(state, out)
                if problems:
                    print(f"{name} variant {variant}:", *problems, sep="\n  ", file=sys.stderr)
                    return 1
                entries[str(variant)] = workload.digest(state, out)
            print(f"{name} variant {variant}: {json.dumps(entries[str(variant)])[:100]}")
        doc["workloads"][name] = entries
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
