"""Record the sha256 of every CLI query's output into ``digests.json``.

The benchmark fails any CLI query whose output differs from the digest
recorded here, so run this only when an output change is intended:

    python3 bench/record_digests.py
"""

from __future__ import annotations

import json
import sys

from worker import DIGESTS, setup  # sets up sys.path for the checkout
from workloads import WORKLOADS, Sink, sha256_hex, cli_queries


def main() -> int:
    from parabolics import cli

    digests = {}
    for workload in WORKLOADS:
        setup(workload)
        for q in cli_queries(workload):
            sink = Sink()
            if cli.run(list(q.payload), sink) != 0:
                print(f"non-zero exit: {q.key}", file=sys.stderr)
                return 1
            digests[q.key] = sha256_hex("".join(sink.chunks))
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
