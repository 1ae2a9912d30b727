"""Record the ladder answer digests that the benchmark checks.

    python3 bench/record_digests.py FIRST_SEED LAST_SEED

For each seed, hashes (distance, geodesic count, vertex union) of the
first ``LADDER_DIGEST_OPS`` ladder operations and writes the table to
``ladder_digests.json``.  The answers are mathematical facts, so the
table only needs recording again when the ladder input generator changes;
a faster kernel must reproduce it unchanged.
"""

from __future__ import annotations

import json
import sys

from worker import Api
from workloads import LADDER_DIGEST_OPS, LADDER_DIGESTS, Ladder, clear_caches, ladder_digest, lru_caches


def main() -> None:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    api = Api(None)
    digests = {}
    for seed in range(first, last + 1):
        clear_caches(lru_caches(api.farey))
        workload = Ladder(seed, workdir=None)  # ladder writes no input files
        workload.prepare(api)
        summaries = [workload.summarize(i, workload.run(i)) for i in range(LADDER_DIGEST_OPS)]
        digests[str(seed)] = ladder_digest(summaries)
    record = {"ops": LADDER_DIGEST_OPS, "digests": digests}
    LADDER_DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
