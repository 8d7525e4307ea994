"""Write snapshot.json: the rendered --json output of every exact op.

    PYTHONPATH=src python3 bench/make_snapshot.py

Run from the repository root.  The exact layer's output is meant never to
change, so regenerate only together with a deliberate, reviewed change of
that output.  The table output is stored in full (its E6 entry is the
computed 6); every other op is stored as a digest of its bytes.
"""

from __future__ import annotations

import json
import sys

from check import DIGEST_CHARS, SNAPSHOT_PATH, digest, pool_digest
from workloads import exact_pool


def main() -> int:
    from quasiham.cli import dispatch, render

    table_json = None
    digests = {}
    for op in exact_pool():
        _, payload = dispatch(op.argv)
        text = render(payload, as_json=True)
        if op.key == "table":
            table_json = text
        else:
            digests[op.key] = digest(text)
    snapshot = {
        "about": f"sha256 of each exact op's rendered --json output, first {DIGEST_CHARS} "
                 "hex digits; the table output in full",
        "check_class_pool": pool_digest(),
        "table_json": table_json,
        "digests": digests,
    }
    with open(SNAPSHOT_PATH, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests) + 1} ops to {SNAPSHOT_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
