"""Record the canonical payload digest of `psdo verify --seed S` for the
seeds the battery workload ships with, 0..63.

    python3 bench/record_digests.py

Run from the root of a source checkout. The ROADMAP requires these
payloads to stay byte-identical, so the file changes only when a change
is meant to alter a verdict or a detail string.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEEDS = range(64)


def main() -> int:
    digests = {}
    for seed in SEEDS:
        code, text = workloads.call_cli(["verify", "--seed", str(seed)])
        if code != 0:
            print(f"seed {seed}: psdo verify exited {code}", file=sys.stderr)
            return 1
        digests[str(seed)] = workloads.battery_digest(text)
    workloads.DIGESTS_FILE.write_text(json.dumps({"seeds": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
