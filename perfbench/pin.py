"""Record the reference-output digests of the pinned seeds.

Usage, from the root of the repository::

    python3 perfbench/pin.py

For every seed in ``workloads.PINNED_SEEDS`` it boots a reference kernel,
runs that seed's syscall batches on it and records the SHA-256 of inputs
plus outputs; it also runs the seed's first ``workloads.PINNED_TRIALS``
injection trials and records the SHA-256 of their records.  Both go to
``perfbench/pinned.json``.  Run it only when a change is meant to alter
simulated results; the benchmark reports ``correct: false`` for a
pinned seed whose digest no longer matches.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    syscalls, campaign = {}, {}
    for seed in workloads.PINNED_SEEDS:
        batches, sequence = workloads.syscall_inputs(seed)
        expected = workloads.syscall_reference(batches)
        syscalls[str(seed)] = workloads.syscall_digest(batches, sequence, expected)
        campaign[str(seed)] = workloads.campaign_reference_digest(seed)
    with open(workloads.PINNED_PATH, "w") as handle:
        json.dump(
            {"syscalls": syscalls, "fault_campaign": campaign},
            handle,
            indent=0,
            sort_keys=True,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
