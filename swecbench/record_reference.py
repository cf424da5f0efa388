"""Record the waveform sha256 of every dataset the workloads can build.

    python3 swecbench/record_reference.py

Run at the commit whose synthesis is the reference; writes
swecbench/reference_hashes.json. Every build in a benchmark run must match
its entry bit for bit.
"""

import json
import sys

import rep
from swec import synthgrid


def main() -> int:
    hashes = {}
    for seed in range(rep.REFERENCE_SEEDS):
        for workload in rep.WORKLOADS:
            ds_config = rep.dataset_config(workload, seed)
            key = rep.reference_key(ds_config)
            if key not in hashes:
                hashes[key] = rep.waveform_sha256(synthgrid.build_dataset(ds_config))
        print(f"seed {seed}: {len(hashes)} datasets", file=sys.stderr)
    rep.REFERENCE_FILE.write_text(json.dumps(hashes, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
