"""Write digests.json: the output digests of every workload at the default seed.

    python3 bench/pin_digests.py

Run it from the root of a checkout.  Every workload's pass must first pass
its full output check; the digests then pin the exact outputs, which the
benchmark compares on every run with the default seed.
"""

import json
import os
import shutil
import sys
from pathlib import Path


def main():
    root = Path.cwd()
    os.environ["PYTHONPATH"] = str(root / "src")
    sys.path.insert(0, str(root / "src"))
    import workloads

    pinned = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = workloads.BENCH_DIR / "out" / f"pin-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            inputs = workload.make_inputs(workloads.DEFAULT_SEED, workdir)
            outputs, errors, _ = workload.run_pass(inputs, lambda: None)
            failed = workload.check(inputs, outputs)
            if failed:
                print(f"error: {name}: {sorted(failed)} {errors}", file=sys.stderr)
                return 1
            pinned[name] = workload.digests(outputs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(pinned[name])} digests")
    workloads.PINNED_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
