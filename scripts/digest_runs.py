#!/usr/bin/env python3
"""Run the batch pipeline on configs and print one sha256 per data file.

    python3 scripts/digest_runs.py [configs/*.json ...]

Each config runs through `run_experiment` into a fresh temporary directory.
Every file except `manifest.json` (which carries timings) is hashed, one line
per file as `<sha256>  <config>/<run dir>/<file>`, followed by a total over
all lines. Two checkouts, or two reruns, with the same BLAS thread count
(e.g. OPENBLAS_NUM_THREADS=1) produce identical output exactly when their
data files are byte-identical, so `diff` of two outputs replaces a manual
comparison.
"""

import argparse
import glob
import hashlib
import os
import tempfile

from annealbound import ExperimentConfig, run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", help="config paths (default configs/*.json)")
    args = ap.parse_args()
    configs = args.configs or sorted(glob.glob("configs/*.json"))

    lines = []
    for path in configs:
        name = os.path.splitext(os.path.basename(path))[0]
        with tempfile.TemporaryDirectory() as out:
            run_experiment(ExperimentConfig.from_file(path), out_dir=out)
            for root, _, files in sorted(os.walk(out)):
                for fname in sorted(files):
                    if fname == "manifest.json":
                        continue
                    full = os.path.join(root, fname)
                    with open(full, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    lines.append(f"{digest}  {name}/{os.path.relpath(full, out)}")
    for line in lines:
        print(line)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{total}  total ({len(lines)} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
