#!/usr/bin/env python
"""Record the golden float64 search trajectories.

Two golden files pin the search engines bit for bit:

* ``tests/data/golden_tiny_supernet.npz`` — the seeded tiny bi-level
  supernet search that ``tests/core/test_engine_bit_parity.py`` replays
  (trajectory series, derived architecture, final supernet state);
* ``tests/data/golden_surrogate.npz`` — the surrogate-mode searches that
  ``tests/core/test_surrogate_golden.py`` replays (a paper-default search
  under the cached latency MLP and a tiny-space search under the analytic
  MACs predictor: trajectory series, derived architecture, final α / λ /
  Adam state).

Run this ONLY to (re-)establish a golden reference — i.e. from a tree
whose engine is known-good, or after a deliberate, documented numerical
change.  The parity tests assert bit-for-bit equality against these files.

Usage::

    PYTHONPATH=src python scripts/capture_golden_trajectory.py supernet
    PYTHONPATH=src python scripts/capture_golden_trajectory.py surrogate
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from tests.core import test_engine_bit_parity, test_surrogate_golden

#: golden name → (output path, function returning the arrays to pin)
GOLDENS = {
    "supernet": (test_engine_bit_parity.GOLDEN_PATH,
                 test_engine_bit_parity.run_golden_search),
    "surrogate": (test_surrogate_golden.GOLDEN_PATH,
                  test_surrogate_golden.run_golden_surrogate_searches),
}


def capture(name: str) -> None:
    golden_path, run = GOLDENS[name]
    arrays = run()
    path = os.path.abspath(golden_path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez(path, **arrays)
    print(f"wrote {path} ({len(arrays)} arrays)")
    for key in sorted(arrays):
        if "traj_" in key or "final_" in key:
            print(f"  {key}: {np.asarray(arrays[key]).tolist()}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("golden", choices=sorted(GOLDENS),
                        help="which golden file to (re-)record")
    capture(parser.parse_args().golden)


if __name__ == "__main__":
    main()
