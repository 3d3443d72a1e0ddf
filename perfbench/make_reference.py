"""Record perfbench/reference.json from the library as it is now.

    python3 perfbench/make_reference.py

It holds the detection-delay reference that the detection_delay check
compares against, and the default seed's exact estimates for the first
operations of every workload (the bit-identity record). Record it again
only when a change alters the random streams on purpose, and say so.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WADD_TRIALS = 40_000
WADD_SEED_TAG = 100


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import mecusum
    import numpy as np
    from mecusum import cli, estimate_wadd

    import workloads

    wadd = {}
    for idx, label in enumerate(workloads.DetectionDelay.trials):
        cfg = cli.parse_config(workloads.policy_config(label, 1))
        est = estimate_wadd(cfg.policy, cfg.scenario.models, WADD_TRIALS, (WADD_SEED_TAG, idx))
        wadd[label] = [est.sim_mean, est.std_error]
        print(f"wadd {label}: {est.sim_mean:.4f} +- {est.std_error:.4f}", file=sys.stderr)

    exact = {}
    for name, cls in workloads.WORKLOADS.items():
        parsed = {label: cli.parse_config(c) for label, c in cls.configs().items()}
        wl = cls(workloads.DEFAULT_SEED, parsed)
        exact[name] = [wl.record(wl.op(k, mecusum)) for k in range(cls.reference_ops)]
        print(f"exact {name}: {cls.reference_ops} operations", file=sys.stderr)

    data = {
        "recorded_with": {"python": platform.python_version(), "numpy": np.__version__},
        "wadd_trials": WADD_TRIALS,
        "wadd": wadd,
        "exact_seed": workloads.DEFAULT_SEED,
        "exact": exact,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
