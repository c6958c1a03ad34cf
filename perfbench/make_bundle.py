"""Write the ``serve`` workload's stored inputs.

Trains the DORA models on the CLI smoke campaign (amazon + espn, four
frequencies, 4 ms steps, seed 7) and saves the predictor with
``save_predictor``, as ``repro train --output`` would.  Then harvests the
request vectors simulated devices send: ``harvest_traces`` runs every
suite combo (18 pages x 3 co-runner intensities) once under a recording
``interactive`` governor at 4 ms steps and keeps each DORA interval's
(MPKI, utilization, temperature) triple, as ``repro serve-bench`` does,
with the page's complexity census, so that the benchmark never has to
generate a page to replay them.
Run it once from the repository root, then pin the printed hashes in
``workloads.PINNED_SHA256``; the benchmark refuses any other file::

    python3 perfbench/make_bundle.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    os.environ["REPRO_NO_CACHE"] = "1"
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from repro.experiments.harness import HarnessConfig
    from repro.experiments.suite import all_combos
    from repro.models.serialization import save_predictor
    from repro.models.training import TrainingConfig, run_campaign, train_models
    from repro.serve.loadgen import harvest_traces
    from workloads import (
        BUNDLE_PATH, SMOKE_DT_S, SMOKE_FREQS_HZ, SMOKE_PAGES, SMOKE_SEED, TRACES_PATH,
    )

    config = TrainingConfig(
        pages=SMOKE_PAGES, freqs_hz=SMOKE_FREQS_HZ, dt_s=SMOKE_DT_S, seed=SMOKE_SEED,
    )
    save_predictor(train_models(run_campaign(config, workers=0)).predictor, BUNDLE_PATH)
    traces = harvest_traces(all_combos(), HarnessConfig(dt_s=SMOKE_DT_S))
    TRACES_PATH.write_text(json.dumps({
        "traces": [
            {
                "page": trace.page_name,
                "census": list(trace.page.as_tuple()),
                "kernel": trace.kernel_name,
                "deadline_s": trace.deadline_s,
                "observations": [
                    [o.corunner_mpki, o.corunner_utilization, o.temperature_c]
                    for o in trace.observations
                ],
            }
            for trace in traces
        ],
    }) + "\n")
    for path in (BUNDLE_PATH, TRACES_PATH):
        print(f"{path.name} sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
