"""Print acceptance criteria 4 and 5, with their margins, for five disjoint 10-seed sets.

``test_acceptance.py`` checks criteria 4 (victims) and 5 (trusted fraction by
distance) on seeds 0-9 only, and a 10-seed sample can cross a bound by chance.
This script runs the same sweep, the stock scenario with 10 false-warning
attackers through both pipelines, for seed sets 0-9, 10-19, ..., 40-49, and
prints for each set:

- criterion 4: the IRS and baseline victims per seed and their medians, the
  distance of the IRS median to each end of its window, and the least margin
  by which IRS stays below the baseline on a seed;
- criterion 5: the nearest and 160 m trusted fractions and the inversions
  below 160 m, each with its distance to its bound;
- benign false accepts and benign true rejects, per pipeline: final accepts
  of a false warning and final rejects of a true one, by benign receivers.

Both criteria are computed by the functions the test calls, so the two cannot
drift; the time budget of criterion 4 is left out, as wall time is not
deterministic. The output is: run it under two ``PYTHONHASHSEED`` values and
compare. A change that re-pins the draws quotes the parent's and its own
output. Run it as

    python tests/quality_sweep.py

It imports irsim from the ``src`` next to this file. pytest does not collect
it (its name has no ``test_``).
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from irsim import sim  # noqa: E402
from irsim.protocol import Disposition  # noqa: E402
from test_acceptance import (  # noqa: E402
    AT_160_MIN,
    MAX_INVERSION,
    MAX_INVERSIONS,
    NEAREST_MIN,
    VICTIM_MEDIAN_BOUNDS,
    run_sweep,
    stock_config,
    trusted_fraction_ok,
    trusted_fraction_values,
    victim_values,
    victims_ok,
)

SEED_SETS = tuple(range(first, first + 10) for first in range(0, 50, 10))


def benign_errors(results, seeds, pipeline: str) -> tuple[int, int]:
    """(false accepts, true rejects) among the final decisions of benign receivers over ``seeds``."""
    false_accepts = true_rejects = 0
    for seed in seeds:
        benign = sim.build_scenario(stock_config(seed), pipeline).benign
        for r in results[(pipeline, seed)][0].decisions.final_records():
            if r.receiver in benign:
                false_accepts += r.decision is Disposition.ACCEPT and not r.ground_truth
                true_rejects += r.decision is Disposition.REJECT and r.ground_truth
    return false_accepts, true_rejects


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def report_set(seeds) -> list[str]:
    results = run_sweep(seeds)
    irs, baseline, median = victim_values(results, seeds)
    low, high = VICTIM_MEDIAN_BOUNDS
    nearest, at_160, inversions = trusted_fraction_values(results, seeds)
    largest = max(inversions, default=0.0)
    lines = [
        f"seeds {seeds[0]}-{seeds[-1]}",
        f"  criterion 4 {verdict(victims_ok(irs, baseline, median))}: irs victims {irs}, median {median}"
        f" ({median - low:+} from {low}, {high - median:+} to {high});"
        f" baseline victims {baseline}, median {statistics.median(baseline)};"
        f" least baseline - irs {min(b - a for a, b in zip(irs, baseline)):+} (must be > 0)",
        f"  criterion 5 {verdict(trusted_fraction_ok(nearest, at_160, inversions))}:"
        f" nearest {nearest:.5f} ({nearest - NEAREST_MIN:+.5f} from {NEAREST_MIN});"
        f" 160 m {at_160:.5f} ({at_160 - AT_160_MIN:+.5f} from {AT_160_MIN});"
        f" inversions {[round(v, 5) for v in inversions]}"
        f" ({MAX_INVERSIONS - len(inversions):+} to {MAX_INVERSIONS} allowed,"
        f" largest {MAX_INVERSION - largest:+.5f} to {MAX_INVERSION})",
    ]
    for pipeline in ("irs", "accept-all"):
        false_accepts, true_rejects = benign_errors(results, seeds, pipeline)
        lines.append(f"  {pipeline}: benign false accepts {false_accepts}, benign true rejects {true_rejects}")
    return lines


def main() -> None:
    for seeds in SEED_SETS:
        print("\n".join(report_set(seeds)), flush=True)


if __name__ == "__main__":
    main()
