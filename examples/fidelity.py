#!/usr/bin/env python
"""Run the paper-fidelity census and (re)write ``FIDELITY.json``.

The census is ``examples/scenarios/fidelity.json``: six arms (the
FCFS+EASY heuristic, the feasibility prior alone, guided MRSch, pure DFP,
NSGA-II and scalar RL) on S1–S5 at seeds 1–5 and the default
``ExperimentConfig``, on the two workers its ``execution`` block names
(about 80 s on a 2-core machine). :func:`repro.eval.fidelity.fidelity_rows`
turns the results into the rows, effects and claims that the
``slow`` test ``tests/integration/test_fidelity.py`` holds the code to;
rewrite the file when a change moves them on purpose, and the diff of
``FIDELITY.json`` shows what moved.

Run:  PYTHONPATH=src python examples/fidelity.py
"""

import json
from pathlib import Path

from repro.api import run_scenario
from repro.eval.fidelity import fidelity_rows

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "examples" / "scenarios" / "fidelity.json"
OUTPUT = ROOT / "FIDELITY.json"


def main() -> None:
    doc = fidelity_rows(run_scenario(SCENARIO))
    OUTPUT.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    for claim in doc["claims"]:
        verdict = "holds" if claim["holds"] else "FAILS"
        print(f"{verdict:>5}  {claim['figure']:<7} {claim['claim']} (ratio {claim['ratio']})")
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
