"""The benchmark's own tests — outside tier-1.

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
# The benchmark's modules are scripts in one directory, imported by bare
# name (`trace` deliberately shadows the unused standard-library module).
sys.path[:0] = [str(E2E), str(E2E.parents[1] / "src")]
