"""The measurement spine: one wall-clock harness over six named workloads.

See ``benchmarks/harness/README.md`` for the metric and workload tables.

The harness is run as a script from any directory, so the engine is put
on the path here: ``src/`` of the checkout this package sits in, unless
``repro`` is importable already (``PYTHONPATH=src``).
"""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("repro") is None:
    _src = Path(__file__).resolve().parents[3] / "src"
    if not (_src / "repro").is_dir():
        raise ImportError(
            f"the harness measures the engine in {_src}, which is missing: "
            f"run it from a full checkout of the repository")
    sys.path.insert(0, str(_src))
