"""Put ``src`` on the import path for the benchmark scripts and
``benchmarks/layers``, so they run from a plain checkout."""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
