"""Path set-up: the benchmark's tests run apart from tier-1's.

    python -m pytest bench/tests -q
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
os.environ.setdefault("PYTHONHASHSEED", "0")
