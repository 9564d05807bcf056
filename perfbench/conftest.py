"""Make the checkout's ap3 sources importable for the benchmark's tests:

    python -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
