import sys
from pathlib import Path

# The benchmark's scripts import each other as top-level modules, and the
# tracer tests import eventqa from this checkout.
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]
