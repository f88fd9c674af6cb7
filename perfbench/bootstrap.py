"""Process set-up shared by every perfbench entry point.

Import this module before numpy: it pins the BLAS and OpenMP pools and the
bench pipeline's worker count to one thread, then puts the checkout's `src/`
first on the import path so the benchmark measures the sources beside it and
never an installed copy.
"""

import os
import sys
from pathlib import Path

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "EQCAUSAL_THREADS": "1",
}
os.environ.update(THREAD_ENV)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def require_program():
    """Exit with code 2, printing nothing to stdout, when the sources are absent."""
    if not (SRC / "eqcausal" / "__init__.py").is_file():
        print(f"perfbench: no eqcausal sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported(module):
    """Refuse to measure an eqcausal imported from anywhere but this checkout."""
    if Path(module.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported eqcausal from {module.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
