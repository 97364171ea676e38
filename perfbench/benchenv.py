"""Process environment of a benchmark run: thread pinning and machine facts."""

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS thread, and the checkout's own package on the import path.

    Must run before numpy is imported: the BLAS reads its thread count once.
    Raises ``FileNotFoundError`` when the checkout has no package source.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "wiener_gobf", "__init__.py")):
        raise FileNotFoundError(f"no package source under {SRC}")
    sys.path.insert(0, SRC)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')} " \
               f"({info.get('openblas configuration', '').strip()})"
    except (TypeError, KeyError):
        return "unknown"


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
