"""Run metadata: versions, BLAS threads, cores and the size of ``src/``."""

import os
import platform


def src_lines(src):
    return sum(
        sum(1 for _ in path.open(encoding="utf-8")) for path in sorted(src.rglob("*.py"))
    )


def openblas_version():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def describe(src):
    import numpy as np
    import scipy

    return (
        f"meta: python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} blas={openblas_version()!r} "
        f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS', 'default')} "
        f"nproc={len(os.sched_getaffinity(0))} src_lines={src_lines(src)}"
    )
