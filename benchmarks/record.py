"""What the benchmark scripts share.

Importing this module sets every BLAS thread variable left unset to 1, for
the process and the ones it starts; every script in this directory imports
it before NumPy, as BLAS reads the variables when NumPy loads it.
:func:`append_entry` adds one entry to a file: the label, the date, the
environment (Python, NumPy, SciPy, the BLAS library, the BLAS thread
variables and the core count), the runs per workload and the workloads'
records.  The file holds one entry per line, so that appending an entry
adds one line.
"""
import datetime
import json
import os
import platform

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")


def environment():
    """The ``env`` record of an entry."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
    }


def append_entry(path, label, runs, workloads):
    """Append one entry to the file at ``path``, made if missing."""
    entry = {"label": label, "date": datetime.date.today().isoformat(),
             "env": environment(), "runs": runs, "workloads": workloads}
    entries = []
    if os.path.exists(path):
        with open(path) as fh:
            entries = json.load(fh)["entries"]
    entries.append(entry)
    with open(path, "w") as fh:
        fh.write('{"entries": [\n' + ",\n".join(map(json.dumps, entries))
                 + "\n]}\n")
