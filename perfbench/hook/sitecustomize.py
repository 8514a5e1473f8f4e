"""Start-up hook of the benchmark's traced runs.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one.  The benchmark puts this directory on
``PYTHONPATH`` only for the processes it traces, and names the trace
directory in ``PERFBENCH_TRACE_DIR``; without that variable the module
does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import pbtrace

    pbtrace.install(os.environ["PERFBENCH_TRACE_DIR"])
