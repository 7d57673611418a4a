"""Set-up time of one workload: ``import mdmest`` plus its first identify op.

Run in a fresh interpreter by the benchmark:

    python3 coldstart.py <src dir> '<identify argv as JSON>'

Prints one JSON line with the seconds taken, the exit code and the stderr
of the identify op.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mdmest  # noqa: E402,F401
from mdmest import cli  # noqa: E402

err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    rc = cli.main(json.loads(sys.argv[2]))
setup_s = time.perf_counter() - t0
print(json.dumps({"setup_s": setup_s, "rc": rc, "stderr": err.getvalue()}))
