"""Set-up probe, run in a fresh interpreter: import pmdpdl (and its CLI)
and parse every input text of one workload.

Usage: python3 setup_child.py TEXTS_JSON. Prints one JSON line with the
numpy import time, the whole import time and the parse time, in seconds,
measured from the first statement; the caller times the launch as a whole.
"""
import json
import sys
import time

start = time.perf_counter()
import numpy  # noqa: E402,F401 - timed on its own: it is most of the import

numpy_done = time.perf_counter()
import pmdpdl.cli  # noqa: E402,F401
from pmdpdl.network import parse_network  # noqa: E402

import_done = time.perf_counter()
with open(sys.argv[1], encoding="utf-8") as handle:
    texts = json.load(handle)
for text in texts:
    parse_network(text)
parse_done = time.perf_counter()
print(json.dumps({
    "numpy_import_s": numpy_done - start,
    "import_s": import_done - start,
    "parse_s": parse_done - import_done,
    "parse_calls": len(texts),
}), flush=True)
