"""Time matfuse's set-up in a fresh interpreter: import, then parse and
type-check the named bundled kernels.  Prints CPU and wall seconds.

    python3 bench/setup_probe.py gemver vadd
"""

import sys
import time

c0, w0 = time.process_time(), time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matfuse import build_dataflow, infer_types, parse_kernel  # noqa: E402
from matfuse.corpus import kernel_source  # noqa: E402

for name in sys.argv[1:]:
    infer_types(build_dataflow(parse_kernel(kernel_source(name))))
print(f"{time.process_time() - c0:.9f} {time.perf_counter() - w0:.9f}")
