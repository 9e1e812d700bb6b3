"""Child process of the benchmark: one modcluster command, run as a user runs it.

    python3 perfbench/probe.py RECORD.json TRACE(0|1) -- <modcluster arguments>

Imports ``modcluster.cli`` from the checkout's ``src``, installs the
recorder (and, with TRACE=1, the span tracer), calls ``cli.main`` with the
arguments and writes what it recorded to RECORD.json. Times are
``time.perf_counter`` readings, which share one monotonic clock with the
parent process.
"""

import sys
import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    record_path, trace = Path(argv[0]), argv[1] == "1"
    cli_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    sys.path.insert(0, str(ROOT))

    t_import = time.perf_counter()
    import modcluster.cli

    t_imported = time.perf_counter()
    src = (ROOT / "src").resolve()
    if src not in Path(modcluster.cli.__file__).resolve().parents:
        print(f"modcluster imported from {modcluster.cli.__file__}, not {src}", file=sys.stderr)
        return 3

    from perfbench.trace import Recorder, Tracer, package_modules

    modules = package_modules()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(modules)
    recorder = Recorder()
    recorder.install(modules)

    rc = modules["cli"].main(cli_args)
    t_end = time.perf_counter()
    record = {
        "rc": rc,
        "t_start": T_START,
        "import_s": t_imported - t_import,
        "t_end": t_end,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "first_forward": recorder.first_forward,
        "epoch_ends": recorder.epoch_ends,
        "partitions": recorder.partitions,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
