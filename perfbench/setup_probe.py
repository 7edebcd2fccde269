"""Time one fresh interpreter from its first statement to a ready engine.

Run as ``python3 perfbench/setup_probe.py WORKLOAD ROOT`` from the repo
root: imports ``repro``, stamps ``code_version()`` and builds the
workload's engine (cache, checkpoint store and, where used, journal and
telemetry hub) under the empty directory ROOT.  Prints the seconds taken.
"""

import time

_STARTED = time.perf_counter()

import pathlib  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    name, root = sys.argv[1], pathlib.Path(sys.argv[2])
    here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    import repro  # noqa: F401
    from repro.harness.cache import code_version

    code_version()
    from grids import WORKLOADS, close_engine, make_engine

    engine = make_engine(WORKLOADS[name], root)
    ready = time.perf_counter() - _STARTED
    close_engine(engine)
    print(repr(ready))


if __name__ == "__main__":
    main()
