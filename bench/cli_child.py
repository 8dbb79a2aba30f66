"""Run the parkdet CLI from the checkout's sources, optionally traced.

    python3 bench/cli_child.py SPANS MEMORY <parkdet arguments ...>

SPANS is `-` for a plain run, which does what the `parkdet` console
script does. Otherwise the layer functions are wrapped from outside
(see tracing.instrument_cli), spans are kept in memory and written to
the file SPANS when the command ends. MEMORY `1` adds tracemalloc peaks.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> int:
    spans_path, memory, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    if spans_path == "-":
        from parkdet.cli import main as cli_main
        return cli_main(argv)

    import tracemalloc

    from tracing import Tracer, instrument_cli

    tracer = Tracer(memory=memory)
    if memory:
        tracemalloc.start()
    started = time.perf_counter()
    import parkdet.cli
    tracer.spans.append([0, None, "cli", "import", started, time.perf_counter(), None])
    instrument_cli(tracer)
    try:
        return tracer.call("cli", "main", parkdet.cli.main, (argv,), {})
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
