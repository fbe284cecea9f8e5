"""Run one ``tarjama`` command with layer spans recorded, then write them.

Usage: ``python3 perfbench/traced_cli.py SPANS_JSON <tarjama arguments>``
with ``src`` on ``PYTHONPATH``.  Exits with the command's exit code.
"""

import sys
from pathlib import Path

import tarjama.cli

from spans import Tracer


def main() -> int:
    spans_out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.root(tarjama.cli.main, argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
