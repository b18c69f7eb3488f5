"""Traced server: install the span wrappers, then run ``repro serve``.

Usage::

    python perfbench/launcher.py SPANS.jsonl serve --port P [...]

The arguments after the spans path go to ``repro.cli.main`` unchanged,
so the traced child is the same ``repro serve`` as an untraced run.  On
SIGTERM the service drains and ``main`` returns; the spans are then
written to SPANS.jsonl and the launcher exits with ``main``'s code.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import SpanStore  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from repro.cli import main as repro_main

    store = SpanStore()
    store.install()
    try:
        return repro_main(cli_args)
    finally:
        store.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
