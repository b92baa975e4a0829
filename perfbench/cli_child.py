"""Traced stand-in for ``python -m freqbin.cli``.

Times ``import freqbin.cli``, installs the span wrappers, calls
``freqbin.cli.main(argv)`` inside a ``cli.main`` span and writes the spans
to SPANS_JSON. Exits with main's return code.

    python perfbench/cli_child.py SPANS_JSON [freqbin arguments ...]
"""
import json
import sys
import time


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import freqbin.cli
    import_s = time.perf_counter() - t0

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    cli_main = tracer.wrap("cli.main", freqbin.cli.main)
    try:
        code = cli_main(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "absent": tracer.absent,
                       "spans": [s.as_dict() for s in tracer.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
