"""A traced cold CLI run: ``python3 trace_cli.py SPANS.json VERB FILE [ARGS...]``.

Times the import of ``waringcert.cli`` as the span ``cli.import`` (before
the tracer itself is imported, so the import is as cold as in an untraced
run), installs the tracer, runs ``waringcert.cli.run`` on the remaining
arguments and exits with its code.  Spans and their summary are written
to SPANS.json.
"""

import time

_t0 = time.perf_counter()
import waringcert.cli  # noqa: E402
_t1 = time.perf_counter()

import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.current_op = 0
    tracer.record("cli.import", _t0, _t1)
    tracer.install()
    code = waringcert.cli.run(argv)
    sys.stdout.flush()
    tracer.dump(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
