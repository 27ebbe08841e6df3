"""A traced ``contextprob`` CLI call, for the traced run of cli-cold.

    python3 perfbench/cli_child.py SPANS_FILE T0 -- ARGS...

Behaves like ``python -m contextprob ARGS...`` but records spans: the
interpreter start-up since the parent started the process at
``time.perf_counter() == T0``, the import of ``contextprob.cli``, and every
public library call. The spans are written to SPANS_FILE at exit.
"""

import sys
import time

started = time.perf_counter()

import spans  # noqa: E402

rec = spans.Recorder()
rec.add("python.startup", float(sys.argv[2]), started)
rec.add("bench.shim", started, time.perf_counter())
with rec.span("import.contextprob"):
    import contextprob.cli
with rec.span("bench.install"):
    spans.install(rec)
code = contextprob.cli.main(sys.argv[4:])
sys.stdout.flush()
spans.dump(sys.argv[1], rec.spans())
sys.exit(code)
