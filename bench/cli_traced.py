"""Run the polycrit CLI in a traced process.

    python3 bench/cli_traced.py SPANS_OUT T_LAUNCH polycrit-arguments...

T_LAUNCH is the parent's ``time.perf_counter()`` just before it started
this process. The spans (interpreter start, ``import polycrit.cli``, and
every wrapped function under ``cli.main``) go to SPANS_OUT as JSON; the
exit code is the CLI's. PYTHONPATH must point at the ``src`` directory.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402  (imports neither numpy nor polycrit)


def main() -> int:
    out, t_launch, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.add(tracing.INTERPRETER, t_launch, T_START, None)
    t0 = time.perf_counter()
    import polycrit.cli

    tracer.add(tracing.IMPORT, t0, time.perf_counter(), None)
    tracer.install()
    try:
        code = polycrit.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
