"""Child process of the benchmark: one hesscomb CLI call, as a user makes it.

    python3 perfbench/launch.py FD MODE [CLI ARGS...]

MODE is ``probe`` (import the package and its CLI, and exit), ``run`` (call the CLI the
way the ``hesscomb`` console script does) or ``trace`` (the same call with
the layer tracer installed around it).  Right after ``import hesscomb``
returns, the child writes ``ready <time.monotonic()>`` to file descriptor
FD; ``time.monotonic`` is shared across processes, so the parent turns it
into set-up time.  In ``trace`` mode the child then writes one line
``trace <seconds> <json>``: the time it spent tracing outside ``main()``
and the tracer payload.
"""

import os
import sys
import time


def _main() -> int:
    fd, mode = int(sys.argv[1]), sys.argv[2]
    import hesscomb.cli

    if mode == "probe":
        return 0
    sys.argv = ["hesscomb", *sys.argv[3:]]
    if mode == "run":
        return hesscomb.cli.main()
    clock = time.perf_counter
    begin = clock()
    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    main_start = clock()
    try:
        status = hesscomb.cli.main()  # the wrapped main
    finally:
        main_end = clock()
        tracer.uninstall()
        text = json.dumps(tracer.payload())
        outside = (main_start - begin) + (clock() - main_end)
        with os.fdopen(fd, "w") as out:
            out.write(f"trace {outside!r} {text}\n")
    return status


if __name__ == "__main__":
    import hesscomb  # noqa: F401  (the import whose duration is set-up time)

    os.write(int(sys.argv[1]), f"ready {time.monotonic()!r}\n".encode())
    raise SystemExit(_main())
