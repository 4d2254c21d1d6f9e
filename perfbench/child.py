"""The benchmark's side of a child interpreter; ``run.py`` starts it with
``PYTHONPATH`` set to the checkout's ``src``.

    child.py probe              import singspec.cli, print when that ended
    child.py request ARGV...    what the ``singspec`` console script does
    child.py trace PATH ARGV... the same, traced; spans are written to PATH
    child.py coupled JOB        run a job of in-process requests (sp-coupled)

Nothing but ``sys`` and ``time`` is imported before ``singspec.cli``, so the
probe measures the import chain a user's call pays.
"""

import sys
import time

import singspec.cli  # noqa: E402  (the probe times exactly this import)

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)


def probe():
    from singspec import kernel

    print(f"{IMPORTED_AT!r} {kernel.backend_name()} {singspec.cli.__file__}")
    return 0


def traced_request(path, argv):
    from spans import Tracer

    tracer = Tracer().install()
    try:
        return tracer.root(singspec.cli.main)(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(path)


def _timed_call(main, argv):
    """(seconds, exit code, stdout) of one in-process request.  An exception
    escaping ``main`` counts as exit code 1, as in a fresh interpreter, and
    its traceback goes to stderr."""
    import contextlib
    import io
    import traceback

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    return time.perf_counter() - start, code, out.getvalue()


def coupled(job_path):
    """One long-lived process calling ``singspec.cli.main`` in-process.

    The job lists warm-up requests (a disjoint seed) and the timed request
    list.  Passes run until the time is up; in a traced job they alternate
    between untraced and traced, so both see equally warm caches.  The
    reference loop runs before each pass and after each request, outside
    the requests' time.
    """
    import json

    from reference import loop_seconds
    from spans import Tracer

    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    main = singspec.cli.main
    for argv in job["warmup"]:
        _timed_call(main, argv)
    passes = []
    dumps = []
    begin = time.perf_counter()

    def more():  # the rule of run.py's _more
        after = time.perf_counter() - begin + passes[-1]["wall"]
        return after <= job["seconds"] or (len(passes) < job["min_passes"] and after <= job["limit"])

    while not passes or more():
        traced = job["trace"] and len(passes) % 2 == 1
        tracer = Tracer().install() if traced else None
        call = tracer.root(main) if traced else main
        try:
            gauges = [[loop_seconds()]]
            results = []
            for argv in job["requests"]:
                results.append(_timed_call(call, argv))
                gauges.append([loop_seconds()])
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            dumps.append(tracer.dump())
        wall = sum(seconds for seconds, _, _ in results)
        passes.append({"traced": traced, "wall": wall, "results": results, "gauges": gauges})
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "dumps": dumps}, fh)
    return 0


def main(argv):
    mode = argv[0]
    if mode == "probe":
        return probe()
    if mode == "request":
        return singspec.cli.main(argv[1:])
    if mode == "trace":
        return traced_request(argv[1], argv[2:])
    if mode == "coupled":
        return coupled(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
