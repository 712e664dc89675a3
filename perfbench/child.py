"""Run one bohmvel command, or a set-up probe, in a fresh process.

Usage: python3 perfbench/child.py <sidecar.json> <probe|env|run|trace> <bohmvel args...>

``probe`` imports ``bohmvel.cli``, loads and validates the config named by
``--config`` (if any) and exits; ``env`` does the same and also records the
numpy and BLAS build. ``run`` then calls ``bohmvel.cli.main`` on the
arguments, exactly as the ``bohmvel`` console script does; ``trace`` does
the same with the span tracer installed. The process writes its timings,
exit code, peak RSS and (when traced) its spans to the sidecar file; the
command's own stdout is left untouched for the caller to parse.

Timestamps are ``time.monotonic()``, one clock for every process on the
host, so the caller can subtract its spawn time from them.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _build_env() -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def _write(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


def main() -> int:
    sidecar, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from bohmvel import cli

    if "--config" in argv:
        cli.load_config(argv[argv.index("--config") + 1])
    record = {"setup_done": time.monotonic(), "bohmvel_file": cli.__file__}
    if mode in ("probe", "env"):
        if mode == "env":
            record["env"] = _build_env()
        _write(sidecar, record)
        return 0

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    code = None
    try:
        code = cli.main(argv)
    finally:
        record["main_done"] = time.monotonic()
        record["exit_code"] = code
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            record["trace"] = tracer.export()
        _write(sidecar, record)
    return code


if __name__ == "__main__":
    sys.exit(main())
