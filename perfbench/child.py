"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py RESULT.json SPANS.json setup|run|trace CLI-ARGS...

Imports ``fluidnet.cli`` and builds the configuration (set-up), then, unless
the mode is ``setup``, times ``cli.main(CLI-ARGS)``. In ``trace`` mode the
outside-in tracer is installed after set-up and its spans are written to
SPANS.json when the command returns. RESULT.json receives the
``time.monotonic()`` at which set-up finished (the parent holds the spawn
time on the same clock), the wall time of ``cli.main`` and its exit code.
"""
import json
import sys
import time


def main() -> int:
    result_path, spans_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]

    import fluidnet.cli as cli
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    result = {"setup_done": time.monotonic(), "fluidnet": cli.__file__,
              "config_digest": config.digest()}

    if mode != "setup":
        run = cli.main
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            run = tracer.install()
        t = time.perf_counter()
        result["exit_code"] = run(argv)
        result["wall_s"] = time.perf_counter() - t
        if mode == "trace":
            tracer.dump(spans_path)

    result["versions"] = {m: sys.modules[m].__version__
                          for m in ("numpy", "scipy") if m in sys.modules}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
