"""One measured run in a fresh interpreter: load a config, run it, report.

    python3 bench/worker.py SRC CONFIG OUT_DIR MODE

MODE is ``setup`` (stop after load_config), ``plain`` (time ``run``) or
``traced`` (time ``run`` with every exitlab layer wrapped in spans). The
last line of standard output is one JSON object: ``setup_done`` (the
CLOCK_MONOTONIC reading once ``exitlab.cli`` is imported and
``load_config`` has returned; the parent subtracts its own reading taken
just before starting this process), ``status``, ``run_s``, ``peak_rss_mb``
and, when traced, ``spans``.
"""
import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    src, config, out_dir, mode = argv
    sys.path.insert(0, src)
    from exitlab.cli import load_config, run

    cfg, digest = load_config(config)
    setup_done = time.monotonic()
    import exitlab

    if not Path(exitlab.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"exitlab imported from {exitlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_done": setup_done}
    if mode != "setup":
        if mode == "traced":
            from dataclasses import asdict

            import exitlab.cli
            from tracer import Tracer, instrument

            tracer = Tracer()
            with instrument(tracer):
                t0 = time.perf_counter()
                status = exitlab.cli.run(cfg, digest, Path(out_dir))
                run_s = time.perf_counter() - t0
            result["spans"] = [asdict(s) for s in tracer.spans]
        else:
            t0 = time.perf_counter()
            status = run(cfg, digest, Path(out_dir))
            run_s = time.perf_counter() - t0
        result.update(
            status=status,
            run_s=run_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
