"""One benchmark sample in a fresh interpreter.

    python3 bench/worker.py SPAWN_NS RESULT_JSON [PROJECT_CONF OUT_DIR TRACE]

SPAWN_NS is the parent's `time.monotonic_ns()` taken just before it started
this process, so SPAWN_NS up to the return of `import occsim.cli` is the
set-up time every occsim command pays.  With only two arguments the worker
stops there.  Otherwise it runs `run_pipeline` once into OUT_DIR, with stdout
and stderr captured, wrapped by the tracer when TRACE is 1, and writes its
timings, peak RSS, captured log and spans to RESULT_JSON.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import occsim.cli  # noqa: E402,F401  (the import that setup_s times)

READY_NS = time.monotonic_ns()


def main(argv: list[str]) -> None:
    import contextlib
    import io
    import json
    import resource

    spawn_ns, result_path = int(argv[0]), Path(argv[1])
    result = {"setup_s": (READY_NS - spawn_ns) / 1e9, "occsim_file": occsim.cli.__file__}
    if len(argv) > 2:
        from occsim.pipeline import ProjectConfig, run_pipeline

        conf, out_dir, trace = Path(argv[2]), Path(argv[3]), argv[4] == "1"
        cfg = ProjectConfig.read(conf)
        cfg.out = out_dir
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer(out_dir.name)
            result["missing_patches"] = tracer.install()
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                rc = run_pipeline(cfg, log=err)
            except Exception as exc:  # a failed run is reported, not fatal
                rc = getattr(exc, "exit_code", 1)
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
        result.update(
            run_s=(t1 - t0) / 1e9,
            rc=rc,
            error=error,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            log=err.getvalue(),
            stdout_chars=len(out.getvalue()),
        )
        if tracer is not None:
            result.update(trace_id=tracer.trace_id, spans=tracer.spans, counts=dict(tracer.counts))
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
