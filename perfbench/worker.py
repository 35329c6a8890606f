"""One cold pass of a workload in a fresh process; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace

Set-up is timed from before ``import quasiherm`` (which loads numpy) to the
end of ``geometry_for_q(q)``, which builds the field tables and the point
table.  ``setup`` mode stops there.  ``run`` and ``trace`` modes then run
the workload's CLI invocations one after another through
``quasiherm.cli.main(argv)`` with stdout captured, and time from the end of
set-up to the last verdict.  ``trace`` mode wraps the probed functions after
the import and before set-up, so set-up layers are traced as well.

The last line of stdout is one JSON object describing the pass.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()
    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import quasiherm

    if not os.path.abspath(quasiherm.__file__).startswith(SRC + os.sep):
        print(f"quasiherm imported from {quasiherm.__file__}, not {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if args.mode == "trace":
        import layers
        import spans

        tracer = spans.Tracer(run_id=f"{args.workload}:{args.seed}")
        tracer.install("quasiherm", layers.PROBES)
        t0 = time.perf_counter()  # tracer installation is not set-up work
    quasiherm.projgeom.geometry_for_q(workload.q)
    t_setup = time.perf_counter()
    numpy = sys.modules.get("numpy")
    out = {"setup_s": t_setup - t0, "numpy": getattr(numpy, "__version__", None)}
    if args.mode != "setup":
        from quasiherm import cli

        out["commands"] = []
        for argv in workloads.commands(workload, args.seed):
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                traceback.print_exc()
                rc = "crashed"
            out["commands"].append({"argv": argv, "rc": rc, "stdout": buf.getvalue()})
        t_end = time.perf_counter()
        out["run_s"] = t_end - t_setup
        if tracer is not None:
            out["layers"] = layers.layer_metrics(tracer.spans, t_setup, t_end)
            out["absent"] = tracer.absent
            out["hook_errors"] = tracer.hook_errors
            out["spans"] = len(tracer.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
