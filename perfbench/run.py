"""asrkit benchmark: one command, three seeded workloads, pure backend.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

--trace 0 prints every end-to-end metric; --trace 1 runs the same work
with spans recorded around asrkit's public functions and prints the
per-layer metrics instead.  asrkit is imported from this checkout's
src/, with the pure numpy kernels and one thread.  Scratch files go to
a temporary directory under .perfbench_work/ at the repository root,
removed on exit.  The last line of output is the JSON result; the line
before it holds the run metadata and sample counts.  A failed
correctness check names itself on stderr and exits 1.
"""

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def prepare_environment() -> None:
    """Select the pure backend and one thread, then import asrkit from
    this checkout's src/ (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "asrkit", "__init__.py")):
        raise SystemExit(f"perfbench: no asrkit sources under {SRC}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    os.environ["ASRKIT_PURE"] = "1"
    os.environ["ASRKIT_THREADS"] = "1"
    sys.dont_write_bytecode = True
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import asrkit
    where = os.path.dirname(os.path.abspath(asrkit.__file__))
    if where != os.path.join(SRC, "asrkit"):
        raise SystemExit(f"perfbench: imported asrkit from {where}, "
                         f"not from {SRC}")


def git_commit() -> str:
    """HEAD's commit read from .git without running git; "unknown" when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    import numpy
    from asrkit import kernels
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "kernel_backend": kernels.BACKEND,
        "numpy": numpy.__version__, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_commit": git_commit(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workload=None) -> dict:
    """Run one workload and return its outcome (see workloads.run_workload).

    `workload` overrides the named configuration (the tests pass a tiny
    one)."""
    import workloads
    from tracing import Tracer
    os.makedirs(WORK_ROOT, exist_ok=True)
    try:
        return workloads.run_workload(
            workload or workloads.WORKLOADS[workload_name], seed, seconds,
            trace, Tracer(), WORK_ROOT)
    finally:
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)


def result_record(outcome: dict, trace: bool) -> dict:
    metrics = outcome["per_layer"] if trace else outcome["e2e"]
    return {
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def print_table(record: dict, layer_ms: dict | None) -> None:
    for name, m in record["metrics"].items():
        line = f"{name:<52} {m['value']:>14.6g} {m['unit']}"
        if name.startswith("share.") and layer_ms is not None:
            layer = name.split(".", 1)[1]
            if layer in layer_ms:
                line += f"   ({layer_ms[layer]:.1f} ms self time)"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "decode", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_environment()
    from checks import CheckFailed
    try:
        outcome = run(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    record = result_record(outcome, bool(args.trace))
    detail = outcome["detail"]
    print_table(record, detail.get("layer_self_ms_in_traced_load"))
    print(json.dumps({"meta": metadata(args), **detail}, sort_keys=True))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
