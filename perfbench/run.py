"""Step benchmark for gsdd: fit, distill and render, driven through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload fit-cifar --seed 1 --seconds 20 --trace 0

Workloads are ``fit-cifar``, ``distill-cifar10`` and ``render-128`` (see
``workloads.py`` and ``NOTES.md``). The program is imported from ``src/``
next to this directory; nothing is installed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it records the environment. Steps and spans
are written to ``.perfbench_runs/`` (or ``--work-dir``) at exit.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Feature-net matmuls run outside the render pool; two BLAS threads match
# the workers the workloads use and never exceed the usable cores.
BLAS_THREADS = 2
SETUP_REPEATS = 3
CHECK_IMAGES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--work-dir", type=Path,
                        default=ROOT / ".perfbench_runs",
                        help="temporary inputs and the trace file")
    return parser.parse_args(argv)


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_commit(root: Path) -> str | None:
    """HEAD of ``root`` read from ``.git`` directly; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def host_probe() -> float:
    """Median seconds of a fixed pure-Python loop. The host's CPU speed
    drifts by tens of percent over minutes; this records where it stood."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@contextlib.contextmanager
def captured():
    """Swallow the CLI's own prints; keep stderr for failure messages."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        yield err


def run_ops(workload, inputs, tracer, run_dir: Path, seconds: float):
    """Closed loop, one caller: operations back to back until the next one
    would end past ``seconds``; at least one."""
    from workloads import dispatch

    ops = []
    elapsed = 0.0
    while not ops or elapsed + elapsed / len(ops) <= seconds:
        out = run_dir / f"op{len(ops)}"
        op = {"seconds": 0.0, "error": None, "loss": None}
        with captured() as err:
            try:
                rc, op["seconds"] = tracer.run_op(
                    len(ops), dispatch, workload.argv(inputs, out))
            except Exception:  # an operation failing is counted, not fatal
                rc = None
                op["error"] = traceback.format_exc(limit=3)
        if rc not in (0, None):
            op["error"] = f"exit code {rc}: {err.getvalue().strip()}"
        if op["error"] is None:
            try:
                op["error"], op["loss"] = workload.check_op(out)
            except (OSError, ValueError) as exc:
                op["error"] = f"output check: {exc}"
        if op["error"] is None and ops and op["loss"] != ops[0]["loss"]:
            op["error"] = (f"loss_final {op['loss']} differs from the first "
                           f"operation's {ops[0]['loss']}")
        ops.append(op)
        elapsed += op["seconds"]
        if len(ops) > 1:
            shutil.rmtree(out, ignore_errors=True)
    return ops


def run_checks(workload, inputs, seed: int, first_out: Path):
    """Outside-timed checks on the workload's Gaussian set; returns
    ({check: error or None}, render loss or None)."""
    import numpy as np
    import checks
    from gsdd.core import RenderConfig

    results = {}
    loss = None
    try:
        dset = workload.gaussian_set(inputs, first_out)
    except (OSError, ValueError) as exc:
        return {"gaussian_set": str(exc)}, None
    cfg = RenderConfig(dset.width, dset.height, dset.channels)
    rng = np.random.default_rng([seed, 4])
    images = sorted(int(i) for i in rng.choice(
        dset.num_images, size=min(CHECK_IMAGES, dset.num_images),
        replace=False))
    results["oracle_bitwise"] = checks.oracle_check(dset, cfg, images)
    results["workers_bitwise"] = checks.workers_check(dset, cfg, images, rng)
    if workload.loop is None:
        from workloads import RENDER_STATS
        loss = checks.render_loss(
            dset, cfg, RENDER_STATS,
            [workload.ppm_path(first_out, i) for i in range(dset.num_images)])
    return results, loss


def measure(args, nproc: int, import_s: float):
    import numpy as np
    import counts
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](toy=args.toy)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                    dir=args.work_dir))
    probes = [host_probe()]
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            folder = run_dir / f"setup{rep}"
            folder.mkdir()
            start = time.perf_counter()
            with captured():
                inputs = workload.prepare(args.seed, folder)
            setups.append(time.perf_counter() - start)

        tracer = Tracer(workload.loop, workload.steps, bool(args.trace))
        tracer.install()
        try:
            ops = run_ops(workload, inputs, tracer, run_dir, args.seconds)
        finally:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        check_errors, render_loss = run_checks(workload, inputs, args.seed,
                                               run_dir / "op0")
        probes.append(host_probe())
        digest = hashlib.sha256()
        for path in inputs["files"]:
            digest.update(Path(path).read_bytes())
        layer = {}
        if args.trace:
            layer = tracer.layer_metrics()
            layer.update(counts.raster_metrics(tracer.captures))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    steps = tracer.step_times(False)
    loss_final = render_loss if workload.loop is None else ops[0]["loss"]
    op_seconds = sum(op["seconds"] for op in ops)
    end_to_end = {
        "setup_s": import_s + statistics.median(setups),
        "step_s": statistics.median(steps) if steps else 0.0,
        "images_per_s": workload.image_steps * len(ops) / op_seconds
        if op_seconds else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "loss_final": loss_final if loss_final is not None else 0.0,
    }
    failures = [op["error"] for op in ops if op["error"]] \
        + [f"{name}: {err}" for name, err in check_errors.items() if err]
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "toy": args.toy, "nproc": nproc, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name(np),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workers": workload.workers, "git_commit": git_commit(ROOT),
        "input_sha256": digest.hexdigest(),
        "host_probe_s": probes,
        "import_s": import_s, "setup_repeats_s": setups,
        "operations": len(ops),
        "operation_s": [op["seconds"] for op in ops],
        "untraced_steps": len(steps),
        "traced_steps": len(tracer.step_times(True)),
        "checks": sorted(check_errors), "failures": failures,
        "error_rate": len(failures) / (len(ops) + len(check_errors)),
    }
    record = {"env": env, "end_to_end": end_to_end, "per_layer": layer,
              **tracer.dump()}
    out_file = args.work_dir / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")
    result = {"correct": not failures,
              "attempted": len(ops) + len(check_errors),
              "failed": len(failures),
              "values": layer if args.trace else end_to_end}
    return env, result


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = usable_cpus()
    # must be set before numpy loads OpenBLAS
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(nproc, BLAS_THREADS))
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "gsdd" / "__init__.py").is_file():
        print(f"perfbench: no gsdd sources at {src}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import gsdd

    if Path(gsdd.__file__).resolve().parent != (src / "gsdd").resolve():
        print(f"perfbench: imported gsdd from {gsdd.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START

    env, result = measure(args, nproc, import_s)
    values = result.pop("values")
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]} for m in section}
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
