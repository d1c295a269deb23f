"""Compare two source trees of ceofdm layer by layer, in fresh child processes.

Usage (from the repository root):

    python tools/bench_layers.py PARENT CHANGE --tag af_half

PARENT and CHANGE are checkouts of the repository (each holding ``src/``);
they may be the same tree. Each pair runs one child per tree, with the side
that runs first alternating from pair to pair. A child imports ceofdm from
its tree's ``src/``, takes an FFT probe (the median µs of a 2048-point
complex FFT, recorded as a diagnostic of the machine's speed and used for
nothing else), and then times ``--reps`` rounds, after one warm-up round, of:

- ``compute_af`` and ``write_af_csv`` in µs at the survey size: L = 24 at
  ``--tbp`` (208 gives M = 1040), on the 97-row Doppler grid of ``synth``;
- one survey op in ms: ``synth --set waveform.tbp=<tbp>`` and then
  ``quantize`` of a stored design, as ``benchmarks/run.py`` runs it.

Then ``--rss-pairs`` alternated pairs of ``synth --set waveform.L=<L> --set
waveform.tbp=<tbp>`` (``--large``, default 256 and 20000) each run as a child
of their own, whose peak RSS is read with ``os.wait4``.

The file ``BENCH_<tag>.json`` in ``--out`` holds the machine line, each
tree's commit, the settings, the ``survey`` section, the FFT probe's summary
and every pair's raw wall times. The section sums up each metric: each
side's first quartile, median and third quartile over the pairs, the ratio
of the medians, and the number of pairs in which the change read lower (ties
count for neither). A pair's value of a metric is the median of its child's
samples. Nothing here gates on a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
CLI = "import sys; from ceofdm.cli import main; sys.exit(main(sys.argv[1:]))"


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile (the median alone of one value)."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def fft_probe_us(reps: int = 200) -> float:
    import numpy as np

    x = np.random.default_rng(0).standard_normal(2048) + 0j
    samples = []
    for _ in range(reps):
        started = time.perf_counter_ns()
        np.fft.fft(x)
        samples.append(time.perf_counter_ns() - started)
    return statistics.median(samples) / 1e3


def child(tree: Path, tbp: float, reps: int, work: Path) -> dict:
    """One side of a pair, measured in this process; ceofdm comes from ``tree``."""
    import contextlib
    import io

    import numpy as np

    import ceofdm
    from ceofdm import WaveformConfig, compute_af, random_psk, synthesize
    from ceofdm.cli import main
    from ceofdm.exports import write_af_csv

    if not Path(ceofdm.__file__).resolve().is_relative_to((tree / "src").resolve()):
        sys.exit(f"ceofdm was imported from {ceofdm.__file__}, not from {tree / 'src'}")
    probe = fft_probe_us()
    cfg = WaveformConfig(L=24, tbp=tbp)
    s = synthesize(random_psk(cfg.L, 32, seed=4), cfg)
    nu = np.arange(-48.0, 49.0) * cfg.L / 48  # the grid cmd_synth uses
    # a stored design for quantize: a manifest and two phase vectors
    design = work / "design"
    design.mkdir()
    (design / "manifest.ini").write_text(f"[waveform]\ntbp = {tbp!r}\nmpsk = inf\n", encoding="utf-8")
    rng = np.random.default_rng(1)
    for name in ("phi_initial.csv", "phi_final.csv"):
        rows = [f"{ell},{phi!r}" for ell, phi in enumerate((2 * np.pi * rng.random(24)).tolist(), 1)]
        (design / name).write_text("ell,phi_rad\n" + "\n".join(rows) + "\n", encoding="utf-8")

    af_us, csv_us, op_ms = [], [], []
    for k in range(reps + 1):  # each of the three in turn; round 0 is a warm-up
        started = time.perf_counter()
        af = compute_af(s, nu)
        middle = time.perf_counter()
        write_af_csv(work / "af.csv", af, nu)
        ended = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (
                main(["synth", "--out", str(work / "synth"), "--seed", str(k + 1), "--set", f"waveform.tbp={tbp!r}"]),
                main(["quantize", "--out", str(work / "quant"), "--input", str(design)]),
            )
        if codes != (0, 0):
            sys.exit(f"survey op {k} exited {codes}")
        if k:
            af_us.append((middle - started) * 1e6)
            csv_us.append((ended - middle) * 1e6)
            op_ms.append((time.perf_counter() - ended) * 1e3)
    return {
        "fft_probe_us": round(probe, 3),
        "compute_af_us": [round(v, 1) for v in af_us],
        "write_af_csv_us": [round(v, 1) for v in csv_us],
        "survey_op_ms": [round(v, 3) for v in op_ms],
    }


def run_child(tree: Path, args) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as work:
        argv = [sys.executable, __file__, "--child", str(tree), "--tbp", repr(args.tbp),
                "--reps", str(args.reps), "--work", work]
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"the child for {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def peak_rss_mb(tree: Path, large: tuple[int, float]) -> float:
    """Peak RSS of one ``synth`` of the given L and tbp, with the AF, in a child of its own."""
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as work:
        argv = [sys.executable, "-c", CLI, "synth", "--out", work, "--seed", "1",
                "--set", f"waveform.L={large[0]}", "--set", f"waveform.tbp={large[1]!r}"]
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"synth at L = {large[0]}, tbp = {large[1]} in {tree} exited {proc.returncode}")
    return usage.ru_maxrss / 1024


def commit(tree: Path) -> str:
    """The tree's commit, and "+ changes" when its working tree differs from it."""
    try:
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
                              check=True, capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(tree), "status", "--porcelain", "--untracked-files=no"],
                               check=True, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + (" + changes" if dirty else "")


def machine() -> str:
    import numpy as np

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{model}, {len(os.sched_getaffinity(0))} vCPU, {platform.system()} {platform.release()}, "
            f"Python {platform.python_version()}, numpy {np.__version__}")


def summarize(pairs: list[dict], key: str) -> dict:
    """Each side's quartiles over the pairs' values of ``key``, the ratio of
    the medians and the number of pairs in which the change read lower."""
    value = {side: [pair[side][key] for pair in pairs] for side in SIDES}
    value = {side: [statistics.median(v) if isinstance(v, list) else v for v in vs] for side, vs in value.items()}
    parent, change = value["parent"], value["change"]
    return {
        "parent_quartiles": [round(v, 3) for v in quartiles(parent)],
        "change_quartiles": [round(v, 3) for v in quartiles(change)],
        "change_over_parent": round(statistics.median(change) / statistics.median(parent), 4),
        "change_lower_in": sum(c < p for p, c in zip(parent, change)),
        "pairs": len(pairs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--tag", default="layers", help="the file is BENCH_<tag>.json")
    parser.add_argument("--out", type=Path, default=Path("."), help="directory of the JSON file")
    parser.add_argument("--pairs", type=int, default=20, help="alternated pairs of timing children")
    parser.add_argument("--reps", type=int, default=10,
                        help="timed rounds per child, each one compute_af, one write_af_csv and one survey op")
    parser.add_argument("--tbp", type=float, default=208.0, help="time-bandwidth product of the survey size")
    parser.add_argument("--rss-pairs", type=int, default=2, help="alternated pairs of large synth children")
    parser.add_argument("--large", type=float, nargs=2, default=(256, 20000.0), metavar=("L", "TBP"),
                        help="L and tbp of the large synth whose peak RSS is read")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child, args.tbp, args.reps, args.work)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("give a parent tree and a change tree")
    trees = {"parent": args.parent, "change": args.change}
    large = (int(args.large[0]), float(args.large[1]))

    def alternated(count: int, measure) -> list[dict]:
        pairs = []
        for k in range(count):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pairs.append({"order": list(order), **{side: measure(trees[side]) for side in order}})
            print(f"pair {k + 1} of {count} done", file=sys.stderr)
        return pairs

    timing = alternated(args.pairs, lambda tree: run_child(tree, args))
    rss = alternated(args.rss_pairs, lambda tree: {"peak_rss_mb": round(peak_rss_mb(tree, large), 1)})
    report = {
        "tag": args.tag,
        "machine": machine(),
        "commits": {side: commit(tree) for side, tree in trees.items()},
        "settings": {"pairs": args.pairs, "reps": args.reps, "tbp": args.tbp,
                     "rss_pairs": args.rss_pairs, "large_L": large[0], "large_tbp": large[1]},
        "survey": {
            "compute_af_us": summarize(timing, "compute_af_us"),
            "write_af_csv_us": summarize(timing, "write_af_csv_us"),
            "survey_op_ms": summarize(timing, "survey_op_ms"),
            "synth_large_peak_rss_mb": summarize(rss, "peak_rss_mb"),
        },
        "fft_probe_us": summarize(timing, "fft_probe_us"),
        "timing_pairs": timing,
        "rss_pairs": rss,
    }
    path = args.out / f"BENCH_{args.tag}.json"
    # one line per list of numbers
    text = re.sub(r"\[[^][{}\"]*\]", lambda m: json.dumps(json.loads(m.group(0))), json.dumps(report, indent=1))
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
