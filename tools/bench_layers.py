"""Compare two source trees of ceofdm layer by layer, in fresh child processes.

Usage (from the repository root):

    python tools/bench_layers.py PARENT CHANGE --tag af_half

PARENT and CHANGE are checkouts of the repository (each holding ``src/``);
they may be the same tree. Each pair runs one child per tree, with the side
that runs first alternating from pair to pair. A child imports ceofdm from
its tree's ``src/``, takes an FFT probe (the median µs of a 2048-point
complex FFT, a reading of the machine's speed at that moment), and then
times ``--reps`` rounds, after one warm-up round, of one survey op in ms:
``synth --set waveform.tbp=<tbp>`` (L = 24; 208 gives M = 1040) and then
``quantize`` of a stored design, as ``benchmarks/run.py`` runs it. Within
it, the ``compute_af`` and ``write_af_csv`` calls that the tree's own
``synth`` makes are timed in µs, through timers wrapped around
``ceofdm.cli.compute_af`` and ``ceofdm.cli.write_af_csv``, so each tree is
timed on exactly the Doppler grid it uses.

Then ``--rss-pairs`` alternated pairs of ``synth --set waveform.L=<L> --set
waveform.tbp=<tbp>`` (``--large``, default 256 and 20000) each run as a child
of their own, whose peak RSS is read with ``os.wait4``.

Then the GISL M-curve: for each M of ``--curve`` (default 10^3, 10^4, 10^5
and 10^6), ``--curve-pairs`` alternated pairs of children, each of which
takes the FFT probe, builds a ``GradientWorkspace`` on the full band at
tbp = M/5 and p = 20, with L = 24, 64, 256 and 1024 at M = 10^3 to 10^6,
and records the N it picks and the median, over max(3, 3 * 10^6 // M)
calls each, of:

- µs per ``cost()`` and per ``cost_and_gradient()``, each call at a fresh
  point, and each also in ns per N log2 N;
- µs per bare kernel at the workspace's M and N, each the gufunc that
  ``metrics._fft_kernel`` returns: the harmonic irfft (M), fft, rfft, irfft
  and ifft (N) and the rfft of z (M), and the M-sample phasor
  ``metrics._phasor``. The rest of an evaluation is then its ufunc share.

Each side of a curve pair then runs ``optimize --set waveform.L=<L> --set
waveform.tbp=<M/5> --set optimizer.max_iters=3`` at seed 1 as a child of
its own and records its peak RSS, read with ``os.wait4``.

Then ``--pairs`` alternated pairs of children that each take the FFT probe
and time ``--reps`` ``design`` ops, in ms: ``optimize --set
waveform.mpsk=inf --set region.mode=interval --set region.hi=0.1`` at the
defaults (M = 1000), as ``benchmarks/run.py`` runs it.

Every child runs with PYTHONPATH set to its tree's ``src/`` and with a fresh
empty PYTHONPYCACHEPREFIX directory of its own, so no tree's
``__pycache__`` is read and both sides compile ceofdm from source in the
same state.

The file ``BENCH_<tag>.json`` in ``--out`` holds the machine line, each
tree's commit, the settings, the ``survey`` and ``gisl_curve`` sections, the
FFT probe's summary and every pair's raw values. A section sums up each
metric: each side's first quartile, median and third quartile over the
pairs, the ratio of the medians, and the number of pairs in which the change
read lower (ties count for neither). It adds the number of pairs whose two
probes agree, the change's within 10% of the parent's, and the ratio of the
medians over those pairs alone: null where no pair agrees, and where the
pairs carry no probe, as the survey's RSS pairs do. The raw ratio stays the
headline; the probe-agreeing one shows whether it holds on pairs that ran
at the same machine speed. A pair's value of a metric is the median of its
child's samples; the curve's N is given per side. Nothing here gates on a
time.
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
DESIGN = ["--set", "waveform.mpsk=inf", "--set", "region.mode=interval", "--set", "region.hi=0.1"]
CURVE = {10**3: 24, 10**4: 64, 10**5: 256, 10**6: 1024}  # M and its L on the curve
CURVE_KEYS = ("cost_us", "cost_and_gradient_us", "cost_ns_per_n_log2_n", "cost_and_gradient_ns_per_n_log2_n")


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile (the median alone of one value)."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def median_us(call, reps: int) -> float:
    """Median µs of ``reps`` timed calls of ``call(k)``, k = 0..reps-1."""
    samples = []
    for k in range(reps):
        started = time.perf_counter_ns()
        call(k)
        samples.append(time.perf_counter_ns() - started)
    return statistics.median(samples) / 1e3


def fft_probe_us(reps: int = 200) -> float:
    import numpy as np

    x = np.random.default_rng(0).standard_normal(2048) + 0j
    return median_us(lambda k: np.fft.fft(x), reps)


def check_import(tree: Path) -> None:
    """Exit unless ceofdm was imported from ``tree``'s ``src/``."""
    import ceofdm

    if not Path(ceofdm.__file__).resolve().is_relative_to((tree / "src").resolve()):
        sys.exit(f"ceofdm was imported from {ceofdm.__file__}, not from {tree / 'src'}")


def child(tree: Path, tbp: float, reps: int, work: Path) -> dict:
    """One side of a pair, measured in this process; ceofdm comes from ``tree``."""
    import contextlib
    import io

    import numpy as np

    from ceofdm import cli

    check_import(tree)
    probe = fft_probe_us()
    # µs of each call of the two AF stages that synth makes
    stage_us = {"compute_af": [], "write_af_csv": []}

    def timed(name: str):
        call = getattr(cli, name)

        def timed_call(*args):
            started = time.perf_counter()
            result = call(*args)
            stage_us[name].append((time.perf_counter() - started) * 1e6)
            return result

        return timed_call

    for name in stage_us:
        setattr(cli, name, timed(name))
    # a stored design for quantize: a manifest and two phase vectors
    design = work / "design"
    design.mkdir()
    (design / "manifest.ini").write_text(f"[waveform]\ntbp = {tbp!r}\nmpsk = inf\n", encoding="utf-8")
    rng = np.random.default_rng(1)
    for name in ("phi_initial.csv", "phi_final.csv"):
        rows = [f"{ell},{phi!r}" for ell, phi in enumerate((2 * np.pi * rng.random(24)).tolist(), 1)]
        (design / name).write_text("ell,phi_rad\n" + "\n".join(rows) + "\n", encoding="utf-8")

    op_ms = []
    for k in range(reps + 1):  # round 0 is a warm-up
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (
                cli.main(["synth", "--out", str(work / "synth"), "--seed", str(k + 1),
                          "--set", f"waveform.tbp={tbp!r}"]),
                cli.main(["quantize", "--out", str(work / "quant"), "--input", str(design)]),
            )
        if codes != (0, 0):
            sys.exit(f"survey op {k} exited {codes}")
        if k:
            op_ms.append((time.perf_counter() - started) * 1e3)
    if any(len(times) != reps + 1 for times in stage_us.values()):
        sys.exit(f"synth made {[len(v) for v in stage_us.values()]} AF calls in {reps + 1} survey ops, not one each")
    return {
        "fft_probe_us": round(probe, 3),
        "compute_af_us": [round(v, 1) for v in stage_us["compute_af"][1:]],
        "write_af_csv_us": [round(v, 1) for v in stage_us["write_af_csv"][1:]],
        "survey_op_ms": [round(v, 3) for v in op_ms],
    }


def curve_child(tree: Path, m: int) -> dict:
    """One point of the GISL M-curve, measured in this process; ceofdm comes from ``tree``."""
    import math

    import numpy as np

    from ceofdm import (GradientWorkspace, WaveformConfig, build_weights, compute_acf,
                        detect_mainlobe_null, random_psk, synthesize)
    from ceofdm.metrics import _fft_kernel, _phasor

    check_import(tree)
    probe = fft_probe_us()
    L = CURVE[m]
    cfg = WaveformConfig(L=L, tbp=m / 5, mpsk=math.inf)
    phi = random_psk(L, math.inf, seed=5)
    ws = GradientWorkspace(cfg, build_weights(detect_mainlobe_null(compute_acf(synthesize(phi, cfg))), m), 20)
    n, reps = ws._n, max(3, 3 * 10**6 // m)
    # a fresh point for every call, so no call hits the cache, after three
    # warm-up calls
    rng = np.random.default_rng(5)
    points = phi + 0.01 * rng.standard_normal((2 * reps + 3, L))
    for point in points[2 * reps :]:
        ws.cost_and_gradient(point)
    times = {
        "cost_us": median_us(lambda k: ws.cost(points[k]), reps),
        "cost_and_gradient_us": median_us(lambda k: ws.cost_and_gradient(points[reps + k]), reps),
    }
    n_log2_n = n * math.log2(n)
    for key in ("cost", "cost_and_gradient"):
        times[f"{key}_ns_per_n_log2_n"] = times[f"{key}_us"] * 1e3 / n_log2_n
    # each kernel on its own buffers: (kind, length, input, output)
    real_m, real_n = rng.standard_normal(m), rng.standard_normal(n)
    half_m = np.fft.rfft(real_m)
    cases = {
        "harmonic_irfft": ("irfft", m, half_m, np.empty(m)),
        "fft": ("fft", n, np.exp(1j * real_m), np.empty(n, dtype=complex)),
        "rfft": ("rfft", n, real_n, np.empty(n // 2 + 1, dtype=complex)),
        "irfft": ("irfft", n, np.fft.rfft(real_n), np.empty(n)),
        "ifft": ("ifft", n, np.fft.fft(real_n), np.empty(n, dtype=complex)),
        "z_rfft": ("rfft", m, real_m, np.empty_like(half_m)),
    }
    kernels = {}
    for name, (kind, length, a, out) in cases.items():
        kernel, scale = _fft_kernel(kind, length)
        kernel(a, scale, out=out)  # warm-up
        kernels[name] = median_us(lambda k: kernel(a, scale, out=out), reps)
    phasor = np.empty(m, dtype=complex)
    _phasor(real_m, phasor.real, phasor.imag)
    kernels["phasor"] = median_us(lambda k: _phasor(real_m, phasor.real, phasor.imag), reps)
    return {"fft_probe_us": round(probe, 3), "M": m, "L": L, "N": n, "reps": reps,
            **{k: round(v, 3) for k, v in times.items()},
            "kernels_us": {k: round(v, 3) for k, v in kernels.items()}}


def design_child(tree: Path, reps: int, work: Path) -> dict:
    """``reps`` design ops in ms, after one warm-up op, as ``benchmarks/run.py`` runs them."""
    import contextlib
    import io

    from ceofdm.cli import main

    check_import(tree)
    probe = fft_probe_us()
    op_ms = []
    for k in range(reps + 1):
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["optimize", "--out", str(work / "design"), "--seed", str(k + 1), *DESIGN])
        if code:
            sys.exit(f"design op {k} exited {code}")
        if k:
            op_ms.append(round((time.perf_counter() - started) * 1e3, 3))
    return {"fft_probe_us": round(probe, 3), "design_op_ms": op_ms}


def child_env(tree: Path, work: str) -> dict:
    """The environment of a child: ceofdm from ``tree``, bytecode only in a
    fresh directory under ``work``, so no ``__pycache__`` of a tree is read."""
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONPYCACHEPREFIX": str(Path(work) / "pycache")}


def run_child(tree: Path, args, *mode: str) -> dict:
    """A child of this script in ``mode`` (the survey child when empty), as parsed JSON."""
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as work:
        argv = [sys.executable, __file__, "--child", str(tree), "--tbp", repr(args.tbp),
                "--reps", str(args.reps), "--work", work, *mode]
        done = subprocess.run(argv, env=child_env(tree, work), capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"the child for {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def peak_rss_mb(tree: Path, command: list[str]) -> float:
    """Peak RSS in MB of one ceofdm ``command`` (argv without --out) at seed 1, in a child of its own."""
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as work:
        argv = [sys.executable, "-c", CLI, *command, "--out", str(Path(work) / "out"), "--seed", "1"]
        proc = subprocess.Popen(argv, env=child_env(tree, work), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{' '.join(command)} in {tree} exited {proc.returncode}")
    return round(usage.ru_maxrss / 1024, 1)


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


def ratio(parent: list[float], change: list[float]) -> float:
    """The change's median over the parent's."""
    return round(statistics.median(change) / statistics.median(parent), 4)


def summarize(pairs: list[dict], *path: str) -> dict:
    """Each side's quartiles over the pairs' values at ``path``, a key or a
    chain of keys, the ratio of the medians and the number of pairs in which
    the change read lower; then the number of pairs whose FFT probes agree
    and the ratio of the medians over those pairs alone, None where no pair
    agrees or the pairs carry no probe."""

    def lookup(side: dict):
        for key in path:
            side = side[key]
        return side

    value = {side: [lookup(pair[side]) for pair in pairs] for side in SIDES}
    value = {side: [statistics.median(v) if isinstance(v, list) else v for v in vs] for side, vs in value.items()}
    parent, change = value["parent"], value["change"]
    # the pairs whose change probe is within 10% of their parent probe
    agree = [k for k, pair in enumerate(pairs) if "fft_probe_us" in pair["parent"]
             and abs(pair["change"]["fft_probe_us"] / pair["parent"]["fft_probe_us"] - 1) <= 0.1]
    return {
        "parent_quartiles": [round(v, 3) for v in quartiles(parent)],
        "change_quartiles": [round(v, 3) for v in quartiles(change)],
        "change_over_parent": ratio(parent, change),
        "change_lower_in": sum(c < p for p, c in zip(parent, change)),
        "pairs": len(pairs),
        "probe_agreeing_pairs": len(agree),
        "change_over_parent_probe_agreeing": ratio([parent[k] for k in agree], [change[k] for k in agree]) if agree else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--tag", default="layers", help="the file is BENCH_<tag>.json")
    parser.add_argument("--out", type=Path, default=Path("."), help="directory of the JSON file")
    parser.add_argument("--pairs", type=int, default=20, help="alternated pairs of timing children")
    parser.add_argument("--reps", type=int, default=10,
                        help="timed survey ops per child, each with synth's compute_af and write_af_csv")
    parser.add_argument("--tbp", type=float, default=208.0, help="time-bandwidth product of the survey size")
    parser.add_argument("--rss-pairs", type=int, default=2, help="alternated pairs of large synth children")
    parser.add_argument("--large", type=float, nargs=2, default=(256, 20000.0), metavar=("L", "TBP"),
                        help="L and tbp of the large synth whose peak RSS is read")
    parser.add_argument("--curve-pairs", type=int, default=2, help="alternated pairs of M-curve children")
    parser.add_argument("--curve", type=int, nargs="+", default=sorted(CURVE), choices=sorted(CURVE),
                        metavar="M", help="the M of the curve, each of 1000, 10000, 100000 and 1000000")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--curve-point", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--design-ops", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        if args.curve_point is not None:
            result = curve_child(args.child, args.curve_point)
        elif args.design_ops:
            result = design_child(args.child, args.reps, args.work)
        else:
            result = child(args.child, args.tbp, args.reps, args.work)
        print(json.dumps(result))
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
    synth = ["synth", "--set", f"waveform.L={large[0]}", "--set", f"waveform.tbp={large[1]!r}"]
    rss = alternated(args.rss_pairs, lambda tree: {"peak_rss_mb": peak_rss_mb(tree, synth)})
    # the two sides of a pair run back to back, so the machine's speed drifts
    # less between them than over a pass through every M
    curve = {}
    for m in args.curve:
        optimize = ["optimize", "--set", f"waveform.L={CURVE[m]}", "--set", f"waveform.tbp={m / 5!r}",
                    "--set", "optimizer.max_iters=3"]
        curve[str(m)] = alternated(args.curve_pairs, lambda tree: {
            **run_child(tree, args, "--curve-point", str(m)),
            "optimize_peak_rss_mb": peak_rss_mb(tree, optimize)})
    design = alternated(args.pairs, lambda tree: run_child(tree, args, "--design-ops"))
    points = {}
    for m, pairs in curve.items():
        first = pairs[0]
        points[m] = {
            "L": first["parent"]["L"],
            "N": {side: first[side]["N"] for side in SIDES},
            **{key: summarize(pairs, key) for key in (*CURVE_KEYS, "optimize_peak_rss_mb")},
            "kernels_us": {name: summarize(pairs, "kernels_us", name) for name in first["parent"]["kernels_us"]},
        }
    report = {
        "tag": args.tag,
        "machine": machine(),
        "commits": {side: commit(tree) for side, tree in trees.items()},
        "settings": {"pairs": args.pairs, "reps": args.reps, "tbp": args.tbp,
                     "rss_pairs": args.rss_pairs, "large_L": large[0], "large_tbp": large[1],
                     "curve_pairs": args.curve_pairs, "curve": args.curve},
        "survey": {
            "compute_af_us": summarize(timing, "compute_af_us"),
            "write_af_csv_us": summarize(timing, "write_af_csv_us"),
            "survey_op_ms": summarize(timing, "survey_op_ms"),
            "synth_large_peak_rss_mb": summarize(rss, "peak_rss_mb"),
        },
        "gisl_curve": {**points, "design_op_ms": summarize(design, "design_op_ms")},
        "fft_probe_us": summarize(timing, "fft_probe_us"),
        "timing_pairs": timing,
        "rss_pairs": rss,
        "curve_pairs": curve,
        "design_pairs": design,
    }
    path = args.out / f"BENCH_{args.tag}.json"
    # one line per list of numbers
    text = re.sub(r"\[[^][{}\"]*\]", lambda m: json.dumps(json.loads(m.group(0))), json.dumps(report, indent=1))
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
