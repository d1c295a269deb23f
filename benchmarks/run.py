"""ceofdm benchmark: closed-loop workloads driven in-process through ceofdm.cli.main.

Usage (from the repository root):

    python3 benchmarks/run.py --workload design --seed 1 --seconds 30 --trace 0

One caller runs ops back to back for ``--seconds`` (a closed loop with one
client), checks every op's outputs, and prints every metric by name with its
unit; the last line of stdout is the JSON result. ``--trace 0`` reports the
end-to-end metrics from untraced ops, with times rescaled to a reference
machine speed. ``--trace 1`` interleaves untraced and traced ops and reports
the per-layer metrics. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, SpanSummary, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 13  # set-ups in fresh interpreters; setup_s is their median
SERIAL_OPS = 2  # campaign ops repeated at --threads 1 in a traced run
ORACLE_SAMPLES = 256  # M for the brute-force ACF check, which is O(M^2) in pure Python
# Median 2048-point complex FFT time, in us, of an uncontended core of the
# 2-vCPU 2.0 GHz Xeon this benchmark was tuned on (numpy 2.4.6). Timings are
# rescaled to this speed; see "Speed normalisation" in README.md.
REF_FFT_US = 25.0
# An op should leave the machine as fast as it found it. A median ratio of the
# probe after an op to the probe before it above this means the program leaves
# work behind that slows the core, which the rescaling would otherwise hide.
PROBE_RATIO_MAX = 1.2
# What reading a malformed or missing output file raises.
OUTPUT_ERRORS = (OSError, ValueError, KeyError, IndexError)


class BenchError(Exception):
    """The benchmark cannot run here: no program to load, or a timed set-up failed."""


def load_program():
    """Import ceofdm from this checkout's ``src`` (never from an installed copy); return cli.main."""
    src = ROOT / "src"
    if not (src / "ceofdm" / "__init__.py").is_file():
        raise BenchError(f"no ceofdm package under {src}")
    sys.path.insert(0, str(src))
    import ceofdm.cli

    if Path(ceofdm.cli.__file__).resolve().parent != (src / "ceofdm").resolve():
        raise BenchError(f"imported ceofdm from {ceofdm.cli.__file__}, not from {src}")
    return ceofdm.cli.main


# ----------------------------------------------------------------------------
# output parsing shared by the checks


def read_summary(path: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {key: value for key, value in pairs}


def numeric_errors(where: str, values: dict[str, str], skip=("status",)) -> list[str]:
    errors = []
    for key, text in values.items():
        if key in skip:
            continue
        try:
            ok = math.isfinite(float(text))
        except ValueError:
            ok = False
        if not ok:
            errors.append(f"{where}: {key} = {text!r} is not a finite number")
    return errors


def read_phi(path: Path) -> list[float]:
    return [float(line.split(",")[1]) for line in path.read_text(encoding="utf-8").splitlines()[1:]]


# ----------------------------------------------------------------------------
# workloads


class Workload:
    """One op is a fixed list of ``ceofdm`` command lines at a fresh seed."""

    designs_per_op = 1  # pulses an op designs or surveys
    every_core = False  # whether an op's processes use every core (see fft_us)
    rerun_threads = None  # --threads for the byte-identity rerun of op 0
    layers = LAYERS  # layers a traced op must call

    def __init__(self, main, work: Path, seed: int) -> None:
        self.main = main  # ceofdm.cli.main
        self.work = work
        self.base = 1_000_000 * (seed % 2000)

    def op_seed(self, i: int) -> int:
        """Seed of op i; op -1 is the warm-up op."""
        return self.base + self.designs_per_op * (i + 1)

    def prepare(self) -> None:
        """Generate inputs (part of set-up)."""

    def commands(self, i: int, out: Path, threads: int | None = None) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out: Path) -> tuple[list[str], list[tuple[float, float]]]:
        """Output errors, and (GISL dB, PSLR dB) of each pulse the op produced."""
        raise NotImplementedError

    def oracle_phases(self, out: Path) -> list[float]:
        raise NotImplementedError

    def extra_checks(self, out: Path) -> list[str]:
        return []


class Design(Workload):
    """Single sub-region design at the defaults: L=24, M=1000, p=20."""

    name = "design"
    layers = tuple(layer for layer in LAYERS if layer != "quantize")

    def commands(self, i, out, threads=None):
        return [[
            "optimize", "--out", str(out), "--seed", str(self.op_seed(i)),
            "--set", "waveform.mpsk=inf", "--set", "region.mode=interval", "--set", "region.hi=0.1",
        ]]

    def check(self, out):
        summary = read_summary(out / "summary.txt")
        errors = numeric_errors("summary.txt", summary)
        if errors:
            return errors, []
        if not float(summary["gisl_final_db"]) < float(summary["gisl_initial_db"]):
            errors.append(
                f"summary.txt: gisl_final_db {summary['gisl_final_db']} is not below "
                f"gisl_initial_db {summary['gisl_initial_db']}"
            )
        return errors, [(float(summary["gisl_final_db"]), float(summary["pslr_final_db"]))]

    def oracle_phases(self, out):
        return read_phi(out / "phi_final.csv")


class Campaign(Workload):
    """Full-band Monte Carlo sweep of ``designs_per_op`` seeds per op on the process pool."""

    name = "campaign"
    designs_per_op = 4
    threads = 2
    rerun_threads = 1
    every_core = True
    layers = tuple(layer for layer in LAYERS if layer != "quantize")

    def commands(self, i, out, threads=None):
        return [[
            "sweep", "--out", str(out), "--seed", str(self.op_seed(i)),
            "--threads", str(threads or self.threads),
            "--set", "waveform.mpsk=inf", "--set", f"run.seed_count={self.designs_per_op}",
        ]]

    def check(self, out):
        errors = numeric_errors("aggregate.txt", read_summary(out / "aggregate.txt"))
        lines = (out / "seeds.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        quality = []
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            if row["status"] != "ok":
                errors.append(f"seeds.csv: seed {row['seed']} {row['status']}: {row['detail']}")
                continue
            row_errors = numeric_errors(f"seeds.csv seed {row['seed']}", row, skip=("status", "detail"))
            errors += row_errors
            if not row_errors:
                quality.append((float(row["gisl_final_db"]), float(row["pslr_final_db"])))
        if len(lines) - 1 != self.designs_per_op:
            errors.append(f"seeds.csv has {len(lines) - 1} rows, expected {self.designs_per_op}")
        return errors, quality

    def oracle_phases(self, out):
        import numpy as np

        return list(2 * np.pi * np.random.default_rng(self.op_seed(0)).random(24))


class Survey(Workload):
    """Figure data: synth with AF and spectrogram, then PSK damage of a stored design."""

    name = "survey"
    inputs = 8  # optimize-format input directories, used round robin
    layers = tuple(layer for layer in LAYERS if layer not in ("gradient", "optimizer"))

    def prepare(self):
        # Inputs are written by the benchmark itself, not by the optimizer: a
        # minimal manifest (everything else default) and two phase vectors.
        import numpy as np

        for k in range(self.inputs):
            d = self.work / "inputs" / f"in_{k}"
            d.mkdir(parents=True, exist_ok=True)
            (d / "manifest.ini").write_text("[waveform]\ntbp = 208\nmpsk = inf\n", encoding="utf-8")
            rng = np.random.default_rng([self.base, k])
            for name in ("phi_initial.csv", "phi_final.csv"):
                rows = [f"{ell},{phi!r}" for ell, phi in enumerate((2 * np.pi * rng.random(24)).tolist(), 1)]
                (d / name).write_text("ell,phi_rad\n" + "\n".join(rows) + "\n", encoding="utf-8")

    def commands(self, i, out, threads=None):
        return [
            ["synth", "--out", str(out / "synth"), "--seed", str(self.op_seed(i)), "--set", "waveform.tbp=208"],
            ["quantize", "--out", str(out / "quant"), "--input", str(self.work / "inputs" / f"in_{i % self.inputs}")],
        ]

    def check(self, out):
        summary = read_summary(out / "synth" / "summary.txt")
        errors = numeric_errors("synth summary.txt", summary)
        lines = (out / "quant" / "report.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            errors += numeric_errors(f"report.csv mpsk {row['mpsk']}", row, skip=("mpsk",))
        if errors:
            return errors, []
        return errors, [(float(summary["gisl_db"]), float(summary["pslr_db"]))]

    def oracle_phases(self, out):
        return read_phi(out / "synth" / "phi.csv")

    def extra_checks(self, out):
        """The zero-Doppler row of af.csv must reproduce acf.csv."""
        af_lines = (out / "synth" / "af.csv").read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in af_lines[1:]]
        zero = [row for row in rows if float(row[0]) == 0.0]
        if len(zero) != 1:
            return [f"af.csv has {len(zero)} zero-Doppler rows, expected 1"]
        acf = [line.split(",")[2] for line in (out / "synth" / "acf.csv").read_text(encoding="utf-8").splitlines()[1:]]
        if len(acf) != len(zero[0]) - 1:
            return [f"af.csv zero-Doppler row has {len(zero[0]) - 1} delays, acf.csv has {len(acf)}"]
        # compare as amplitudes: near the -200 dB floor the dB text is ill-conditioned
        worst = max(abs(10 ** (float(a) / 20) - 10 ** (float(b) / 20)) for a, b in zip(zero[0][1:], acf))
        return [] if worst <= 1e-12 else [f"af.csv zero-Doppler row differs from acf.csv by {worst:.3g}"]


WORKLOADS = {w.name: w for w in (Design, Campaign, Survey)}


# ----------------------------------------------------------------------------
# running ops


def run_op(workload: Workload, i: int, out: Path, threads: int | None = None):
    """Run op i into ``out``; return its wall time in seconds, errors and pulse quality."""
    errors, quality = [], []
    started = time.perf_counter()
    for argv in workload.commands(i, out, threads):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = workload.main(argv)
        except Exception as exc:  # an escaped exception is a failed op, not a dead benchmark
            code, errors = None, [f"{argv[0]} raised {exc!r}"]
        if code != 0:
            errors = errors or [f"{argv[0]} exited {code}: {stderr.getvalue().strip()}"]
            break
    wall = time.perf_counter() - started
    if not errors:
        try:
            errors, quality = workload.check(out)
        except OUTPUT_ERRORS as exc:
            errors = [f"unreadable output: {exc!r}"]
    return wall, errors, quality


def fft_us(reps: int = 200, every_core: bool = False) -> float:
    """Median time of a 2048-point complex FFT: the machine's speed right now.

    The cores of this machine slow down independently. A single-process op
    runs on this process's core, which is probed in place. With
    ``every_core`` the probe runs pinned to each allowed core in turn and the
    mean is returned, for ops whose worker processes use all cores.
    """
    if every_core:
        cores = os.sched_getaffinity(0)
        try:
            speeds = []
            for core in sorted(cores):
                os.sched_setaffinity(0, {core})
                speeds.append(fft_us(reps))
        finally:
            os.sched_setaffinity(0, cores)
        return statistics.mean(speeds)
    import numpy as np

    x = np.random.default_rng(0).standard_normal(2048) + 0j
    samples = []
    for _ in range(reps):
        t = time.perf_counter_ns()
        np.fft.fft(x)
        samples.append(time.perf_counter_ns() - t)
    return statistics.median(samples) / 1e3


def setup(workload_cls, seed: int, work: Path):
    """Import the program, generate inputs, run one warm-up op.

    Returns the workload, the set-up wall time and the warm-up op's errors.
    """
    started = time.perf_counter()
    workload = workload_cls(load_program(), work, seed)
    workload.prepare()
    _, errors, _ = run_op(workload, -1, work / "warmup")
    return workload, time.perf_counter() - started, errors


def timed_setup(workload_cls, seed: int, work: Path) -> tuple[float, float]:
    """One set-up: (wall s, s at reference speed).

    numpy is imported before the timer starts, because the speed probe needs
    it. The two parts of the set-up, importing ceofdm with generating inputs
    and the warm-up op, are each timed between two probes and rescaled by
    their mean, like an op.
    """
    import numpy  # noqa: F401

    speeds = [fft_us(every_core=workload_cls.every_core)]
    started = time.perf_counter()
    workload = workload_cls(load_program(), work, seed)
    workload.prepare()
    walls = [time.perf_counter() - started]
    speeds.append(fft_us(every_core=workload_cls.every_core))
    walls.append(run_op(workload, -1, work / "warmup")[0])
    speeds.append(fft_us(every_core=workload_cls.every_core))
    ref = sum(wall * REF_FFT_US / ((a + b) / 2) for wall, a, b in zip(walls, speeds, speeds[1:]))
    return sum(walls), ref


def measure_setups(args, work: Path) -> list[tuple[float, float]]:
    """Set up in fresh interpreters, one after another: (wall, at reference speed) of each."""
    times = []
    for k in range(SETUP_RUNS):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--setup-probe", str(work / f"setup_{k}"),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise BenchError(f"timed set-up failed: {done.stderr.strip()}")
        wall, ref = done.stdout.strip().splitlines()[-1].split()
        times.append((float(wall), float(ref)))
    return times


def machine_context() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "fft2048_us_p50": fft_us(2000),
        "ref_fft2048_us": REF_FFT_US,
    }


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (the 11th largest)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of n={n} (fewer than 11 samples)"
    k = n - 11
    return ordered[k], f"p{100 * (k + 1) / n:.0f} of n={n}, 10 samples beyond"


# ----------------------------------------------------------------------------
# once-per-run checks


def same_outputs(a: Path, b: Path) -> list[str]:
    """Byte-compare two op output trees; manifests may differ only in out/threads."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"rerun wrote {files_b}, first run wrote {files_a}"]
    errors = []
    for rel in files_a:
        data_a, data_b = (a / rel).read_bytes(), (b / rel).read_bytes()
        if rel.name == "manifest.ini":
            keep = lambda data: [l for l in data.splitlines() if not l.startswith((b"out =", b"threads ="))]
            data_a, data_b = keep(data_a), keep(data_b)
        if data_a != data_b:
            errors.append(f"rerun changed {rel}")
    return errors


def oracle_check(workload: Workload, out: Path) -> list[str]:
    """compute_acf against the O(M^2) lag sum from tests/oracles.py."""
    import numpy as np
    from ceofdm import WaveformConfig, compute_acf, synthesize

    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    phi = np.array(workload.oracle_phases(out))
    s = synthesize(phi, WaveformConfig(L=len(phi), tbp=200.0, samples=ORACLE_SAMPLES))
    err = float(np.max(np.abs(compute_acf(s).r - oracles.brute_force_acf(s.samples))))
    return [] if err < 1e-10 else [f"compute_acf differs from brute_force_acf by {err:.3g}"]


# ----------------------------------------------------------------------------
# metrics


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload, walls, times, quality, setups) -> tuple[dict, list[str]]:
    """``times`` and the second item of each set-up are at reference speed."""
    op_tail, tail_note = tail(times)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (p50([ref for _, ref in setups]), "s"),
        "op_ms_p50": (1e3 * p50(times), "ms"),
        "op_ms_tail": (1e3 * op_tail, "ms"),
        "pulses_per_s": (workload.designs_per_op * len(times) / sum(times), "1/s"),
        "gisl_supp_db_p50": (-p50([g for g, _ in quality]), "dB"),
        "pslr_supp_db_p50": (-p50([p for _, p in quality]), "dB"),
        "peak_rss_mb": (max(self_rss, child_rss) / 1024.0, "MB"),
    }
    notes = [
        f"op_ms_tail is the {tail_note}",
        f"setup_s is the median of {len(setups)} set-ups in fresh interpreters, at reference speed: "
        + ", ".join(f"{ref:.3f} (wall {wall:.3f})" for wall, ref in setups),
        f"wall time, not rescaled: op_ms_p50 {1e3 * p50(walls):.1f}, op_ms_tail {1e3 * tail(walls)[0]:.1f}, "
        f"pulses_per_s {workload.designs_per_op * len(walls) / sum(walls):.4g}",
        f"quality medians over {len(quality)} pulses",
    ]
    return metrics, notes


def expected_counts(gd_calls) -> tuple[int, int]:
    """Cost and cost+gradient evaluations implied by the returned optimizer traces."""
    from ceofdm import OptimizerConfig

    cost = grad = 0
    for opt, trace in gd_calls:
        opt = opt or OptimizerConfig()
        cost += sum(row.backtracks + 1 for row in trace.rows)
        if trace.status == "line_search_stall":
            cost += opt.max_backtracks + 1
        grad += len(trace.rows) + 1
    return cost, grad


def per_layer(spans: SpanSummary, gd_calls, written: list[int]) -> dict:
    ops = max(spans.ops, 1)
    us = lambda name: p50(spans.durations_ns.get(name, [])) / 1e3
    ms = lambda name: us(name) / 1e3
    traces = [trace for _, trace in gd_calls]
    n_gd = max(len(traces), 1)
    write_ns = sum(sum(d) for n, d in spans.durations_ns.items() if n.startswith("exports.write_"))
    write_calls = sum(len(d) for n, d in spans.durations_ns.items() if n.startswith("exports.write_"))
    cost_calls = spans.calls("gradient.cost")
    return {
        "gradient.cost.calls": (cost_calls / ops, "count"),
        "gradient.cost.us_p50": (us("gradient.cost"), "us"),
        "gradient.cost_and_gradient.calls": (spans.calls("gradient.cost_and_gradient") / ops, "count"),
        "gradient.cost_and_gradient.us_p50": (us("gradient.cost_and_gradient"), "us"),
        "gradient.self_frac": (spans.self_frac("gradient"), "1"),
        "optimizer.run_gd_gisl.ms_p50": (ms("optimizer.run_gd_gisl"), "ms"),
        "optimizer.iterations": (sum(len(t.rows) for t in traces) / n_gd, "count"),
        "optimizer.backtracks": (sum(r.backtracks for t in traces for r in t.rows) / n_gd, "count"),
        "optimizer.resets": (sum(r.reset for t in traces for r in t.rows) / n_gd, "count"),
        "optimizer.accept_ratio": (sum(len(t.rows) for t in traces) / cost_calls if cost_calls else 0.0, "1"),
        "optimizer.self_frac": (spans.self_frac("optimizer"), "1"),
        "waveform.synthesize.calls": (spans.calls("waveform.synthesize") / ops, "count"),
        "waveform.synthesize.us_p50": (us("waveform.synthesize"), "us"),
        "waveform.build_basis.calls": (spans.calls("waveform.build_basis") / ops, "count"),
        "waveform.build_basis.us_p50": (us("waveform.build_basis"), "us"),
        "waveform.self_frac": (spans.self_frac("waveform"), "1"),
        "metrics.compute_acf.calls": (spans.calls("metrics.compute_acf") / ops, "count"),
        "metrics.compute_acf.us_p50": (us("metrics.compute_acf"), "us"),
        "metrics.compute_af.ms_p50": (ms("metrics.compute_af"), "ms"),
        "metrics.compute_gisl.us_p50": (us("metrics.compute_gisl"), "us"),
        "metrics.self_frac": (spans.self_frac("metrics"), "1"),
        "quantize.degradation_sweep.ms_p50": (ms("quantize.degradation_sweep"), "ms"),
        "exports.write.calls": (write_calls / ops, "count"),
        "exports.write.ms_per_op": (write_ns / 1e6 / ops, "ms"),
        "exports.bytes_per_op": (sum(written) / ops, "B"),
        "exports.mb_per_s": (sum(written) / 1e6 / (write_ns / 1e9) if write_ns else 0.0, "MB/s"),
        "exports.write_af_csv.ms_p50": (ms("exports.write_af_csv"), "ms"),
        "exports.write_spectrum_csv.ms_p50": (ms("exports.write_spectrum_csv"), "ms"),
        "exports.self_frac": (spans.self_frac("exports"), "1"),
        "expconfig.from_sources.us_p50": (us("expconfig.from_sources"), "us"),
        "expconfig.write_manifest.us_p50": (us("expconfig.write_manifest"), "us"),
        "cli.self_frac": (spans.self_frac("cli"), "1"),
    }


def trace_errors(workload: Workload, spans: SpanSummary, gd_calls) -> list[str]:
    errors = [
        f"layer {layer} has no calls on {workload.name}, which calls it"
        for layer in workload.layers
        if spans.layer_calls(layer) == 0
    ]
    cost, grad = expected_counts(gd_calls)
    for name, expected in (("gradient.cost", cost), ("gradient.cost_and_gradient", grad)):
        if spans.calls(name) != expected:
            errors.append(f"{name}: {spans.calls(name)} spans, optimizer traces imply {expected}")
    return errors


# ----------------------------------------------------------------------------
# the two kinds of run


class Run:
    def __init__(self, workload: Workload, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed_ops: set = set()
        self.errors: list[str] = []
        self.first: Path | None = None  # kept output of op 0
        self.first_key = None
        self.probe_ratios: list[float] = []  # speed probe after each op / probe before it

    def op(self, i: int, threads=None, tracer=None, tag="loop"):
        """Run and check op i.

        Returns its wall time, that time rescaled to reference speed by the
        mean of speed probes taken just before and just after it, and the
        quality of its pulses.
        """
        before = fft_us(every_core=self.workload.every_core)
        out = self.work / ("first" if self.first is None else tag)
        if tracer is not None:
            tracer.op = i
            with tracer:
                wall, errors, quality = run_op(self.workload, i, out, threads)
        else:
            wall, errors, quality = run_op(self.workload, i, out, threads)
        key = (tag, i, threads)
        if self.first is None:
            self.first, self.first_key = out, key
        self.attempted += 1
        if errors:
            self.failed_ops.add(key)
            self.errors += [f"op {i}: {e}" for e in errors]
        after = fft_us(every_core=self.workload.every_core)
        self.probe_ratios.append(after / before)
        return wall, wall * REF_FFT_US / ((before + after) / 2), quality

    def finish_checks(self) -> list[str]:
        """Once-per-run checks: op 0's byte-identical rerun, ACF oracle and workload extras.

        Also checks that ops leave the machine's speed as they found it.
        Returns notes for the output.
        """
        ratio = p50(self.probe_ratios)
        notes = [f"speed probe after / before an op: median {ratio:.3f}, max {max(self.probe_ratios):.3f} "
                 f"over {len(self.probe_ratios)} ops"]
        if ratio > PROBE_RATIO_MAX:
            self.errors.append(f"ops leave the machine slower: probe after / before median {ratio:.3f}")
        if self.first_key in self.failed_ops:
            return notes  # op 0's errors are recorded; its outputs may be missing
        workload, rerun = self.workload, self.work / "rerun"
        errors = []
        try:
            _, errors, _ = run_op(workload, 0, rerun, threads=workload.rerun_threads)
            errors = errors or same_outputs(self.first, rerun)
            errors += oracle_check(workload, self.first)
            errors += workload.extra_checks(self.first)
        except OUTPUT_ERRORS as exc:
            errors.append(f"unreadable output: {exc!r}")
        if errors:
            self.failed_ops.add(self.first_key)
            self.errors += [f"op 0 check: {e}" for e in errors]
        return notes


def untraced_run(run: Run, seconds: float, setups) -> tuple[dict, list[str]]:
    walls, times, quality = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        wall, ref, pulses = run.op(i)
        walls.append(wall)
        times.append(ref)
        quality += pulses
        i += 1
    checks = run.finish_checks()
    metrics, notes = end_to_end(run.workload, walls, times, quality, setups)
    return metrics, notes + checks


def traced_run(run: Run, seconds: float) -> tuple[dict, list[str]]:
    import ceofdm.exports

    workload = run.workload
    gd_calls, written = [], []
    observe = {"optimizer.run_gd_gisl": lambda a, k, r: gd_calls.append((a[3] if len(a) > 3 else k.get("opt"), r[1]))}
    for name in ceofdm.exports.__all__:
        if name.startswith("write_"):
            observe[f"exports.{name}"] = lambda a, k, r: written.append(os.path.getsize(a[0]))
    tracer = Tracer(observe)
    plain, traced, pool = [], [], {}  # pool: op -> (children CPU s, wall s, reference s)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        # alternate which goes first, so drift does not favour one side
        for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            cpu = children_cpu_s()
            wall, ref, _ = run.op(i, tracer=tracer if use_tracer else None, tag="traced" if use_tracer else "loop")
            (traced if use_tracer else plain).append(ref)
            if not use_tracer:
                pool[i] = (children_cpu_s() - cpu, wall, ref)
        i += 1
    notes = run.finish_checks()
    if isinstance(workload, Campaign):
        # Library calls run in forked pool workers, whose spans never reach this
        # process: the layers come from the same seeds swept again at --threads 1.
        gd_calls.clear()
        written.clear()
        library, serial = Tracer(observe), []
        for i in range(min(SERIAL_OPS, len(pool))):
            serial.append(run.op(i, threads=1, tag="serial")[1] / pool[i][2])
            run.op(i, threads=1, tracer=library, tag="serial_traced")
        spans = library.summary()
        nproc = len(os.sched_getaffinity(0))
        sweep = {
            "cli.cmd_sweep.worker_cpu_s": (p50([cpu for cpu, _, _ in pool.values()]), "s"),
            "cli.cmd_sweep.cpu_util": (p50([cpu / (workload.threads * wall) for cpu, wall, _ in pool.values()]), "1"),
            "cli.cmd_sweep.parallel_eff": (p50(serial) / nproc, "1"),
        }
        notes.append(
            f"library layers from {len(serial)} traced --threads 1 sweeps over the first ops' seeds; "
            "cli.cmd_sweep.* from RUSAGE_CHILDREN around untraced --threads 2 ops"
        )
    else:
        spans = tracer.summary()
        sweep = {name: (0.0, unit) for name, unit in (
            ("cli.cmd_sweep.worker_cpu_s", "s"), ("cli.cmd_sweep.cpu_util", "1"), ("cli.cmd_sweep.parallel_eff", "1"))}
    run.errors += trace_errors(workload, spans, gd_calls)
    metrics = per_layer(spans, gd_calls, written)
    metrics.update(sweep)
    metrics["trace.overhead_ms"] = (1e3 * (p50(traced) - p50(plain)), "ms")
    notes.append(
        f"tracing overhead: traced op_ms_p50 {1e3 * p50(traced):.2f} - untraced {1e3 * p50(plain):.2f} "
        f"over {len(traced)} interleaved pairs; layer metrics over {spans.ops} traced ops, calls are per op"
    )
    return metrics, notes


# ----------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        work = Path(args.setup_probe)
        try:
            print(*timed_setup(WORKLOADS[args.workload], args.seed, work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    work = ROOT / ".benchwork" / f"{args.workload}-{os.getpid()}"
    try:
        workload, wall, warmup_errors = setup(WORKLOADS[args.workload], args.seed, work)
        print("machine " + json.dumps(machine_context()))
        print(f"note this process's own set-up took {wall:.3f} s wall; setup_s is timed in fresh interpreters")
        run = Run(workload, work)
        run.errors += [f"warm-up op: {e}" for e in warmup_errors]
        if args.trace:
            metrics, notes = traced_run(run, args.seconds)
        else:
            metrics, notes = untraced_run(run, args.seconds, measure_setups(args, work))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for note in notes:
        print(f"note {note}")
    for error in run.errors:
        print(f"error {error}", file=sys.stderr)
    fail_ratio = len(run.failed_ops) / run.attempted
    print(f"fail_ratio {len(run.failed_ops)}/{run.attempted} = {fail_ratio:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
