"""Command-line experiment runner: synth, optimize, quantize, sweep.

All commands resolve an :class:`ExperimentConfig` from defaults, an optional
INI file, and command-line overrides, then write their data products into the
output directory together with a manifest echoing the resolved config. Exit
codes: 0 success, 2 config error, 3 numerical failure, out of memory or a
sweep child that died, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import pickle
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .expconfig import ConfigError, ExperimentConfig
from .exports import (
    _write_rows,
    read_phi_csv,
    write_acf_csv,
    write_af_csv,
    write_inst_freq_csv,
    write_phi_csv,
    write_quantization_csv,
    write_spectrogram_csv,
    write_spectrum_csv,
    write_summary,
    write_trace_csv,
    write_waveform_csv,
)
from .metrics import _levels, _NoSidelobeLag, build_weights, compute_acf, compute_af, detect_mainlobe_null
from .optimizer import run_gd_gisl
from .quantize import degradation_sweep
from .waveform import random_psk, synthesize

__all__ = ["main", "entry", "cmd_synth", "cmd_optimize", "cmd_quantize", "cmd_sweep"]


def _pulse(config: ExperimentConfig, phi0=None):
    """(phi0, s0, r0, null): the initial phases (seeded PSK unless given),
    their pulse, its ACF and the ACF's first null."""
    cfg = config.waveform
    if phi0 is None:
        phi0 = random_psk(cfg.L, cfg.mpsk, config.run.seed)
    s0 = synthesize(phi0, cfg)
    r0 = compute_acf(s0)
    return phi0, s0, r0, detect_mainlobe_null(r0)


def _prepare(config: ExperimentConfig, phi0=None):
    """``_pulse`` with the region's weights at the null in place of the null."""
    phi0, s0, r0, null = _pulse(config, phi0)
    return phi0, s0, r0, build_weights(null, config.waveform.M, config.region.lo, config.region.hi)


def cmd_synth(config: ExperimentConfig) -> None:
    """Write the waveform, its spectrum/spectrogram, and its ACF/AF surfaces."""
    out = Path(config.run.out)
    cfg = config.waveform
    phi0, s0, r0, null = _pulse(config)
    summary = {"null_index": null}
    try:
        weights = build_weights(null, cfg.M, config.region.lo, config.region.hi)
        summary["gisl_db"], summary["pslr_db"] = _levels(r0, weights, config.optimizer.p)
    except _NoSidelobeLag as exc:
        print(f"synth: {exc}, so gisl_db and pslr_db are undefined and left out of summary.txt")
    summary.update(M=cfg.M, fs=cfg.M)  # samples per pulse duration
    config.write_manifest(out / "manifest.ini")
    write_phi_csv(out / "phi.csv", phi0)
    write_acf_csv(out / "acf.csv", r0)
    del r0  # before the waveform, spectrum and AF writers: 32 MB at M = 10**6
    write_waveform_csv(out / "waveform.csv", s0)
    write_inst_freq_csv(out / "inst_freq.csv", phi0, cfg)
    write_spectrum_csv(out / "spectrum.csv", s0, cfg)
    if config.run.write_spectrogram:
        write_spectrogram_csv(out / "spectrogram.csv", s0, cfg)
    if config.run.write_af:
        # k L / 48 for k = 0..48; write_af_csv adds each -nu row, -(k L / 48),
        # which is (-k) L / 48 exactly, as its +nu row reversed in delay
        nu = np.arange(49.0) * cfg.L / 48
        write_af_csv(out / "af.csv", compute_af(s0, nu), nu)
    write_summary(out / "summary.txt", summary)


def _descend(config: ExperimentConfig, phi0, weights, initial):
    """Descend from ``phi0``, then synthesize the final pulse and take its ACF.

    ``initial`` is the initial pulse's ``metrics._levels``. Returns the final
    phases, pulse and ACF, the trace and the summary (GISL and PSLR before
    and after, null indexes, iterations, status and p).
    """
    cfg = config.waveform
    phi_final, trace = run_gd_gisl(phi0, cfg, weights, config.optimizer)
    s_final = synthesize(phi_final, cfg)
    r_final = compute_acf(s_final)
    p = config.optimizer.p
    gisl_initial, pslr_initial = initial
    gisl_final, pslr_final = _levels(r_final, weights, p)
    summary = {
        "gisl_initial_db": gisl_initial,
        "gisl_final_db": gisl_final,
        "gisl_improvement_db": gisl_initial - gisl_final,
        "pslr_initial_db": pslr_initial,
        "pslr_final_db": pslr_final,
        "null_index_initial": weights.null_index,
        "null_index_final": detect_mainlobe_null(r_final),
        "iterations": len(trace.rows),
        "status": trace.status,
        "p": p,
    }
    return phi_final, s_final, r_final, trace, summary


_COUNT_NAMES = ("forward_passes", "gradient_passes", "cache_hits", "backtracks", "momentum_resets")


def _counts_text(counts: dict) -> str:
    """Evaluation counts as printed on stdout, e.g. '12 forward passes, ...'."""
    return ", ".join(f"{counts[name]} {name.replace('_', ' ')}" for name in _COUNT_NAMES)


def cmd_optimize(config: ExperimentConfig) -> None:
    """Run the descent loop and export initial/final waveform data plus the trace.

    Each array goes right after its last reader: the initial ACF once its
    levels are taken and acf_initial.csv is written, the initial pulse after
    spectrum_initial.csv, both before the descent starts, and the final ACF
    after acf_final.csv, before the final spectrum is written.
    """
    out = Path(config.run.out)
    cfg = config.waveform
    begun = time.perf_counter()
    phi0, s0, r0, weights = _prepare(config)
    initial = _levels(r0, weights, config.optimizer.p)
    runtime = time.perf_counter() - begun  # prepare, levels, descent and final ACF; not the writes
    config.write_manifest(out / "manifest.ini")
    write_phi_csv(out / "phi_initial.csv", phi0)
    write_acf_csv(out / "acf_initial.csv", r0)
    del r0
    write_spectrum_csv(out / "spectrum_initial.csv", s0, cfg)
    del s0
    started = time.perf_counter()
    phi_final, s_final, r_final, trace, summary = _descend(config, phi0, weights, initial)
    runtime += time.perf_counter() - started
    write_phi_csv(out / "phi_final.csv", phi_final)
    write_acf_csv(out / "acf_final.csv", r_final)
    del r_final
    write_spectrum_csv(out / "spectrum_final.csv", s_final, cfg)
    write_trace_csv(out / "trace.csv", trace)
    write_summary(out / "summary.txt", summary)
    writing = time.perf_counter() - begun - runtime
    # times and evaluation counts stay off the data files so reruns are byte-identical
    print(
        f"optimize: GISL {summary['gisl_initial_db']:.2f} dB -> "
        f"{summary['gisl_final_db']:.2f} dB in {runtime:.2f} s, writing files {writing:.2f} s; "
        f"{_counts_text(trace.counts)}"
    )


def _read_phases(path: Path, L: int) -> np.ndarray:
    """The phase vector in ``path``, which must hold the L phases its manifest declares."""
    try:
        phi = read_phi_csv(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if len(phi) != L:
        raise ConfigError(f"{path} holds {len(phi)} phases, but its manifest has L = {L}")
    return phi


def cmd_quantize(config: ExperimentConfig, input_dir: str | None = None) -> None:
    """Truncate optimized phases onto each alphabet and export the damage report.

    With ``input_dir``, reuse the phases of a finished optimize run, whose
    pulse ``config`` already describes (``main`` reads it from that run's
    manifest); otherwise optimize in place first.
    """
    out = Path(config.run.out)
    cfg = config.waveform
    if input_dir is not None:
        weights = _prepare(config, _read_phases(Path(input_dir) / "phi_initial.csv", cfg.L))[3]
        phi_final = _read_phases(Path(input_dir) / "phi_final.csv", cfg.L)
    else:
        phi0, s0, r0, weights = _prepare(config)
        del s0, r0
        phi_final = run_gd_gisl(phi0, cfg, weights, config.optimizer)[0]
    p = config.optimizer.p
    rows = degradation_sweep(phi_final, cfg, weights, p, config.quantization.alphabets)
    config.write_manifest(out / "manifest.ini")
    write_quantization_csv(out / "report.csv", rows)
    for row in rows:
        write_acf_csv(out / f"acf_mpsk_{row.label}.csv", row.acf)


# seeds.csv columns between seed,status and detail, each with its summary key;
# the *_db columns are also aggregated
_SEED_COLUMNS = {
    "null_initial": "null_index_initial",
    "null_final": "null_index_final",
    "gisl_initial_db": "gisl_initial_db",
    "gisl_final_db": "gisl_final_db",
    "improvement_db": "gisl_improvement_db",
    "pslr_initial_db": "pslr_initial_db",
    "pslr_final_db": "pslr_final_db",
    "iterations": "iterations",
}


def _sweep_worker(payload) -> tuple[int, dict | None, str, dict]:
    """(seed, run summary or None if the run failed, status or error text,
    evaluation counts, empty if the run failed)."""
    config, seed = payload
    try:
        config = config.with_seed(seed)
        phi0, s0, r0, weights = _prepare(config)
        initial = _levels(r0, weights, config.optimizer.p)
        del s0, r0
        trace, summary = _descend(config, phi0, weights, initial)[3:]
    except MemoryError:
        # too large for this machine at every seed: main names M and exits 3
        raise
    except Exception as exc:  # per-seed failures become rows, not aborts
        return seed, None, str(exc).replace(",", ";").replace("\n", " "), {}
    return seed, summary, summary["status"], trace.counts


def _sweep_rows(payloads: list, w: int) -> list:
    """The rows of every payload, in order.

    This process runs payloads[0::w]. Each of w - 1 children, forked with
    os.fork, runs payloads[k::w] and pickles its rows, or the MemoryError
    that stopped it, into a pipe; it leaves only through os._exit. This
    process reads each pipe to EOF, then reaps its child. A child that sent
    nothing or exited non-zero raises ChildProcessError, and on any error
    every child not yet reaped gets SIGTERM and is reaped.
    """
    rows = [None] * len(payloads)
    children = {}  # pid: (k, read end of its pipe) of each child not yet reaped
    try:
        for k in range(1, w):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(reader)
                os.close(writer)
                raise
            if pid == 0:  # the child
                code = 1
                try:
                    try:
                        share = [_sweep_worker(p) for p in payloads[k::w]]
                    except MemoryError as exc:
                        share = exc
                    with open(writer, "wb") as pipe:
                        pickle.dump(share, pipe)
                    code = 0
                finally:
                    os._exit(code)  # never into the caller's frames, and no atexit or flush
            # only the child holds the write end now, so its death reads as EOF
            os.close(writer)
            children[pid] = (k, open(reader, "rb"))
        rows[0::w] = [_sweep_worker(p) for p in payloads[0::w]]
        for pid, (k, pipe) in list(children.items()):
            # read to EOF before reaping: a child blocks until its rows are read
            with pipe:
                sent = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code or not sent:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                seeds = ", ".join(str(seed) for _, seed in payloads[k::w])
                raise ChildProcessError(f"the process running seeds {seeds} {how} before it sent their rows")
            share = pickle.loads(sent)
            if isinstance(share, MemoryError):
                raise share
            rows[k::w] = share
        return rows
    finally:
        if children:
            import signal  # only on this error path: its enums cost start-up

            for pid, (_, pipe) in children.items():
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
                pipe.close()


def cmd_sweep(config: ExperimentConfig) -> None:
    """Run seed_count independent optimizations and aggregate their metrics.

    threads counts every process that runs seeds, this one included: with
    w = min(threads, seed_count), this process runs every w-th seed from the
    first and forks w - 1 children for the others. The outputs do not depend on w.
    """
    out = Path(config.run.out)
    seeds = [config.run.seed + i for i in range(config.run.seed_count)]
    payloads = [(config, seed) for seed in seeds]
    rows = _sweep_rows(payloads, min(config.run.threads, len(seeds)))

    config.write_manifest(out / "manifest.ini")
    table = []
    for seed, summary, detail, _ in rows:
        cells = [summary[key] if summary else "" for key in _SEED_COLUMNS.values()]
        table.append([seed, "ok" if summary else "failed", *cells, detail])
    _write_rows(out / "seeds.csv", ",".join(["seed", "status", *_SEED_COLUMNS, "detail"]), table)

    good = [summary for _, summary, _, _ in rows if summary]
    totals = {name: sum(counts.get(name, 0) for *_, counts in rows) for name in _COUNT_NAMES}
    print(f"sweep: {len(good)} of {len(seeds)} seeds ok; {_counts_text(totals)}")
    if not good:
        seed, _, detail, _ = rows[0]
        raise ValueError(f"all sweep runs failed (see seeds.csv); seed {seed}: {detail}")
    entries: dict = {"seed_count": len(seeds), "succeeded": len(good)}
    for column, key in _SEED_COLUMNS.items():
        if column.endswith("_db"):
            values = np.array([summary[key] for summary in good])
            entries[f"median_{column}"] = float(np.median(values))
            entries[f"iqr_{column}"] = float(
                np.percentile(values, 75) - np.percentile(values, 25)
            )
    write_summary(out / "aggregate.txt", entries)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args copies the --set default."""
    parser = argparse.ArgumentParser(
        prog="ceofdm",
        description="Constant-envelope OFDM waveform synthesis and GISL sidelobe shaping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "synth": "generate a waveform and export its time/frequency/correlation data",
        "optimize": "minimize the GISL over a delay region and export the results",
        "quantize": "truncate optimized phases to M-ary alphabets and report the damage",
        "sweep": "run many seeded optimizations and aggregate the statistics",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="INI config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="base RNG seed")
        sp.add_argument("--threads", type=int, default=None, help="parallel workers (sweep)")
        sp.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override any config key, repeatable",
        )
        if name == "quantize":
            sp.add_argument("--input", default=None, help="finished optimize output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_sources(
            path=args.config,
            overrides=args.overrides,
            seed=args.seed,
            out=args.out,
            threads=args.threads,
        )
        input_dir = getattr(args, "input", None)
        if input_dir is not None:  # quantize --input runs and echoes the input run's pulse
            base = ExperimentConfig.from_sources(Path(input_dir) / "manifest.ini")
            config = replace(base, quantization=config.quantization, run=config.run)
        out = Path(config.run.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "synth":
            cmd_synth(config)
        elif args.command == "optimize":
            cmd_optimize(config)
        elif args.command == "quantize":
            cmd_quantize(config, input_dir=input_dir)
        elif args.command == "sweep":
            cmd_sweep(config)
        print(f"wrote {out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ChildProcessError as exc:  # an OSError, but no I/O failed
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # whether a run fits depends on the machine, not on the config
        print(f"out of memory at M = {config.waveform.M}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
