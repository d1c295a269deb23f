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
from .metrics import (
    build_weights,
    compute_acf,
    compute_af,
    compute_gisl,
    compute_pslr,
    db,
    detect_mainlobe_null,
)
from .optimizer import run_gd_gisl
from .quantize import degradation_sweep
from .waveform import random_psk, synthesize

__all__ = ["main", "entry", "cmd_synth", "cmd_optimize", "cmd_quantize", "cmd_sweep"]


def _prepare(config: ExperimentConfig, phi0=None):
    """Initial waveform (seeded PSK unless given), its ACF, and the weights at its first null."""
    cfg = config.waveform
    if phi0 is None:
        phi0 = random_psk(cfg.L, cfg.mpsk, config.run.seed)
    s0 = synthesize(phi0, cfg)
    r0 = compute_acf(s0)
    null = detect_mainlobe_null(r0)
    weights = build_weights(null, cfg.M, config.region.lo, config.region.hi)
    return cfg, phi0, s0, r0, weights


def cmd_synth(config: ExperimentConfig) -> None:
    """Write the waveform, its spectrum/spectrogram, and its ACF/AF surfaces."""
    out = Path(config.run.out)
    cfg, phi0, s0, r0, weights = _prepare(config)
    summary = {"null_index": weights.null_index}
    if weights.sl_last >= weights.sl_first:
        summary["gisl_db"] = db(compute_gisl(r0, weights, config.optimizer.p))
        summary["pslr_db"] = compute_pslr(r0, weights)
    else:
        print(
            "synth: no lag lies in the sidelobe region (first null at lag "
            f"{weights.null_index}, last lag {cfg.M - 1}), so gisl_db and pslr_db are "
            "undefined and left out of summary.txt"
        )
    summary.update(M=cfg.M, fs=cfg.M)  # samples per pulse duration
    config.write_manifest(out / "manifest.ini")
    write_phi_csv(out / "phi.csv", phi0)
    write_waveform_csv(out / "waveform.csv", s0)
    write_inst_freq_csv(out / "inst_freq.csv", phi0, cfg)
    write_spectrum_csv(out / "spectrum.csv", s0, cfg)
    if config.run.write_spectrogram:
        write_spectrogram_csv(out / "spectrogram.csv", s0, cfg)
    write_acf_csv(out / "acf.csv", r0)
    if config.run.write_af:
        # k L / 48 for k = -48..48: each -nu is exactly the negative of its
        # +nu at any L, so compute_af correlates every row in a +-nu pair
        nu = np.arange(-48.0, 49.0) * cfg.L / 48
        write_af_csv(out / "af.csv", compute_af(s0, nu), nu)
    write_summary(out / "summary.txt", summary)


def _descend(config: ExperimentConfig, phi0, r0, weights):
    """Descend from the prepared pulse, then synthesize the final pulse and take its ACF.

    Returns the final phases, pulse and ACF, the trace, the summary (GISL and
    PSLR before and after, null indexes, iterations, status and p) and the
    seconds that the descent and the final ACF took.
    """
    cfg = config.waveform
    started = time.perf_counter()
    phi_final, trace = run_gd_gisl(phi0, cfg, weights, config.optimizer)
    s_final = synthesize(phi_final, cfg)
    r_final = compute_acf(s_final)
    seconds = time.perf_counter() - started
    p = config.optimizer.p
    gisl_initial = db(compute_gisl(r0, weights, p))
    gisl_final = db(compute_gisl(r_final, weights, p))
    summary = {
        "gisl_initial_db": gisl_initial,
        "gisl_final_db": gisl_final,
        "gisl_improvement_db": gisl_initial - gisl_final,
        "pslr_initial_db": compute_pslr(r0, weights),
        "pslr_final_db": compute_pslr(r_final, weights),
        "null_index_initial": weights.null_index,
        "null_index_final": detect_mainlobe_null(r_final),
        "iterations": len(trace.rows),
        "status": trace.status,
        "p": p,
    }
    return phi_final, s_final, r_final, trace, summary, seconds


_COUNT_NAMES = ("forward_passes", "gradient_passes", "cache_hits", "backtracks", "momentum_resets")


def _counts_text(counts: dict) -> str:
    """Evaluation counts as printed on stdout, e.g. '12 forward passes, ...'."""
    return ", ".join(f"{counts[name]} {name.replace('_', ' ')}" for name in _COUNT_NAMES)


def cmd_optimize(config: ExperimentConfig) -> None:
    """Run the descent loop and export initial/final waveform data plus the trace.

    The initial products are written before the descent, which then starts
    without the initial pulse; its ACF goes once the summary holds its
    numbers. So only the final pulse and ACF are held while the final
    products are written.
    """
    out = Path(config.run.out)
    started = time.perf_counter()
    cfg, phi0, s0, r0, weights = _prepare(config)
    runtime = time.perf_counter() - started
    config.write_manifest(out / "manifest.ini")
    write_phi_csv(out / "phi_initial.csv", phi0)
    write_acf_csv(out / "acf_initial.csv", r0)
    write_spectrum_csv(out / "spectrum_initial.csv", s0, cfg)
    del s0
    writing = time.perf_counter() - started - runtime
    phi_final, s_final, r_final, trace, summary, seconds = _descend(config, phi0, r0, weights)
    del r0
    runtime += seconds  # prepare, descent and final ACF; not the writes or the summary
    started = time.perf_counter()
    write_phi_csv(out / "phi_final.csv", phi_final)
    write_acf_csv(out / "acf_final.csv", r_final)
    write_spectrum_csv(out / "spectrum_final.csv", s_final, cfg)
    write_trace_csv(out / "trace.csv", trace)
    write_summary(out / "summary.txt", summary)
    writing += time.perf_counter() - started
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
    if input_dir is not None:
        phi0 = _read_phases(Path(input_dir) / "phi_initial.csv", config.waveform.L)
        cfg, _, _, _, weights = _prepare(config, phi0)
        phi_final = _read_phases(Path(input_dir) / "phi_final.csv", config.waveform.L)
    else:
        cfg, phi0, _, r0, weights = _prepare(config)
        phi_final = _descend(config, phi0, r0, weights)[0]
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
        _, phi0, _, r0, weights = _prepare(config)
        *_, trace, summary, _ = _descend(config, phi0, r0, weights)
    except MemoryError:
        # too large for this machine at every seed: main names M and exits 3
        raise
    except Exception as exc:  # per-seed failures become rows, not aborts
        return seed, None, str(exc).replace(",", ";").replace("\n", " "), {}
    return seed, summary, summary["status"], trace.counts


def _sweep_share(writer, payloads) -> None:
    """Child process body: send the rows of one share of a sweep's payloads,
    or the MemoryError that stopped it, through the write end of a pipe."""
    try:
        rows = [_sweep_worker(p) for p in payloads]
    except MemoryError as exc:
        rows = exc
    writer.send(rows)
    writer.close()


def _sweep_rows(payloads: list, w: int) -> list:
    """The rows of every payload, in order. This process runs payloads[0::w];
    each of w - 1 forked children runs payloads[k::w] and sends its rows back."""
    if w == 1:
        return [_sweep_worker(p) for p in payloads]
    # imported here, so the commands that never fork do not load the
    # multiprocessing stack (logging, pickle, socket) at start-up
    import multiprocessing

    children = []
    try:
        for k in range(1, w):
            reader, writer = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_sweep_share, args=(writer, payloads[k::w]))
            child.start()
            # only the child holds the write end now, so its death reads as EOF
            writer.close()
            children.append((child, reader))
        rows = [None] * len(payloads)
        rows[0::w] = [_sweep_worker(p) for p in payloads[0::w]]
        # read every pipe before joining: a child blocks until its rows are read
        for k, (child, reader) in enumerate(children, 1):
            try:
                share = reader.recv()
            except EOFError:
                child.join()
                code = child.exitcode
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                seeds = ", ".join(str(seed) for _, seed in payloads[k::w])
                raise ChildProcessError(
                    f"the process running seeds {seeds} {how} before it sent their rows"
                ) from None
            reader.close()
            if isinstance(share, MemoryError):
                raise share
            rows[k::w] = share
        return rows
    finally:
        for child, reader in children:
            if not reader.closed:
                child.terminate()
                reader.close()
            child.join()


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
