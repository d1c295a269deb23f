"""Command-line experiment runner: synth, optimize, quantize, sweep.

All commands resolve an :class:`ExperimentConfig` from defaults, an optional
INI file, and command-line overrides, then write their data products into the
output directory together with a manifest echoing the resolved config. Exit
codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expconfig import ConfigError, ExperimentConfig
from .exports import (
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
    CorrelationResult,
    GislWeights,
    build_weights,
    compute_acf,
    compute_af,
    compute_gisl,
    compute_pslr,
    db,
    detect_mainlobe_null,
)
from .optimizer import OptimizationTrace, run_gd_gisl
from .quantize import degradation_sweep
from .waveform import SampledWaveform, WaveformConfig, random_psk, synthesize

__all__ = ["main", "entry", "cmd_synth", "cmd_optimize", "cmd_quantize", "cmd_sweep"]


def _prepare(config: ExperimentConfig, phi0=None):
    """Initial waveform (seeded PSK unless given), its ACF, the detected null, the weights."""
    cfg = config.to_waveform_config()
    if phi0 is None:
        phi0 = random_psk(cfg.L, config.waveform.mpsk, config.run.seed)
    s0 = synthesize(phi0, cfg)
    r0 = compute_acf(s0)
    null = detect_mainlobe_null(r0)
    weights = build_weights(null, config.region_descriptor(null, cfg.M), cfg.M)
    return cfg, phi0, s0, r0, null, weights


def _default_doppler_grid(cfg) -> np.ndarray:
    return np.linspace(-cfg.L / cfg.T, cfg.L / cfg.T, 97)


def cmd_synth(config: ExperimentConfig) -> None:
    """Write the waveform, its spectrum/spectrogram, and its ACF/AF surfaces."""
    out = Path(config.run.out)
    cfg, phi0, s0, r0, null, weights = _prepare(config)
    # evaluated first: a GISL that underflows fails before any file is written
    summary = {
        "null_index": null,
        "gisl_db": db(compute_gisl(r0, weights, config.optimizer.p)),
        "pslr_db": compute_pslr(r0, null, weights=weights),
        "M": cfg.M,
        "fs": cfg.fs,
    }
    config.write_manifest(out / "manifest.ini")
    write_phi_csv(out / "phi.csv", phi0)
    write_waveform_csv(out / "waveform.csv", s0)
    write_inst_freq_csv(out / "inst_freq.csv", phi0, cfg)
    write_spectrum_csv(out / "spectrum.csv", s0, cfg)
    if config.run.write_spectrogram:
        write_spectrogram_csv(out / "spectrogram.csv", s0, cfg)
    write_acf_csv(out / "acf.csv", r0, cfg.T)
    if config.run.write_af:
        write_af_csv(out / "af.csv", compute_af(s0, _default_doppler_grid(cfg)), cfg.T)
    write_summary(out / "summary.txt", summary)


@dataclass(frozen=True)
class RunResult:
    """One optimization run: the initial pulse, the frozen weights, the result."""

    cfg: WaveformConfig
    weights: GislWeights
    p: int
    phi0: np.ndarray
    s0: SampledWaveform
    r0: CorrelationResult
    null: int
    phi_final: np.ndarray
    s_final: SampledWaveform
    r_final: CorrelationResult
    trace: OptimizationTrace

    def summary(self) -> dict:
        """GISL and PSLR before and after, null indexes, iterations and status."""
        gisl_initial = db(compute_gisl(self.r0, self.weights, self.p))
        gisl_final = db(compute_gisl(self.r_final, self.weights, self.p))
        return {
            "gisl_initial_db": gisl_initial,
            "gisl_final_db": gisl_final,
            "gisl_improvement_db": gisl_initial - gisl_final,
            "pslr_initial_db": compute_pslr(self.r0, self.null, weights=self.weights),
            "pslr_final_db": compute_pslr(self.r_final, self.null, weights=self.weights),
            "null_index_initial": self.null,
            "null_index_final": detect_mainlobe_null(self.r_final),
            "iterations": len(self.trace.rows),
            "status": self.trace.status,
            "p": self.p,
        }


def _optimize_core(config: ExperimentConfig) -> RunResult:
    cfg, phi0, s0, r0, null, weights = _prepare(config)
    phi_final, trace = run_gd_gisl(phi0, cfg, weights, config.optimizer)
    s_final = synthesize(phi_final, cfg)
    return RunResult(
        cfg, weights, config.optimizer.p, phi0, s0, r0, null,
        phi_final, s_final, compute_acf(s_final), trace,
    )


def cmd_optimize(config: ExperimentConfig) -> None:
    """Run the descent loop and export initial/final waveform data plus the trace."""
    out = Path(config.run.out)
    started = time.perf_counter()
    res = _optimize_core(config)
    runtime = time.perf_counter() - started
    summary = res.summary()
    config.write_manifest(out / "manifest.ini")
    write_phi_csv(out / "phi_initial.csv", res.phi0)
    write_phi_csv(out / "phi_final.csv", res.phi_final)
    write_acf_csv(out / "acf_initial.csv", res.r0, res.cfg.T)
    write_acf_csv(out / "acf_final.csv", res.r_final, res.cfg.T)
    write_spectrum_csv(out / "spectrum_initial.csv", res.s0, res.cfg)
    write_spectrum_csv(out / "spectrum_final.csv", res.s_final, res.cfg)
    write_trace_csv(out / "trace.csv", res.trace)
    write_summary(out / "summary.txt", summary)
    # runtime stays off the data files so reruns are byte-identical
    print(
        f"optimize: GISL {summary['gisl_initial_db']:.2f} dB -> "
        f"{summary['gisl_final_db']:.2f} dB in {runtime:.2f} s"
    )


def cmd_quantize(config: ExperimentConfig, input_dir: str | None = None) -> None:
    """Truncate optimized phases onto each alphabet and export the damage report.

    With ``input_dir``, reuse a finished optimize run (its manifest and phase
    vectors); otherwise optimize in place first.
    """
    out = Path(config.run.out)
    if input_dir is not None:
        base = ExperimentConfig.from_sources(Path(input_dir) / "manifest.ini")
        phi0 = read_phi_csv(Path(input_dir) / "phi_initial.csv")
        cfg, _, _, _, _, weights = _prepare(base, phi0)
        phi_final = read_phi_csv(Path(input_dir) / "phi_final.csv")
        p = base.optimizer.p
    else:
        res = _optimize_core(config)
        cfg, weights, phi_final, p = res.cfg, res.weights, res.phi_final, res.p
    report = degradation_sweep(phi_final, cfg, weights, p, config.alphabets)
    config.write_manifest(out / "manifest.ini")
    write_quantization_csv(out / "report.csv", report)
    for row in report.rows:
        label = "inf" if row.mpsk == math.inf else str(int(row.mpsk))
        write_acf_csv(out / f"acf_mpsk_{label}.csv", row.acf, cfg.T)


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


def _sweep_worker(payload) -> tuple[int, dict | None, str]:
    """(seed, run summary or None if the run failed, status or error text)."""
    config, seed = payload
    try:
        summary = _optimize_core(config.with_seed(seed)).summary()
    except Exception as exc:  # per-seed failures become rows, not aborts
        return seed, None, str(exc).replace(",", ";").replace("\n", " ")
    return seed, summary, summary["status"]


def _cell(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def cmd_sweep(config: ExperimentConfig) -> None:
    """Run seed_count independent optimizations and aggregate their metrics."""
    out = Path(config.run.out)
    seeds = [config.run.seed + i for i in range(config.run.seed_count)]
    payloads = [(config, seed) for seed in seeds]
    if config.run.threads > 1 and len(seeds) > 1:
        # a forked pool starts all its workers at once: no more than there are seeds
        with ProcessPoolExecutor(max_workers=min(config.run.threads, len(seeds))) as pool:
            rows = list(pool.map(_sweep_worker, payloads))
    else:
        rows = [_sweep_worker(p) for p in payloads]

    config.write_manifest(out / "manifest.ini")
    lines = [",".join(["seed", "status", *_SEED_COLUMNS, "detail"])]
    for seed, summary, detail in rows:
        cells = [_cell(summary[key]) if summary else "" for key in _SEED_COLUMNS.values()]
        lines.append(",".join([str(seed), "ok" if summary else "failed", *cells, detail]))
    (out / "seeds.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    good = [summary for _, summary, _ in rows if summary]
    if not good:
        raise ValueError("all sweep runs failed; see seeds.csv")
    entries: dict = {"seed_count": len(seeds), "succeeded": len(good)}
    for column, key in _SEED_COLUMNS.items():
        if column.endswith("_db"):
            values = np.array([summary[key] for summary in good])
            entries[f"median_{column}"] = float(np.median(values))
            entries[f"iqr_{column}"] = float(
                np.percentile(values, 75) - np.percentile(values, 25)
            )
    write_summary(out / "aggregate.txt", entries)


def _build_parser() -> argparse.ArgumentParser:
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
        out = Path(config.run.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "synth":
            cmd_synth(config)
        elif args.command == "optimize":
            cmd_optimize(config)
        elif args.command == "quantize":
            cmd_quantize(config, input_dir=getattr(args, "input", None))
        elif args.command == "sweep":
            cmd_sweep(config)
        print(f"wrote {out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
