import itertools
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import ceofdm
from ceofdm import cli, quantize
from ceofdm.cli import main
from ceofdm.expconfig import ConfigError, ExperimentConfig, QuantizationSpec
from ceofdm.exports import DB_NEG_INF, write_phi_csv
from oracles import full_csv


# the counts that optimize and sweep print on stdout
COUNTS_PATTERN = r"(\d+) (forward passes|gradient passes|cache hits|backtracks|momentum resets)"
# an interval of |tau| between lags 500 and 501 at the default M = 1000: it holds no lag
NO_LAG_INTERVAL = ["region.mode=interval", "region.lo=0.5005", "region.hi=0.5008"]
NO_LAG_REFUSAL = r"no lag lies in the sidelobe region \(first null at lag \d+, last lag \d+\)"


def read_summary(path):
    out = {}
    for line in Path(path).read_text().strip().splitlines():
        key, _, value = line.partition(" = ")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def read_acf(path):
    rows = Path(path).read_text().strip().splitlines()[1:]
    data = np.array([[float(x) for x in line.split(",")] for line in rows])
    return data[:, 0].astype(int), data[:, 1], data[:, 2]


def manifest_section(path, name):
    """The text of one manifest section, from its [name] line to the blank line that ends it."""
    text = Path(path).read_text()
    start = text.index(f"[{name}]\n")
    return text[start : text.index("\n\n", start)]


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def finished_no_lag_run(tmp_path_factory):
    """A finished optimize run whose manifest's region is NO_LAG_INTERVAL."""
    run = tmp_path_factory.mktemp("finished")
    assert main(["optimize", "--out", str(run), "--seed", "1", "--set", "optimizer.max_iters=2"]) == 0
    manifest = run / "manifest.ini"
    manifest.write_text(
        manifest.read_text().replace("mode = full\n", "mode = interval\nlo = 0.5005\nhi = 0.5008\n")
    )
    return run


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig.from_sources()
        assert config.waveform.L == 24
        assert config.waveform.tbp == 200.0
        assert config.waveform.mpsk == 32.0
        assert config.region.mode == "full"
        assert config.optimizer.p == 20
        assert config.quantization.alphabets == (64.0, 32.0, 16.0, 8.0)
        assert config.run.seed == 1

    def test_file_and_overrides(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[waveform]\nL = 16\ntbp = 100\n\n[region]\nmode = interval\nlo = null\nhi = 0.1\n"
            "\n[optimizer]\nmax_iters = 7\n\n[run]\nseed = 9\n"
        )
        config = ExperimentConfig.from_sources(
            path=ini, overrides=["optimizer.p=6"], seed=11, out="elsewhere"
        )
        assert config.waveform.L == 16
        assert config.region.hi == 0.1
        assert config.region.lo is None
        assert config.optimizer.max_iters == 7
        assert config.optimizer.p == 6
        assert config.run.seed == 11  # flag wins over file
        assert config.run.out == "elsewhere"

    def test_h_only_file_does_not_inherit_default_tbp(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[waveform]\nh = 0.1856\n")
        config = ExperimentConfig.from_sources(path=ini)
        assert config.waveform.h == 0.1856
        assert config.waveform.tbp == pytest.approx(199.95, abs=0.1)

    @pytest.mark.parametrize("body,match", [
        ("[waveform]\nbogus = 1\n", "unknown key"),
        ("[nonsense]\nx = 1\n", "unknown config section"),
        ("[region]\nmode = interval\n", "hi is required"),
        ("[region]\nmode = full\nhi = 0.1\n", "only valid with mode"),
        ("[region]\nmode = interval\nlo = 0.3\nhi = 0.2\n", "below hi"),
        ("[quantization]\nalphabets = 64, 1\n", ">= 2"),
        ("[optimizer]\np = 7\n", "even integer"),
        ("[run]\nseed_count = 0\n", "seed_count"),
        ("[waveform]\nL = many\n", "expected an integer"),
        ("[optimizer]\nmu0 = nan\n", "expected a number"),
        ("[optimizer]\nrho_up = nan\n", "expected a number"),
        ("[optimizer]\nmu0 = inf\n", "finite"),
        ("[region]\nmode = interval\nhi = nan\n", "expected a number"),
        ("[waveform]\ntbp = inf\n", "finite"),
        ("[waveform]\nh = inf\n", "finite"),
        ("[waveform]\noversample = inf\n", "finite"),
        ("[waveform]\ntbp = 1e308\n", "M = oversample"),
        ("[waveform]\nh = 1e306\nsamples = 64\n", r"h=1e\+306 \(tbp=inf\) overflows"),
        ("[waveform]\noversample = 1e308\n", "M = oversample"),
        ("[waveform]\nM = 5\n", "unknown key"),
        ("[waveform]\nT = 2\n", "unknown key"),
        ("[run]\nseed = -1\n", "seed must be >= 0"),
    ])
    def test_rejects_malformed(self, tmp_path, body, match):
        ini = tmp_path / "exp.ini"
        ini.write_text(body)
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_sources(path=ini)

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            ExperimentConfig.from_sources(overrides=["p=6"])

    @pytest.mark.parametrize("make,message", [
        (lambda: ceofdm.WaveformConfig(mpsk=1.5), "mpsk must be an integer >= 2 or inf, got 1.5"),
        (lambda: QuantizationSpec(alphabets=(8.0, 1.0)), "each size in alphabets must be an integer >= 2 or inf, got 1.0"),
    ], ids=["mpsk", "alphabets"])
    def test_dataclasses_validate_alphabet_sizes(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    def test_manifest_roundtrip(self, tmp_path):
        config = ExperimentConfig.from_sources(
            overrides=[
                "waveform.mpsk=inf",
                "region.mode=interval",
                "region.hi=0.1",
                "optimizer.p=6",
                "quantization.alphabets=inf, 32",
                "run.seed_count=3",
            ]
        )
        manifest = tmp_path / "manifest.ini"
        config.write_manifest(manifest)
        again = ExperimentConfig.from_sources(manifest)
        assert again.waveform.mpsk == math.inf
        assert again.region == config.region
        assert again.optimizer == config.optimizer
        assert again.quantization.alphabets == (math.inf, 32.0)
        assert again.waveform == config.waveform


class TestSynthCommand:
    def test_default_products_and_pedestal(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--seed", "1"]) == 0
        for name in (
            "manifest.ini", "phi.csv", "waveform.csv", "inst_freq.csv",
            "spectrum.csv", "spectrogram.csv", "acf.csv", "af.csv", "summary.txt",
        ):
            assert (out / name).exists(), name
        summary = read_summary(out / "summary.txt")
        delays, _, mag_db = read_acf(out / "acf.csv")
        sidelobes = mag_db[np.abs(delays) > summary["null_index"]]
        assert -19.0 <= sidelobes.max() <= -12.0  # pedestal near -15 dB

    def test_rectangular_pulse(self, tmp_path):
        out = tmp_path / "rect"
        code = main([
            "synth", "--out", str(out), "--seed", "1",
            "--set", "waveform.L=1", "--set", "waveform.h=0",
            "--set", "waveform.samples=128", "--set", "waveform.mpsk=2",
        ])
        assert code == 0
        delays, _, mag_db = read_acf(out / "acf.csv")
        m = 128
        expected = (m - np.abs(delays)) / m
        finite = mag_db > -900
        assert np.allclose(mag_db[finite], 20 * np.log10(expected[finite]), atol=1e-6)
        # spectrum peaks at zero frequency
        rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
        data = np.array([[float(x) for x in line.split(",")] for line in rows])
        assert data[np.argmax(data[:, 2]), 0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("L", [1, 7, 24, 64])
    def test_doppler_grid_pairs_every_row(self, tmp_path, monkeypatch, L):
        # synth correlates the rows at k L / 48 for k = 0..48, and write_af_csv
        # adds the row at -(k L / 48) for each k > 0. That is (-k) L / 48
        # exactly, so af.csv's Doppler column is the grid k L / 48 for
        # k = -48..48; a linspace grid over [-L, L] is antisymmetric only
        # where 2L/96 is exact in binary (16 of 48 pairs at L = 1 and 64)
        grids = []

        def compute_af(s, nu):
            grids.append(nu)
            return original(s, nu)

        original = cli.compute_af
        monkeypatch.setattr(cli, "compute_af", compute_af)
        out = tmp_path / "af"
        overrides = ["--set", f"waveform.L={L}", "--set", "waveform.samples=200"]
        assert main(["synth", "--out", str(out), "--seed", "1", *overrides]) == 0
        (nu,) = grids
        assert np.array_equal(nu, np.arange(49.0) * L / 48)
        grid = np.arange(-48.0, 49.0) * L / 48
        assert np.array_equal(np.concatenate((-nu[:0:-1], nu)), grid)
        column = [line.split(",", 1)[0] for line in (out / "af.csv").read_text().splitlines()[1:]]
        assert column == [f"{v:.12e}" for v in grid]

    def test_af_rows_at_minus_nu_are_plus_nu_reversed(self, tmp_path):
        # |chi(-tau, -nu)| = |chi(tau, nu)|: the -nu line's dB fields are the
        # +nu line's, as text, in reverse delay order
        out = tmp_path / "af"
        assert main(["synth", "--out", str(out), "--seed", "1", "--set", "run.write_spectrogram=false"]) == 0
        rows = [line.split(",") for line in (out / "af.csv").read_text().splitlines()[1:]]
        assert len(rows) == 97
        for minus, plus in zip(rows[:48], rows[:48:-1]):
            assert float(minus[0]) == -float(plus[0]) < 0.0
            assert minus[1:] == plus[:0:-1]

    @pytest.mark.parametrize("samples", [3, 7])
    def test_pulse_shorter_than_spectrogram_window(self, tmp_path, samples):
        # the spectrogram window was at least 8 samples, so M < 8 had no frame
        out = tmp_path / "short"
        code = main([
            "synth", "--out", str(out), "--seed", "1",
            "--set", "waveform.L=1", "--set", f"waveform.samples={samples}",
        ])
        assert code == 0
        header = (out / "spectrogram.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "freq_times_T" and len(header) >= 2
        summary = read_summary(out / "summary.txt")
        if samples == 3:
            # the first null is the last lag, as for a rectangular pulse: no sidelobe
            assert summary["null_index"] == 2
        else:
            assert math.isfinite(summary["gisl_db"]) and math.isfinite(summary["pslr_db"])

    @pytest.mark.parametrize("settings", [
        ["waveform.L=1", "waveform.h=0", "waveform.samples=128"],  # rectangular pulse
        ["waveform.L=1", "waveform.samples=3"],
        ["region.mode=interval", "region.lo=0.5004", "region.hi=0.5008"],  # between two lags
    ])
    def test_empty_sidelobe_region_leaves_metrics_out(self, tmp_path, capsys, settings):
        # the first null is the last lag, or the interval holds no lag: GISL
        # and PSLR have no sidelobe to measure and are left out, not -inf
        out = tmp_path / "empty"
        overrides = [arg for setting in settings for arg in ("--set", setting)]
        assert main(["synth", "--out", str(out), "--seed", "1", *overrides]) == 0
        text = (out / "summary.txt").read_text()
        assert not re.search(r"(inf|nan)$", text, re.M), text
        summary = read_summary(out / "summary.txt")
        assert "gisl_db" not in summary and "pslr_db" not in summary
        assert all(math.isfinite(summary[key]) for key in ("null_index", "M", "fs"))
        assert re.match(
            NO_LAG_REFUSAL + ", so gisl_db and pslr_db are undefined and left out of summary.txt\n",
            capsys.readouterr().out.removeprefix("synth: "),
        )

    def test_export_toggles(self, tmp_path):
        out = tmp_path / "min"
        code = main([
            "synth", "--out", str(out), "--seed", "1",
            "--set", "run.write_af=false", "--set", "run.write_spectrogram=false",
        ])
        assert code == 0
        assert not (out / "af.csv").exists()
        assert not (out / "spectrogram.csv").exists()


class TestOptimizeCommand:
    def test_full_band_improvement(self, tmp_path):
        out = tmp_path / "opt"
        code = main([
            "optimize", "--out", str(out), "--seed", "1",
            "--set", "waveform.mpsk=inf",
        ])
        assert code == 0
        summary = read_summary(out / "summary.txt")
        assert summary["gisl_improvement_db"] >= 5.0
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "iter,J_p_db,grad_norm,mu,backtracks,reset_flag"
        assert len(trace) == summary["iterations"] + 1

    def test_subregion_improvement(self, tmp_path):
        out = tmp_path / "opt_sub"
        code = main([
            "optimize", "--out", str(out), "--seed", "1",
            "--set", "waveform.mpsk=inf",
            "--set", "region.mode=interval", "--set", "region.hi=0.1",
        ])
        assert code == 0
        summary = read_summary(out / "summary.txt")
        assert summary["gisl_improvement_db"] >= 10.0

    @pytest.mark.parametrize("settings", [
        ["optimizer.max_iters=30"],
        ["optimizer.max_iters=30", "optimizer.max_backtracks=1"],  # stalls
        ["optimizer.max_iters=30", "optimizer.beta=1"],  # resets the momentum
    ])
    def test_evaluation_counts_match_trace(self, tmp_path, capsys, settings):
        out = tmp_path / "opt"
        overrides = [arg for setting in settings for arg in ("--set", setting)]
        code = main(["optimize", "--out", str(out), "--seed", "1", *overrides])
        assert code == 0
        stdout = capsys.readouterr().out
        counts = {name: int(n) for n, name in re.findall(COUNTS_PATTERN, stdout)}
        assert len(counts) == 5
        assert re.search(r" in \d+\.\d\d s, writing files \d+\.\d\d s; \d+ forward passes", stdout)
        rows = (out / "trace.csv").read_text().strip().splitlines()[1:]
        backtracks = [int(row.split(",")[4]) for row in rows]
        resets = sum(int(row.split(",")[5]) for row in rows)
        cost_calls = sum(b + 1 for b in backtracks)
        stalled = read_summary(out / "summary.txt")["status"] == "line_search_stall"
        if stalled:
            cost_calls += 2  # max_backtracks + 1 trials before the stall
        assert counts["gradient passes"] == len(rows) + 1
        assert counts["forward passes"] + counts["cache hits"] == cost_calls + len(rows) + 1
        # the stalled search backtracks max_backtracks = 1 times, and may have reset
        assert counts["backtracks"] == sum(backtracks) + stalled
        assert resets <= counts["momentum resets"] <= resets + stalled
        assert counts["backtracks"] > 0
        if "optimizer.beta=1" in settings:
            assert resets > 0
        assert "passes" not in (out / "summary.txt").read_text()

    def test_zero_iterations(self, tmp_path):
        out = tmp_path / "noop"
        code = main([
            "optimize", "--out", str(out), "--seed", "1",
            "--set", "optimizer.max_iters=0",
        ])
        assert code == 0
        assert (out / "phi_initial.csv").read_bytes() == (out / "phi_final.csv").read_bytes()
        assert (out / "acf_initial.csv").read_bytes() == (out / "acf_final.csv").read_bytes()
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace) == 1  # header only

    def test_initial_products_are_written_before_the_descent(self, tmp_path, monkeypatch):
        # the initial pulse and ACF need not be held through the descent
        out = tmp_path / "opt"
        seen = []

        def run_gd_gisl(*args, **kwargs):
            seen.append(sorted(path.name for path in out.iterdir()))
            return original(*args, **kwargs)

        original = cli.run_gd_gisl
        monkeypatch.setattr(cli, "run_gd_gisl", run_gd_gisl)
        code = main(["optimize", "--out", str(out), "--seed", "1", "--set", "optimizer.max_iters=2"])
        assert code == 0
        assert seen == [["acf_initial.csv", "manifest.ini", "phi_initial.csv", "spectrum_initial.csv"]]
        assert (out / "summary.txt").exists()

    def test_set_does_not_carry_into_next_call(self, tmp_path):
        # the parser is built once per process; each call starts from the defaults
        first = ["--set", "optimizer.max_iters=0", "--set", "optimizer.p=6"]
        assert main(["optimize", "--seed", "1", "--out", str(tmp_path / "a"), *first]) == 0
        assert main(["optimize", "--seed", "1", "--out", str(tmp_path / "b")]) == 0
        manifests = [(tmp_path / d / "manifest.ini").read_text().splitlines() for d in "ab"]
        assert "p = 6" in manifests[0]
        assert "p = 20" in manifests[1]
        assert "max_iters = 0" not in manifests[1]

    def test_no_lag_region_into_a_finished_run_writes_nothing(self, tmp_path, capsys):
        # the refusal comes before the manifest and the *_initial files, which
        # would otherwise be rewritten for a region that has no GISL
        out = tmp_path / "run"
        assert main(["optimize", "--out", str(out), "--seed", "1", "--set", "optimizer.max_iters=2"]) == 0
        before = tree_bytes(out)
        capsys.readouterr()
        code = main([
            "optimize", "--out", str(out), "--seed", "1",
            *(arg for setting in NO_LAG_INTERVAL for arg in ("--set", setting)),
        ])
        assert code == 3
        assert re.fullmatch("numerical failure: " + NO_LAG_REFUSAL + "\n", capsys.readouterr().err)
        assert tree_bytes(out) == before


class TestQuantizeCommand:
    def test_input_whose_region_holds_no_lag(self, tmp_path, capsys, finished_no_lag_run):
        # the input run's manifest region holds no lag: the refusal on one
        # line, where -999 and nan were written with exit 0
        out = tmp_path / "q"
        assert main(["quantize", "--out", str(out), "--input", str(finished_no_lag_run)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch("numerical failure: " + NO_LAG_REFUSAL + "\n", err), err
        assert not (out / "report.csv").exists()

    def test_infinite_alphabet_zero_delta(self, tmp_path):
        out = tmp_path / "quant_inf"
        code = main([
            "quantize", "--out", str(out), "--seed", "1",
            "--set", "quantization.alphabets=inf",
            "--set", "optimizer.max_iters=5",
        ])
        assert code == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        row = lines[1].split(",")
        assert row[0] == "inf"
        assert float(row[4]) == 0.0
        assert (out / "acf_mpsk_inf.csv").exists()

    def test_monotone_trend(self, tmp_path):
        out = tmp_path / "quant"
        code = main([
            "quantize", "--out", str(out), "--seed", "1",
            "--set", "waveform.mpsk=inf",
            "--set", "region.mode=interval", "--set", "region.hi=0.1",
        ])
        assert code == 0
        lines = (out / "report.csv").read_text().strip().splitlines()[1:]
        deg = {int(row.split(",")[0]): float(row.split(",")[4]) for row in lines}
        assert deg[8] > deg[64]
        assert deg[8] > 0.0
        for mpsk in (64, 32, 16, 8):
            assert (out / f"acf_mpsk_{mpsk}.csv").exists()

    def test_input_dir_matches_inline(self, tmp_path):
        args = ["--seed", "3", "--set", "waveform.mpsk=inf", "--set", "optimizer.max_iters=10"]
        opt_out = tmp_path / "opt"
        assert main(["optimize", "--out", str(opt_out)] + args) == 0
        inline_out = tmp_path / "inline"
        assert main(["quantize", "--out", str(inline_out)] + args) == 0
        fed_out = tmp_path / "fed"
        assert main(["quantize", "--out", str(fed_out), "--input", str(opt_out)] + args) == 0
        assert (inline_out / "report.csv").read_bytes() == (fed_out / "report.csv").read_bytes()

    def test_input_manifest_echoes_the_input_pulse(self, tmp_path):
        # an input away from every pulse default; the manifest used to be this
        # command's own config, L = 24 and tbp = 200
        opt, q1, q2 = tmp_path / "opt", tmp_path / "q1", tmp_path / "q2"
        code = main([
            "optimize", "--out", str(opt), "--seed", "5",
            "--set", "waveform.L=16", "--set", "waveform.tbp=208",
            "--set", "region.mode=interval", "--set", "region.hi=0.1",
            "--set", "optimizer.p=6", "--set", "optimizer.max_iters=5",
        ])
        assert code == 0
        code = main([
            "quantize", "--out", str(q1), "--input", str(opt),
            "--set", "quantization.alphabets=16, 4",
        ])
        assert code == 0
        for name in ("waveform", "region", "optimizer"):
            assert manifest_section(q1 / "manifest.ini", name) == manifest_section(
                opt / "manifest.ini", name
            )
        assert "L = 16" in manifest_section(q1 / "manifest.ini", "waveform")
        assert "alphabets = 16, 4" in manifest_section(q1 / "manifest.ini", "quantization")

        code = main([
            "quantize", "--config", str(q1 / "manifest.ini"), "--input", str(opt),
            "--out", str(q2),
        ])
        assert code == 0
        first, second = tree_bytes(q1), tree_bytes(q2)
        assert sorted(first) == sorted(second)
        assert {"report.csv", "acf_mpsk_16.csv", "acf_mpsk_4.csv"} <= set(first)
        for name in first:
            if name != "manifest.ini":
                assert first[name] == second[name], name


class TestSweepCommand:
    def test_single_seed_matches_optimize(self, tmp_path):
        args = ["--seed", "2", "--set", "waveform.mpsk=inf", "--set", "optimizer.max_iters=15"]
        opt_out = tmp_path / "opt"
        assert main(["optimize", "--out", str(opt_out)] + args) == 0
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(sweep_out)] + args) == 0
        summary = read_summary(opt_out / "summary.txt")
        aggregate = read_summary(sweep_out / "aggregate.txt")
        assert aggregate["succeeded"] == 1
        assert aggregate["median_gisl_final_db"] == summary["gisl_final_db"]
        assert aggregate["median_gisl_initial_db"] == summary["gisl_initial_db"]

    def test_fifty_seed_regression_bound(self, tmp_path):
        # frozen Monte-Carlo regression: full-band median final GISL <= -20 dB
        out = tmp_path / "mc"
        code = main([
            "sweep", "--out", str(out), "--seed", "0", "--threads", "2",
            "--set", "waveform.mpsk=inf", "--set", "run.seed_count=50",
        ])
        assert code == 0
        aggregate = read_summary(out / "aggregate.txt")
        assert aggregate["succeeded"] == 50
        assert aggregate["median_gisl_final_db"] <= -20.0

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_evaluation_counts_sum_over_seeds(self, tmp_path, capsys, threads):
        args = ["--set", "optimizer.max_iters=10"]
        expected = dict.fromkeys(
            ["forward passes", "gradient passes", "cache hits", "backtracks", "momentum resets"], 0
        )
        for seed in (3, 4):
            assert main(["optimize", "--out", str(tmp_path / f"o{seed}"), "--seed", str(seed)] + args) == 0
            for n, name in re.findall(COUNTS_PATTERN, capsys.readouterr().out):
                expected[name] += int(n)
        code = main([
            "sweep", "--out", str(tmp_path / "s"), "--seed", "3", "--threads", threads,
            "--set", "run.seed_count=2",
        ] + args)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "sweep: 2 of 2 seeds ok" in stdout
        assert {name: int(n) for n, name in re.findall(COUNTS_PATTERN, stdout)} == expected
        assert expected["gradient passes"] > 0
        assert "passes" not in (tmp_path / "s" / "seeds.csv").read_text()

    def test_partial_failure_rows_and_all_fail_exit(self, tmp_path, capsys):
        # a region that holds no lag fails every seed before its descent:
        # rows recorded, exit code 3
        out = tmp_path / "fail"
        code = main([
            "sweep", "--out", str(out), "--seed", "0",
            "--set", "run.seed_count=2",
            "--set", "region.mode=interval",
            "--set", "region.lo=0.9993", "--set", "region.hi=0.9997",
        ])
        assert code == 3
        rows = (out / "seeds.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.split(",")[1] == "failed" for row in rows)
        assert not (out / "aggregate.txt").exists()
        # stderr names the first failed seed and why, on one line
        detail = rows[0].split(",")[-1]
        # build_weights' refusal, its comma written as a semicolon
        assert re.fullmatch(r"no lag lies in the sidelobe region \(first null at lag \d+; last lag 999\)", detail)
        assert capsys.readouterr().err == (
            f"numerical failure: all sweep runs failed (see seeds.csv); seed 0: {detail}\n"
        )

    @pytest.mark.parametrize("threads", ["2", "3"])
    def test_threads_do_not_change_output(self, tmp_path, threads):
        # 5 seeds split unevenly over 2 or 3 processes
        base = [
            "--seed", "0", "--set", "waveform.mpsk=inf",
            "--set", "optimizer.max_iters=10", "--set", "run.seed_count=5",
        ]
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        assert main(["sweep", "--out", str(out1), "--threads", "1"] + base) == 0
        assert main(["sweep", "--out", str(out2), "--threads", threads] + base) == 0
        a = tree_bytes(out1)
        b = tree_bytes(out2)
        # manifests differ only in the out/threads lines; data files must match
        assert a["seeds.csv"] == b["seeds.csv"]
        assert a["aggregate.txt"] == b["aggregate.txt"]

    def test_seeds_csv_bytes(self, tmp_path):
        # seeds 1 and 3 place the region's end inside their mainlobe and fail; seed 2 runs
        overrides = ["run.seed_count=3", "region.mode=interval", "region.hi=0.008", "optimizer.max_iters=5"]
        argv = ["sweep", "--out", str(tmp_path), "--seed", "1"]
        assert main([*argv, *itertools.chain(*(["--set", o] for o in overrides))]) == 0
        config = ExperimentConfig.from_sources(overrides=overrides)
        _, summary, status, _ = cli._sweep_worker((config, 2))
        # the detail's comma is written as a semicolon, so the row keeps its 11 cells
        detail = "region interval (0.009; 0.008) ends inside the mainlobe (first null at 9 samples = 0.009 T)"
        header = (
            "seed,status,null_initial,null_final,gisl_initial_db,gisl_final_db,"
            "improvement_db,pslr_initial_db,pslr_final_db,iterations,detail"
        )
        summary_keys = ["null_index_initial", "null_index_final", "gisl_initial_db", "gisl_final_db",
                        "gisl_improvement_db", "pslr_initial_db", "pslr_final_db", "iterations"]
        expected = full_csv(header, [
            [1, "failed", *[""] * 8, detail],
            [2, "ok", *(summary[key] for key in summary_keys), status],
            [3, "failed", *[""] * 8, detail],
        ])
        assert (tmp_path / "seeds.csv").read_bytes() == expected

    def test_threads_above_seed_count_start_one_child(self, tmp_path, monkeypatch):
        from multiprocessing.process import BaseProcess

        started = []
        start = BaseProcess.start

        def recorded(self):
            started.append(self)
            start(self)

        # cmd_sweep forks through a multiprocessing context, whose Process
        # class starts through BaseProcess.start
        monkeypatch.setattr(BaseProcess, "start", recorded)
        code = main([
            "sweep", "--out", str(tmp_path / "s"), "--seed", "0", "--threads", "64",
            "--set", "run.seed_count=2", "--set", "optimizer.max_iters=2",
        ])
        assert code == 0
        assert len(started) == 1
        assert [child.exitcode for child in started] == [0]

    @pytest.mark.parametrize("start_method", [None, "spawn"], ids=["default", "spawn"])
    def test_dead_child_exits_3_naming_its_seeds(self, tmp_path, capsys, monkeypatch, request,
                                                 start_method):
        import multiprocessing

        if start_method:
            # sweep asks for fork itself: a spawned child would import cli afresh,
            # run the unpatched worker and send its rows, and the sweep would exit 0
            default = multiprocessing.get_start_method(allow_none=True)
            multiprocessing.set_start_method(start_method, force=True)
            request.addfinalizer(lambda: multiprocessing.set_start_method(default, force=True))
        worker = cli._sweep_worker

        def dies_at_seed_2(payload):
            if payload[1] == 2:
                os._exit(7)
            return worker(payload)

        # with 3 seeds on 2 processes, this one runs seeds 1 and 3 and a child runs seed 2
        monkeypatch.setattr(cli, "_sweep_worker", dies_at_seed_2)
        out = tmp_path / "s"
        code = main([
            "sweep", "--out", str(out), "--seed", "1", "--threads", "2",
            "--set", "run.seed_count=3", "--set", "optimizer.max_iters=2",
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "sweep failed: the process running seeds 2 exited with code 7 before it sent their rows\n"
        )
        assert not (out / "seeds.csv").exists()
        assert multiprocessing.active_children() == []


# (larger, smaller) config of each command, as argv without --out. The larger
# one has more phases, samples, iterations, alphabets and seeds, so each table
# and manifest that the smaller one writes has fewer rows or fields, and a
# rerun that did not cut its files to length would leave a stale tail; the
# summaries' lengths follow their digits.
QUICK = ["--seed", "1", "--set", "optimizer.max_iters=5"]
MORE_ALPHABETS = ["--set", "quantization.alphabets=64,32,16,8,4,2"]
# later --set entries win, so this lifts QUICK's max_iters: trace.csv gets more rows
LARGER = ["--set", "waveform.L=32", "--set", "waveform.tbp=208", "--set", "optimizer.max_iters=8",
          *MORE_ALPHABETS]
SMALLER = ["--set", "waveform.tbp=100"]
RERUNS = {
    "synth": (["synth", *QUICK, *LARGER], ["synth", *QUICK, *SMALLER]),
    "optimize": (["optimize", *QUICK, *LARGER], ["optimize", *QUICK, *SMALLER]),
    "quantize": (["quantize", "--input", "{larger}", *MORE_ALPHABETS],
                 ["quantize", "--input", "{smaller}"]),
    "sweep": (["sweep", *QUICK, *LARGER, "--set", "run.seed_count=3"],
              ["sweep", *QUICK, *SMALLER, "--set", "run.seed_count=2"]),
}


@pytest.mark.parametrize("command", sorted(RERUNS))
def test_rerun_into_a_populated_directory_matches_a_fresh_one(tmp_path, monkeypatch, command):
    inputs = {"larger": str(tmp_path / "larger"), "smaller": str(tmp_path / "smaller")}
    if command == "quantize":
        for out, argv in zip(inputs.values(), RERUNS["optimize"]):
            assert main([*argv, "--out", out]) == 0
    larger, smaller = ([arg.format(**inputs) for arg in argv] for argv in RERUNS[command])
    populated, fresh = tmp_path / "populated", tmp_path / "fresh"
    populated.mkdir()
    fresh.mkdir()
    # the same relative --out, so the manifests' out lines match as well
    monkeypatch.chdir(populated)
    assert main([*larger, "--out", "out"]) == 0
    before = tree_bytes("out")
    assert main([*smaller, "--out", "out"]) == 0
    after = tree_bytes("out")
    monkeypatch.chdir(fresh)
    assert main([*smaller, "--out", "out"]) == 0
    expected = tree_bytes("out")
    assert "manifest.ini" in expected
    tables = {name: data for name, data in expected.items() if not name.endswith(".txt")}
    assert all(len(before[name]) > len(data) for name, data in tables.items())
    assert {name: after[name] for name in expected} == expected


def test_each_acf_is_dropped_after_its_last_reader(tmp_path, monkeypatch):
    # at M = 10^6 an ACF is 32 MB, so no command may hold one past its last
    # reader: none is alive when a descent starts, a spectrum or spectrogram
    # is written or an ambiguity surface is computed, and a quantization
    # sweep holds the earlier alphabets' ACFs (its rows), not its base
    refs = []

    def alive():
        return sum(ref() is not None for ref in refs)

    def recorded(compute_acf, seen=None):
        def wrapped(s):
            if seen is not None:
                seen.append(alive())
            r = compute_acf(s)
            refs.append(weakref.ref(r))
            return r

        return wrapped

    def counted(name, call):
        def wrapped(*args, **kwargs):
            seen[name].append(alive())
            return call(*args, **kwargs)

        return wrapped

    counted_names = ("run_gd_gisl", "write_spectrum_csv", "write_spectrogram_csv", "compute_af")
    seen = {name: [] for name in counted_names} | {"quantize.compute_acf": []}
    monkeypatch.setattr(cli, "compute_acf", recorded(cli.compute_acf))
    monkeypatch.setattr(quantize, "compute_acf", recorded(quantize.compute_acf, seen["quantize.compute_acf"]))
    for name in counted_names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    quick = ["--seed", "1", "--set", "optimizer.max_iters=2"]
    runs = {
        "synth": ["synth", "--seed", "1"],
        "optimize": ["optimize", *quick],
        "sweep": ["sweep", *quick, "--set", "run.seed_count=2", "--threads", "1"],
        "quantize": ["quantize", *quick],
        "quantize_input": ["quantize", "--input", str(tmp_path / "optimize")],
    }
    expected = {
        "synth": {"write_spectrum_csv": [0], "write_spectrogram_csv": [0], "compute_af": [0]},
        "optimize": {"run_gd_gisl": [0], "write_spectrum_csv": [0, 0]},
        "sweep": {"run_gd_gisl": [0, 0]},
        "quantize": {"run_gd_gisl": [0], "quantize.compute_acf": [0, 0, 1, 2, 3]},
        "quantize_input": {"quantize.compute_acf": [0, 0, 1, 2, 3]},
    }
    for name, argv in runs.items():
        for values in seen.values():
            values.clear()
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        assert {key: values for key, values in seen.items() if values} == expected[name], name


class TestExitCodes:
    def test_config_error(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[waveform]\nbogus = 1\n")
        assert main(["synth", "--config", str(ini), "--out", str(tmp_path / "x")]) == 2

    def test_alphabet_of_one_is_config_error(self, tmp_path):
        code = main([
            "quantize", "--out", str(tmp_path / "x"),
            "--set", "quantization.alphabets=1",
        ])
        assert code == 2

    @pytest.mark.parametrize("setting,message", [
        ("waveform.mpsk=1", "waveform: mpsk must be an integer >= 2 or inf, got 1.0"),
        ("quantization.alphabets=64, 1", "quantization: each size in alphabets must be an integer >= 2 or inf, got 1.0"),
    ], ids=["mpsk", "alphabets"])
    def test_alphabet_size_below_two_names_key_and_value(self, tmp_path, capsys, setting, message):
        assert main(["quantize", "--out", str(tmp_path / "x"), "--set", setting]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_nan_setting_is_config_error(self, tmp_path, capsys):
        # a nan step passed every range check and ran 0 iterations with exit 0
        out = tmp_path / "x"
        code = main(["optimize", "--out", str(out), "--set", "optimizer.mu0=nan"])
        assert code == 2
        assert "optimizer.mu0: expected a number" in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

    def test_numerical_failure(self, tmp_path):
        # the interval selects no whole sample: no lag in the sidelobe region
        code = main([
            "optimize", "--out", str(tmp_path / "x"), "--seed", "1",
            "--set", "region.mode=interval",
            "--set", "region.lo=0.9993", "--set", "region.hi=0.9997",
        ])
        assert code == 3

    def test_out_of_memory_names_m(self, tmp_path, capsys):
        # M = 5e12: numpy refuses the first M-sized array at once, so nothing large is allocated
        code = main(["synth", "--out", str(tmp_path / "x"), "--seed", "1", "--set", "waveform.tbp=1e12"])
        assert code == 3
        assert "out of memory at M = 5000000000000:" in capsys.readouterr().err
        # quantize --input names the input run's M, not its own default 1000
        run = tmp_path / "run"
        run.mkdir()
        (run / "manifest.ini").write_text("[waveform]\ntbp = 1e12\n", encoding="utf-8")
        for name in ("phi_initial.csv", "phi_final.csv"):
            write_phi_csv(run / name, np.zeros(24))
        assert main(["quantize", "--out", str(tmp_path / "q"), "--input", str(run)]) == 3
        assert "out of memory at M = 5000000000000:" in capsys.readouterr().err

    @pytest.mark.parametrize("threads, child_only", [("1", False), ("2", False), ("2", True)],
                             ids=["1", "2", "child"])
    def test_sweep_out_of_memory_names_m(self, tmp_path, capsys, monkeypatch, threads, child_only):
        # a seed that runs out of memory stops the sweep instead of becoming a
        # failed row: the next seed has the same M. As in the synth case, numpy
        # refuses M = 5e12 at once, so nothing large is allocated
        if child_only:
            # this process's seed 1 gives a failed row, so only the child's seed 2
            # raises, and its MemoryError crosses the pipe
            worker = cli._sweep_worker
            monkeypatch.setattr(
                cli, "_sweep_worker", lambda p: (1, None, "skipped", {}) if p[1] == 1 else worker(p)
            )
        out = tmp_path / "x"
        code = main([
            "sweep", "--out", str(out), "--seed", "1", "--threads", threads,
            "--set", "run.seed_count=2", "--set", "waveform.tbp=1e12",
        ])
        assert code == 3
        assert "out of memory at M = 5000000000000: Unable to allocate" in capsys.readouterr().err
        assert not (out / "seeds.csv").exists()

    @pytest.mark.parametrize("tbp", ["1e18", "1e300"])
    def test_too_many_samples_is_config_error(self, tmp_path, capsys, tbp):
        # numpy refuses arrays of these sizes with messages that do not name M
        code = main(["synth", "--out", str(tmp_path / "x"), "--set", f"waveform.tbp={tbp}"])
        assert code == 2
        assert f"M = oversample * tbp = 5.0 * {float(tbp)!r} is above" in capsys.readouterr().err

    def test_region_ending_inside_mainlobe_names_the_null(self, tmp_path, capsys):
        # lo defaults to the detected first null, 9 samples = 0.009 T here
        code = main([
            "optimize", "--out", str(tmp_path / "x"), "--seed", "1",
            "--set", "region.mode=interval", "--set", "region.hi=0.005",
        ])
        assert code == 3
        assert "ends inside the mainlobe (first null at 9 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "optimize", "sweep"])
    def test_large_p_exits_zero_with_finite_summary(self, tmp_path, command):
        # every |r|^400 of a sidelobe underflows a double; the peak-normalised
        # p-sums keep the GISL finite
        out = tmp_path / "x"
        code = main([
            command, "--out", str(out), "--seed", "1",
            "--set", "optimizer.p=400", "--set", "run.seed_count=2",
        ])
        assert code == 0
        summary = read_summary(out / ("aggregate.txt" if command == "sweep" else "summary.txt"))
        values = [v for k, v in summary.items() if isinstance(v, float) and "db" in k]
        assert values and all(math.isfinite(v) for v in values)
        if command == "sweep":
            assert summary["succeeded"] == 2

    def test_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["synth", "--out", str(blocker / "sub"), "--seed", "1"])
        assert code == 4

    def test_output_file_that_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "summary.txt").mkdir(parents=True)
        code = main(["synth", "--out", str(out), "--seed", "1", "--set", "run.write_af=false"])
        assert code == 4
        assert "summary.txt" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = main(["synth", "--config", str(tmp_path / "none.ini"), "--out", str(tmp_path / "x")])
        assert code == 4

    @pytest.mark.parametrize("name", ["phi_initial.csv", "phi_final.csv"])
    def test_phase_file_shorter_than_manifest_is_config_error(self, tmp_path, capsys, name):
        # a truncated phase vector used to exit 3 with a shape error naming neither file nor L
        opt = tmp_path / "opt"
        args = ["--set", "waveform.L=16", "--set", "optimizer.max_iters=1"]
        assert main(["optimize", "--out", str(opt), "--seed", "1"] + args) == 0
        lines = (opt / name).read_text().splitlines()
        (opt / name).write_text("\n".join(lines[:5]) + "\n")
        capsys.readouterr()
        out = tmp_path / "q"
        assert main(["quantize", "--out", str(out), "--input", str(opt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(opt / name) in err and "4 phases" in err and "L = 16" in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("edit, line", [
        (lambda rows: rows[:2] + ["2"] + rows[3:], 3),  # no comma: used to raise an uncaught IndexError
        (lambda rows: rows[:2] + ["2,abc"] + rows[3:], 3),  # used to exit 3 without naming the file
        (lambda rows: rows[:2] + ["2,nan"] + rows[3:], 3),  # used to exit 0 with nan in every report cell
        (lambda rows: rows[1:], 1),  # no header: used to exit 3
        # these two used to exit 0 and quantize the phases in file order
        (lambda rows: [rows[0], rows[2], rows[1]] + rows[3:], 2),
        (lambda rows: rows[:2] + [rows[2] + ",junk"] + rows[3:], 3),
    ], ids=["no-comma", "not-a-number", "nan", "no-header", "swapped", "extra-field"])
    def test_malformed_phase_file_is_config_error(self, tmp_path, capsys, edit, line):
        opt = tmp_path / "opt"
        args = ["--set", "waveform.L=8", "--set", "optimizer.max_iters=1"]
        assert main(["optimize", "--out", str(opt), "--seed", "1"] + args) == 0
        lines = edit((opt / "phi_final.csv").read_text().splitlines())
        (opt / "phi_final.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "q"
        assert main(["quantize", "--out", str(out), "--input", str(opt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"{opt / 'phi_final.csv'}, line {line}:" in err
        assert not (out / "report.csv").exists()


# Run in a fresh interpreter, which has loaded nothing yet. The exit codes
# carry the verdict, so the check holds under python -O as well.
POOL_FREE_SCRIPT = """
import sys

sys.path.insert(0, sys.argv[1])
from ceofdm.cli import main

out = sys.argv[2]
quick = ["--seed", "1", "--set", "optimizer.max_iters=1"]
for argv in (
    ["synth", "--out", out + "/synth"] + quick,
    ["optimize", "--out", out + "/opt"] + quick,
    ["quantize", "--out", out + "/quant"] + quick,
    ["quantize", "--out", out + "/fed", "--input", out + "/opt"],
):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
loaded = [name for name in ("multiprocessing", "concurrent.futures", "logging") if name in sys.modules]
if loaded:
    sys.exit(f"loaded {loaded}")
"""


def test_commands_without_a_pool_never_import_multiprocessing(tmp_path):
    src = Path(ceofdm.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", POOL_FREE_SCRIPT, str(src), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


# the edges of the config space: M = 3, M = 2L + 1, the rectangular pulse
# (h = 0), regions that end inside the mainlobe or hold a few lags, and large p
EDGE_PULSES = [
    ["waveform.L=1", "waveform.samples=3"],
    ["waveform.L=4", "waveform.samples=9"],
    ["waveform.L=1", "waveform.h=0", "waveform.samples=16"],
    ["waveform.L=8", "waveform.samples=120"],
]
EDGE_REGIONS = [
    [],
    ["region.mode=interval", "region.hi=0.05"],
    ["region.mode=interval", "region.lo=0.3", "region.hi=0.32"],
    ["region.mode=interval", "region.lo=0.3", "region.hi=0.3"],  # rejected by the parser
    ["region.mode=interval", "region.hi=0.5"],
]
EDGE_COMMANDS = [
    ["synth"],
    ["optimize", "--set", "optimizer.max_iters=3"],
    ["quantize", "--set", "optimizer.max_iters=3", "--set", "quantization.alphabets=8,inf"],
]


def test_edge_config_sweep(tmp_path, capsys):
    """Each edge config exits 0 with finite results, or 2 or 3 with a message."""
    codes = []
    for i, (pulse, region, p, command) in enumerate(itertools.product(
        EDGE_PULSES, EDGE_REGIONS, (2, 1000), EDGE_COMMANDS
    )):
        out = tmp_path / str(i)
        settings = [*pulse, *region, f"optimizer.p={p}"]
        args = [*command, "--out", str(out), "--seed", "1"]
        code = main(args + [x for kv in settings for x in ("--set", kv)])
        err = capsys.readouterr().err
        case = f"{' '.join(args[:1] + settings)}: exit {code}, stderr {err!r}"
        codes.append(code)
        if code == 0:
            assert err == "", case
            summary = out / "summary.txt"
            if summary.exists():
                assert not re.search(r"= -?(inf|nan)$", summary.read_text(), re.M), case
            if command[0] == "quantize":
                rows = (out / "report.csv").read_text().splitlines()[1:]
                values = [float(x) for row in rows for x in row.split(",")[1:]]
                assert all(math.isfinite(v) and v != DB_NEG_INF for v in values), case
        else:
            assert code in (2, 3), case
            assert re.fullmatch(r"(config error|numerical failure): \S.*\n", err), case
    assert codes.count(0) and codes.count(2) and codes.count(3)


# a fixed table of edge configs, each run with a descent of at most 2
# iterations: (case, command, settings); {finished} names the directory of
# a finished optimize run whose manifest region holds no lag
SHORT = ["optimizer.max_iters=2", "run.seed_count=2"]
CONTRACT_TABLE = [
    ("synth_p2", "synth", ["optimizer.p=2"]),
    ("optimize_p2", "optimize", ["optimizer.p=2"]),
    ("optimize_p5000", "optimize", ["optimizer.p=5000"]),
    ("quantize_in_place_inf", "quantize", ["quantization.alphabets=inf"]),
    ("optimize_hi_1", "optimize", ["region.mode=interval", "region.hi=1.0"]),
    ("synth_h0", "synth", ["waveform.h=0", "waveform.samples=200"]),
    ("optimize_h0", "optimize", ["waveform.h=0", "waveform.samples=200"]),
    ("synth_tiny_tbp", "synth", ["waveform.tbp=1e-300", "waveform.samples=64"]),
    ("optimize_tiny_tbp", "optimize", ["waveform.tbp=1e-300", "waveform.samples=64"]),
    ("synth_L2_M5", "synth", ["waveform.L=2", "waveform.samples=5"]),
    ("optimize_L2_M5", "optimize", ["waveform.L=2", "waveform.samples=5"]),
    ("sweep_L2_M5", "sweep", ["waveform.L=2", "waveform.samples=5"]),
    ("optimize_mpsk2", "optimize", ["waveform.mpsk=2"]),
    ("optimize_beta0", "optimize", ["optimizer.beta=0"]),
    ("optimize_g_min_huge", "optimize", ["optimizer.g_min=1e300"]),
    ("optimize_mu0_tiny", "optimize", ["optimizer.mu0=1e-300"]),
    ("optimize_mu_cap_tiny", "optimize", ["optimizer.mu_cap=1e-300"]),
    ("optimize_huge_h", "optimize", ["waveform.h=1e200", "waveform.samples=64"]),
    ("sweep_huge_h", "sweep", ["waveform.h=1e200", "waveform.samples=64"]),
    ("quantize_input_no_lag", "quantize", ["--input", "{finished}"]),
]


@pytest.mark.parametrize("command, settings", [row[1:] for row in CONTRACT_TABLE],
                         ids=[row[0] for row in CONTRACT_TABLE])
def test_contract_table(tmp_path, capsys, finished_no_lag_run, command, settings):
    """Each case exits 0 with every numeric cell finite, or 3 with one stderr line."""
    out = tmp_path / "x"
    if settings[0] == "--input":
        args = [settings[0], settings[1].format(finished=finished_no_lag_run)]
    else:
        args = [x for kv in SHORT + settings for x in ("--set", kv)]
    with warnings.catch_warnings():
        # an overflow warning, as at h = 1e200, would stand for a silent exit 0
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--out", str(out), "--seed", "1", *args])
    err = capsys.readouterr().err
    if code == 3:
        assert re.fullmatch(r"[^\n]+\n", err), err
        return
    assert code == 0, err
    for name in ("summary.txt", "report.csv", "aggregate.txt", "seeds.csv"):
        if not (out / name).exists():
            continue
        text = (out / name).read_text()
        if name.endswith(".txt"):
            cells = [line.partition(" = ")[2] for line in text.splitlines()]
        else:  # past the header, and past report.csv's alphabet label, which may read inf
            skip = name == "report.csv"
            cells = [c for line in text.splitlines()[1:] for c in line.split(",")[skip:]]
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value) and value != DB_NEG_INF, f"{name}: {cell}\n{text}"
