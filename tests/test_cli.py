import math
from pathlib import Path

import numpy as np
import pytest

from ceofdm.cli import main
from ceofdm.expconfig import ConfigError, ExperimentConfig


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


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig.from_sources()
        assert config.waveform.L == 24
        assert config.waveform.tbp == 200.0
        assert config.waveform.mpsk == 32.0
        assert config.region.mode == "full"
        assert config.optimizer.p == 20
        assert config.alphabets == (64.0, 32.0, 16.0, 8.0)
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
        assert config.waveform.tbp is None
        cfg = config.to_waveform_config()
        assert cfg.tbp == pytest.approx(199.95, abs=0.1)

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
        assert again.alphabets == (math.inf, 32.0)
        assert again.to_waveform_config() == config.to_waveform_config()


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


class TestQuantizeCommand:
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

    def test_partial_failure_rows_and_all_fail_exit(self, tmp_path):
        # empty sidelobe support fails every seed: rows recorded, exit code 3
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

    def test_threads_do_not_change_output(self, tmp_path):
        base = [
            "--seed", "0", "--set", "waveform.mpsk=inf",
            "--set", "optimizer.max_iters=10", "--set", "run.seed_count=3",
        ]
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        assert main(["sweep", "--out", str(out1), "--threads", "1"] + base) == 0
        assert main(["sweep", "--out", str(out2), "--threads", "2"] + base) == 0
        a = tree_bytes(out1)
        b = tree_bytes(out2)
        # manifests differ only in the out/threads lines; data files must match
        assert a["seeds.csv"] == b["seeds.csv"]
        assert a["aggregate.txt"] == b["aggregate.txt"]

    def test_pool_is_capped_at_seed_count(self, tmp_path, monkeypatch):
        # a forked pool starts every worker up front; record the size, run serially
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("ceofdm.cli.ProcessPoolExecutor", SerialPool)
        code = main([
            "sweep", "--out", str(tmp_path / "s"), "--seed", "0", "--threads", "64",
            "--set", "run.seed_count=2", "--set", "optimizer.max_iters=2",
        ])
        assert code == 0
        assert sizes == [2]


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

    def test_nan_setting_is_config_error(self, tmp_path, capsys):
        # a nan step passed every range check and ran 0 iterations with exit 0
        out = tmp_path / "x"
        code = main(["optimize", "--out", str(out), "--set", "optimizer.mu0=nan"])
        assert code == 2
        assert "optimizer.mu0: expected a number" in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

    def test_numerical_failure(self, tmp_path):
        # interval selects no whole sample: empty sidelobe support
        code = main([
            "optimize", "--out", str(tmp_path / "x"), "--seed", "1",
            "--set", "region.mode=interval",
            "--set", "region.lo=0.9993", "--set", "region.hi=0.9997",
        ])
        assert code == 3

    def test_sidelobe_underflow_is_numerical_failure(self, tmp_path):
        # every sidelobe |r|^400 underflows to zero: no -inf/nan summary with exit 0
        code = main([
            "optimize", "--out", str(tmp_path / "x"), "--seed", "1",
            "--set", "optimizer.p=400",
        ])
        assert code == 3

    def test_synth_sidelobe_underflow_is_numerical_failure(self, tmp_path, capsys):
        # synth reports the GISL too: at p = 400 it must not write gisl_db = -inf
        out = tmp_path / "x"
        code = main(["synth", "--out", str(out), "--seed", "1", "--set", "optimizer.p=400"])
        assert code == 3
        assert "underflows" in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

    def test_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["synth", "--out", str(blocker / "sub"), "--seed", "1"])
        assert code == 4

    def test_missing_config_file(self, tmp_path):
        code = main(["synth", "--config", str(tmp_path / "none.ini"), "--out", str(tmp_path / "x")])
        assert code == 4
