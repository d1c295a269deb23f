"""Print one SHA-256 per output file of a fixed list of ceofdm command lines.

Usage (from the repository root):

    PYTHONPATH=src python tools/output_digests.py > a.txt
    PYTHONPATH=src python -O tools/output_digests.py > b.txt
    diff a.txt b.txt

Every command runs in-process through ``ceofdm.cli.main`` inside a temporary
directory, which is removed afterwards. Each stdout line reads
``<sha256>  <run>/<file>``. The manifests' ``out =`` and ``threads =`` lines
name the output directory and the worker count, so they are left out of the
digest; every other byte counts. The commands' own stdout (timings, counts)
goes to stderr. The evaluation counts of each ``optimize`` and ``sweep`` run
are deterministic, so they are printed too, after that run's files, as
``<counts>  <run>: evaluation counts``, taken from the command's stdout.

Two runs of this script give the same lines when the program's outputs are
byte-identical and its evaluation counts equal. Compare runs made with one
numpy build on one machine only: FFT bits can differ between numpy versions
and CPUs, so no digest here is a golden value.

After the first pass, every command of RUNS runs again into the same
directories, so each file is overwritten in place; the lines printed are
those of the first pass. The script exits 1 when a digest or a count of the
second pass differs from the first, or when the ``--threads 1``, ``--threads 2``
and ``--threads 3`` sweeps wrote different rows for a seed in ``seeds.csv``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import ceofdm
from ceofdm.cli import main

SUB_REGION = ["--set", "region.mode=interval", "--set", "region.hi=0.1"]
SWEEP = ["sweep", "--seed", "1", "--set", "run.seed_count=3"]

# (run name, argv without --out); {run} in an argument is replaced by the
# output directory of that earlier run
RUNS = [
    ("synth", ["synth", "--seed", "1"]),
    ("synth_tbp208", ["synth", "--seed", "1", "--set", "waveform.tbp=208"]),
    ("synth_rect", ["synth", "--seed", "1", "--set", "waveform.L=1", "--set", "waveform.h=0",
                    "--set", "waveform.samples=128"]),
    ("synth_short", ["synth", "--seed", "1", "--set", "waveform.L=1",
                     "--set", "waveform.samples=7"]),
    ("synth_interval", ["synth", "--seed", "1", *SUB_REGION]),
    # inst_freq.csv holds negative fields with three-digit exponents, wider
    # than the encoder's 20-byte slots
    ("synth_huge_h", ["synth", "--seed", "1", "--set", "waveform.h=1e200",
                      "--set", "waveform.samples=64"]),
    ("design", ["optimize", "--seed", "1", "--set", "waveform.mpsk=inf", *SUB_REGION]),
    ("design_lo", ["optimize", "--seed", "1", "--set", "waveform.mpsk=inf", *SUB_REGION,
                   "--set", "region.lo=0.04"]),
    ("full_band", ["optimize", "--seed", "1"]),
    ("p400", ["optimize", "--seed", "1", "--set", "optimizer.p=400",
              "--set", "optimizer.max_iters=20"]),
    ("quantize_design", ["quantize", "--input", "{design}"]),
    ("quantize_full_band", ["quantize", "--input", "{full_band}"]),
    # report.csv and an acf_mpsk_inf.csv for the unquantized alphabet
    ("quantize_inf", ["quantize", "--input", "{design}", "--set", "quantization.alphabets=inf, 4"]),
    ("sweep_threads1", [*SWEEP, "--threads", "1"]),
    ("sweep_threads2", [*SWEEP, "--threads", "2"]),
    # a fourth seed splits the sweep unevenly over 3 processes: seeds 1 and 4, 2, 3
    ("sweep_threads3", [*SWEEP, "--set", "run.seed_count=4", "--threads", "3"]),
    # seeds 1 and 3 end the region inside their mainlobe: failed rows, whose
    # detail has its comma written as a semicolon, around one that succeeds
    ("sweep_partial", [*SWEEP, "--set", "region.mode=interval", "--set", "region.hi=0.008",
                       "--set", "optimizer.max_iters=5"]),
]

# manifest lines that name where and how a run was made, not what it computed
VOLATILE = (b"out = ", b"threads = ")


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.ini":
        data = b"".join(
            line for line in data.splitlines(keepends=True) if not line.startswith(VOLATILE)
        )
    return hashlib.sha256(data).hexdigest()


def evaluation_counts(command: str, stdout: str) -> str:
    """The counts that ``optimize`` or ``sweep`` prints after the last '; ' of its summary line."""
    for line in stdout.splitlines():
        if line.startswith(f"{command}: "):
            return line.rpartition("; ")[2]
    sys.exit(f"{command} printed no evaluation counts:\n{stdout}")


def digests(work: Path) -> dict[str, str]:
    """Run every command of RUNS under ``work``; map '<run>/<file>' to its SHA-256,
    and '<run>: evaluation counts' to the counts of each optimize and sweep run."""
    out_dirs = {name: work / name for name, _ in RUNS}
    lines = {}
    for name, argv in RUNS:
        argv = [arg.format(**out_dirs) for arg in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--out", str(out_dirs[name])])
        sys.stderr.write(stdout.getvalue())
        if code != 0:
            sys.exit(f"{name}: {' '.join(argv)} exited {code}")
        for path in sorted(out_dirs[name].rglob("*")):
            if path.is_file():
                lines[path.relative_to(work).as_posix()] = file_digest(path)
        if argv[0] in ("optimize", "sweep"):
            lines[f"{name}: evaluation counts"] = evaluation_counts(argv[0], stdout.getvalue())
    return lines


def main_digests() -> int:
    print(f"digests of ceofdm from {Path(ceofdm.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="ceofdm-digests-") as tmp:
        lines = digests(Path(tmp))
        rerun = digests(Path(tmp))
        one, two, three = (
            (Path(tmp) / f"sweep_threads{n}" / "seeds.csv").read_bytes() for n in (1, 2, 3)
        )
    for key, value in lines.items():
        print(f"{value}  {key}")
    changed = sorted(key for key in lines.keys() | rerun.keys() if lines.get(key) != rerun.get(key))
    if changed:
        print(f"a rerun into the same directories changed {', '.join(changed)}", file=sys.stderr)
        return 1
    # the --threads 3 sweep adds seed 4, so its first rows are those of the other two
    if one != two or not three.startswith(one):
        print("seeds.csv rows differ between --threads 1, 2 and 3", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
