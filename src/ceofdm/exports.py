"""Deterministic CSV/text writers for all data products.

Every writer formats numbers explicitly so that identical inputs produce
byte-identical files. Time and delay are in units of the pulse duration T,
frequency and Doppler in cycles per T. Magnitudes are exported in dB floored
at -200; an exact -inf (a zero magnitude) is encoded as -999.

Every sampled table but af.csv is written as %.12e fields by ``_write_table``
from the writer's own arrays: its plain columns, its magnitudes and the first
value of its index column. Each block of rows is built, its magnitudes turned
into dB, encoded and written before the next, so no table is held whole, as
numbers or as text. ``write_af_csv`` encodes the same fields in the same
slots from the ambiguity surface's rows at nu >= 0, and writes each -nu row
as its +nu row's slots in reverse order, since |chi(-tau, -nu)| =
|chi(tau, nu)|. The short tables (phases, trace, quantization report and
the sweep's ``seeds.csv``) are written by ``_write_rows``, every float cell
%.17g.

Every file the package writes, the manifest and ``seeds.csv`` included, is
opened by ``_rewrite``: an existing file is overwritten in place and then cut
to the length just written, never truncated first. Rewriting a file that
already exists, as a rerun into the same output directory does, then costs
about what writing a fresh one does.
"""

from __future__ import annotations

import contextlib
import math
import os
from pathlib import Path

import numpy as np

from .metrics import CorrelationResult, _fft_kernel, db
from .optimizer import OptimizationTrace
from .quantize import QuantizationRow
from .waveform import SampledWaveform, WaveformConfig, sample_frequency

__all__ = [
    "DB_FLOOR",
    "DB_NEG_INF",
    "write_phi_csv",
    "read_phi_csv",
    "write_waveform_csv",
    "write_inst_freq_csv",
    "write_spectrum_csv",
    "write_spectrogram_csv",
    "write_acf_csv",
    "write_af_csv",
    "write_trace_csv",
    "write_quantization_csv",
    "write_summary",
]

DB_FLOOR = -200.0
DB_NEG_INF = -999.0


def _power_db(power: np.ndarray) -> np.ndarray:
    """Export dB of a power array, in place: 10 log10, floored at DB_FLOOR,
    and DB_NEG_INF where the power is exactly zero."""
    zero = power == 0.0
    with np.errstate(divide="ignore"):
        np.log10(power, out=power)
    power *= 10.0
    np.maximum(power, DB_FLOOR, out=power)
    power[zero] = DB_NEG_INF
    return power


def _db_cell(x: float) -> float:
    """Export encoding of one dB value: -inf -> DB_NEG_INF, else floored at DB_FLOOR."""
    return DB_NEG_INF if x == -math.inf else max(float(x), DB_FLOOR)


def _fmt_full(x) -> str:
    """A float at full precision (%.17g), anything else as str()."""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


@contextlib.contextmanager
def _rewrite(path):
    """A binary file open for writing at ``path``, created if it is missing.

    An existing file is not truncated when it is opened: it is overwritten
    from its start, and cut at the last byte written when the block ends,
    also when the block raises. So a shorter rewrite keeps no stale tail, and
    a writer that fails part-way leaves exactly the bytes it wrote.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as out:
        try:
            yield out
        finally:
            out.truncate()


def _write_lines(path, lines) -> None:
    with _rewrite(path) as out:
        out.write("".join(f"{line}\n" for line in lines).encode("utf-8"))


def _write_rows(path, header: str, rows) -> None:
    """Write ``header`` and then one line per row, its cells joined by commas,
    each cell a %.17g float or str() of anything else (_fmt_full)."""
    _write_lines(path, [header, *(",".join(map(_fmt_full, row)) for row in rows)])


_BLOCK_VALUES = 1 << 13  # float fields per block: about 60 bytes each in flight, under 1 MB
# One field's slot: its text and a comma right-aligned in five 4-byte words,
# zero bytes before them; the last slot of a row ends in a newline instead.
# A negative %.12e field with a two-digit exponent fills its slot exactly; a
# positive one leaves one zero byte.
_SLOT = 20
_POW10 = 10.0 ** np.arange(23)  # every power of ten up to 1e22 is exact in binary64
_INT_POW10 = 10 ** np.arange(19)
_M_CARRY = 9999999999999.5  # a mantissa from here on rounds to 10**13: a carry into the exponent


def _words(texts) -> np.ndarray:
    """4-character strings as uint32 words in memory order."""
    return np.frombuffer("".join(texts).encode("ascii"), np.uint32)


# "0000" to "9999": the digits of i are its index into a 10 x 10 x 10 x 10 grid
_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))


def _digit_words(last: str = "", below=()) -> np.ndarray:
    """The words "0000" to "9999", or with ``last`` "000" to "999" each
    followed by it; character j of word i is a zero byte where i < below[j]."""
    chars = _DIGITS[:: 10 if last else 1].copy()
    if last:
        chars[:, 3] = ord(last)
    chars[:, : len(below)][np.arange(len(chars))[:, None] < np.array(below, dtype=int)] = 0
    return chars.view(np.uint32).ravel()


# The words of a %.12e field: padding or sign, first digit, point and second
# digit at 100 * signbit + the first two digits; four digits twice; the last
# three digits and the e; the exponent 12 - k and the comma at k.
_LEADS = _words(f"{sign}{d // 10}.{d % 10}" for sign in ("\0", "-") for d in range(100))
_FOUR_DIGITS = _digit_words()
_TAILS = _digit_words("e")
_EXP_COMMA = _words(f"{12 - k:+03d}," for k in range(23))
# The words of a %d field: the last three digits and a comma, then four digits
# at a time. The second half of each table, at the value plus the first
# half's size, holds the leading word: its leading zeros are blank, and a
# word of no digits is blank throughout.
_INT_TAILS = np.concatenate([_digit_words(","), _digit_words(",", below=[100, 10])])
_INT_FOURS = np.concatenate([_FOUR_DIGITS, _digit_words(below=[1000, 100, 10, 1])])


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 13-digit mantissa q and the power k for which q is the digits that
    %.12e prints for each value of a C-ordered array and 12 - k its exponent,
    and the flat indexes of the values where they are not.

    With e = floor(log10 |x|) and k = 12 - e, m = |x| * 10**k is one correctly
    rounded multiply by an exact power of ten. k is read through
    ``take(mode="clip")``, so a k outside 0..22 stands for 10**0 or 10**22,
    both in m and in the exponent. The exact product lies within half an ulp
    of m, and ulp(m) <= 2**-9 for m < 10**13, so each n + 0.5 is a whole
    number of ulps away: rint(m) rounds the way the exact product does unless
    m is n + 0.5. So q is exact where 10**12 <= m < _M_CARRY and m is not
    n + 0.5. Zeros are exact as q = 0, k = 12. Every other value (m on
    n + 0.5, a log10 miss next to a power of ten, a mantissa that rounds up to
    10**13, |x| >= 1e13 or below 1e-10, inf, nan) is returned, with q = 0,
    for % to format.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        # zeros, inf and nan get placeholder powers here, and fall out of range
        m = np.log10(a)
        np.floor(m, out=m)
        k = m.astype(np.intp)
        np.subtract(12, k, out=k)
        np.take(_POW10, k, out=m, mode="clip")
        m *= a
        q = np.rint(m)
        half = m - q
        half *= half
    exact = (m >= 1e12).ravel()
    exact &= (m < _M_CARRY).ravel()  # false for nan
    exact &= (half != 0.25).ravel()
    slow = np.flatnonzero(~exact)
    q.ravel()[slow] = 0.0
    zero = a.ravel()[slow] == 0
    k.ravel()[slow[zero]] = 12
    return q, k, slow[~zero]


def _e_fields(x: np.ndarray, slots: np.ndarray, first: int) -> bool:
    """Write each value's %.12e text and a comma into the slots from column
    ``first`` on. A value without an exact mantissa from _decimal, a
    product on n + 0.5 among them, is formatted on its own with %. Returns
    True, with the slots left unfinished, at the first text longer than its
    slot."""
    x = np.ascontiguousarray(x)
    q, k, slow = _decimal(x)
    np.add(q, 1e13, out=q, where=np.signbit(x))
    n = q.astype(np.int64)  # 10**13 for a minus sign, plus the 13 digits
    head = n // 10**7
    n -= head * 10**7
    lead = head // 10**4
    head -= lead * 10**4
    mid = n // 1000
    n -= mid * 1000
    words = slots.view(np.uint32)[:, first:]
    words[..., 0] = _LEADS.take(lead)
    words[..., 1] = _FOUR_DIGITS.take(head)
    words[..., 2] = _FOUR_DIGITS.take(mid)
    words[..., 3] = _TAILS.take(n)
    words[..., 4] = _EXP_COMMA.take(k, mode="clip")

    if slow.size:
        rows, cols = np.divmod(slow, x.shape[1])
        texts = []
        for value in x.ravel()[slow].tolist():
            text = "%.12e," % value
            if len(text) > _SLOT:
                return True
            texts.append(text.rjust(_SLOT, "\0"))
        slots[rows, first + cols] = np.frombuffer("".join(texts).encode("ascii"), np.uint8).reshape(-1, _SLOT)
    return False


def _d_fields(index: np.ndarray, slots: np.ndarray) -> None:
    """Write each integer's %d text and a comma into its slot in column 0;
    every integer is above -10**18, so each text fits its slot."""
    a = np.abs(index)
    negative = np.flatnonzero(index < 0)
    slot = slots[:, 0]
    words = slot.view(np.uint32)
    for w in range(4, -1, -1):
        table, unit = (_INT_TAILS, 1000) if w == 4 else (_INT_FOURS, 10**4)
        high = a // unit
        a -= high * unit
        a += unit * (high == 0)  # the leading word's table half
        words[:, w] = table.take(a)
        a = high
        if not a.any():
            words[:, :w] = 0
            break
    digits = np.searchsorted(_INT_POW10, -index[negative], side="right")
    slot[negative, _SLOT - 2 - digits] = ord("-")


def _encode_block(table: np.ndarray, index=None) -> bytes:
    """CSV bytes of a 2-D float table as %.12e fields, each row led by its
    ``index`` entry as %d when given, every row ending in a newline."""
    rows, cols = table.shape
    lead = 0 if index is None else 1
    slots = np.empty((rows, lead + cols, _SLOT), np.uint8)
    # a field longer than its slot (a negative value with a three-digit
    # exponent, or an index of -10**18 or less) is rare: format the block whole
    if _e_fields(table, slots, lead) or (index is not None and index.min() <= -(10**18)):
        template = "%d," * lead + ",".join(["%.12e"] * cols) + "\n"
        values = table.tolist() if index is None else [[i, *row] for i, row in zip(index.tolist(), table.tolist())]
        return "".join(template % tuple(row) for row in values).encode("ascii")
    if index is not None:
        _d_fields(index, slots)
    return _row_bytes(slots)


def _row_bytes(slots: np.ndarray) -> bytes:
    """The text of filled slots, each row's last comma made a newline."""
    slots[:, -1, -1] = ord("\n")
    # bytes.replace drops zero bytes at a cost per zero byte, a masked copy at
    # a cost per byte: about one zero byte per field is where they break even
    if slots.size - np.count_nonzero(slots) <= slots.size // _SLOT:
        return slots.tobytes().replace(b"\0", b"")
    return slots[slots != 0].tobytes()


def _numeric_header(label: str, values) -> bytes:
    """A header line: ``label``, then each of ``values`` as a %.12e field."""
    return label.encode("utf-8") + b"," + _encode_block(np.asarray(values, dtype=float)[None, :])


def _write_table(path, header, columns, mag=None, peak=1.0, first_index=None) -> None:
    """Write ``header``, a line of text or the bytes of _numeric_header, and
    then a table's rows as %.12e fields, a block of about _BLOCK_VALUES
    values at a time.

    Each row holds the row of each 1-D array in ``columns``, then with ``mag``
    (1-D or 2-D |x|) its row of |x|^2 / peak^2 in dB. Squaring is monotone,
    so peak = max |x| normalizes to the largest |x|^2. With ``first_index``,
    each row is led by its %d index, counting up from it. A block is built,
    encoded and written before the next, so no table is held whole, as
    numbers or as text.
    """
    step = max(1, _BLOCK_VALUES // (len(columns) + (0 if mag is None else np.size(mag[0]))))
    with _rewrite(path) as out:
        out.write(header if isinstance(header, bytes) else f"{header}\n".encode("utf-8"))
        for start in range(0, len(columns[0]), step):
            rows = slice(start, start + step)
            block = [column[rows] for column in columns]
            if mag is not None:
                power = np.square(mag[rows])
                if peak != 1.0:
                    power /= peak * peak
                block.append(_power_db(power))
            index = None if first_index is None else np.arange(len(block[0]), dtype=np.int64) + (first_index + start)
            out.write(_encode_block(np.column_stack(block), index))


def write_phi_csv(path, phi) -> None:
    # full precision so the vector round-trips exactly through read_phi_csv
    _write_rows(path, "ell,phi_rad", enumerate(np.asarray(phi, float), start=1))


def read_phi_csv(path) -> np.ndarray:
    """The phases of a write_phi_csv file; a ValueError names the file and the bad line."""
    rows = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not rows or rows[0] != "ell,phi_rad":
        raise ValueError(f"{path}, line 1: expected the header 'ell,phi_rad'")
    phi = []
    for ell, line in enumerate(rows[1:], start=1):
        index, _, text = line.partition(",")
        try:
            value = float(text) if index == str(ell) else math.nan
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}, line {ell + 1}: expected '{ell},<finite phase>', got {line!r}")
        phi.append(value)
    return np.array(phi)


def write_waveform_csv(path, s: SampledWaveform) -> None:
    m = len(s.samples)
    columns = [np.arange(m) / m, s.samples.real, s.samples.imag]
    _write_table(path, "sample_index,t_over_T,real,imag", columns, first_index=0)


def write_inst_freq_csv(path, phi, cfg: WaveformConfig) -> None:
    columns = [cfg.t, sample_frequency(phi, cfg)]
    _write_table(path, "sample_index,t_over_T,freq_times_T", columns, first_index=0)


def write_spectrum_csv(path, s: SampledWaveform, cfg: WaveformConfig) -> None:
    """Peak-normalized power spectrum on a 4x zero-padded grid."""
    nfft = 4 * cfg.M
    fft, one = _fft_kernel("fft", nfft)
    mag = np.fft.fftshift(np.abs(fft(s.samples, one, out=np.empty(nfft, dtype=complex))))
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / cfg.M))
    over_df = freqs / cfg.tbp if cfg.tbp > 0 else np.zeros(nfft)
    _write_table(path, "freq_times_T,freq_over_df,magnitude_db", [freqs, over_df], mag, mag.max())


def _stft(samples: np.ndarray, nperseg: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """|X| of the Hann-windowed, centred FFT of each frame, frames as columns,
    and the frame centres in samples.

    The frames are read through a strided view and transformed a block of
    about _BLOCK_VALUES values at a time, each block's |X| written into the
    one array returned, so no complex copy of every frame is made.
    """
    window = np.hanning(nperseg)
    starts = np.arange(0, len(samples) - nperseg + 1, hop)
    segments = np.lib.stride_tricks.sliding_window_view(samples, nperseg)[::hop]
    mag = np.empty((nperseg, starts.size))
    step = max(1, _BLOCK_VALUES // nperseg)
    fft, one = _fft_kernel("fft", nperseg)
    for start in range(0, starts.size, step):
        frames = segments[start : start + step] * window
        fft(frames, one, out=frames)
        mag[:, start : start + step] = np.fft.fftshift(np.abs(frames), axes=1).T
    return mag, starts + nperseg / 2.0


def write_spectrogram_csv(path, s: SampledWaveform, cfg: WaveformConfig) -> None:
    """Windowed-FFT power matrix, rows = frequency bins, columns = time frames."""
    nperseg = min(128, max(8, cfg.M // 8), cfg.M)
    hop = max(1, nperseg // 4)
    mag, centers = _stft(s.samples, nperseg, hop)
    freqs = np.fft.fftshift(np.fft.fftfreq(nperseg, d=1.0 / cfg.M))
    _write_table(path, _numeric_header("freq_times_T", centers / cfg.M), [freqs], mag, mag.max())


def write_acf_csv(path, r: CorrelationResult) -> None:
    """Columns: delay_samples, delay_over_T, magnitude_db."""
    header = "delay_samples,delay_over_T,magnitude_db"
    _write_table(path, header, [r.delays], np.abs(r.r), first_index=-r.zero_index)


def _pwrite(fd: int, data, offset: int) -> None:
    """os.pwrite all of ``data``, however many calls it takes."""
    while data:
        written = os.pwrite(fd, data, offset)
        data, offset = data[written:], offset + written


def write_af_csv(path, values: np.ndarray, dopplers) -> None:
    """First column Doppler (times T); remaining columns |chi|^2 in dB per delay.

    ``values`` holds compute_af's rows at the ``dopplers``, each nu >= 0, over
    the 2M-1 centered delays of the header. The file holds the whole surface:
    first, for each nu > 0 from the last to the first, its -nu row, then the
    given rows. Since |chi(-tau, -nu)| = |chi(tau, nu)|, a -nu row is its +nu
    row reversed in delay, so its dB fields are written from the +nu row's
    20-byte field slots in reverse order. The bytes are those of %.12e fields
    formatted one value at a time, and no table is held whole, as numbers or
    as text.

    Each block of given rows is turned into dB and encoded once. Its rows at
    nu > 0 are one run of the -nu lines, so it takes two writes, each at a
    byte offset planned from each row's count of minus signs, which a dB
    field has exactly where |chi|^2 < 1. The file position stays at the
    header's end until the last row is written, so a write that fails
    part-way leaves only the header. Raises ValueError, before the file is
    opened, at a negative or nan Doppler or a non-finite |chi|^2.
    """
    values = np.asarray(values, dtype=float)
    dopplers = np.asarray(dopplers, dtype=float).ravel()
    if values.ndim != 2 or len(values) != dopplers.size:
        raise ValueError(f"af values of shape {values.shape} do not match {dopplers.size} Doppler rows")
    if not (dopplers >= 0).all():  # false at nan
        raise ValueError(f"af Doppler {dopplers[~(dopplers >= 0)][0]:g} is not >= 0: give the rows at nu >= 0")
    rows, cols = values.shape
    step = max(1, _BLOCK_VALUES // cols)
    signs = np.empty(rows, dtype=np.int64)
    for start in range(0, rows, step):
        power = np.square(values[start : start + step])
        if not power.max() < math.inf:  # false at inf and at nan
            row = start + np.flatnonzero(~np.isfinite(power).all(axis=1))[0]
            raise ValueError(f"af row {row} (doppler {dopplers[row]:g}) holds a |chi|^2 that is not finite")
        np.add.reduce(power < 1.0, axis=1, dtype=np.int64, out=signs[start : start + step])
    # the file's lines: the -nu of each nu > 0, last first, then the given rows;
    # ranks[i] rows at nu > 0 come before row i, and if row i is one of them,
    # its -nu line is line lead - 1 - ranks[i]
    positive = dopplers > 0
    ranks = np.concatenate(([0], np.cumsum(positive)))
    lead = ranks[-1]
    mirrored = np.flatnonzero(positive)[::-1]
    # each Doppler field and its comma, right-aligned in whole slots ahead of the dB fields
    texts = _encode_block(np.concatenate((-dopplers[mirrored], dopplers))[:, None]).split(b"\n")[:-1]
    texts = [text + b"," for text in texts]
    width = -(-max(map(len, texts), default=1) // _SLOT)
    doppler_slots = np.frombuffer(b"".join(t.rjust(width * _SLOT, b"\0") for t in texts), np.uint8)
    doppler_slots = doppler_slots.reshape(-1, width, _SLOT)
    m = (cols + 1) // 2
    header = _numeric_header("doppler_times_T", np.arange(1 - m, m) / m)
    sizes = np.array([len(text) for text in texts]) + np.concatenate((signs[mirrored], signs)) + (_SLOT - 1) * cols
    offsets = np.cumsum([len(header), *sizes.tolist()]).tolist()
    buffer = np.empty((2 * step, width + cols, _SLOT), np.uint8)

    def write_lines(fd: int, first: int, slots: np.ndarray) -> None:
        # the file's lines from ``first`` on, from the dB fields in ``slots``,
        # each led by its Doppler field, at their planned offset
        slots[:, :width] = doppler_slots[first : first + len(slots)]
        data = _row_bytes(slots)
        if len(data) != offsets[first + len(slots)] - offsets[first]:
            raise RuntimeError(f"af lines from {first} encode to {len(data)} bytes, not the planned length")
        _pwrite(fd, data, offsets[first])

    with _rewrite(path) as out:
        out.write(header)
        out.flush()
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            slots = buffer[: stop - start + ranks[stop] - ranks[start]]
            power = np.square(values[start:stop])
            if _e_fields(_power_db(power), slots[: stop - start], width):
                raise RuntimeError(f"af rows {start} to {stop - 1} hold a dB field wider than its slot")
            records = slots.view(f"V{_SLOT}")[:, width:, 0]
            # the -nu lines of the block's rows at nu > 0: last first, each reversed in delay
            records[stop - start :] = records[: stop - start][positive[start:stop]][::-1, ::-1]
            write_lines(out.fileno(), lead - ranks[stop], slots[stop - start :])
            write_lines(out.fileno(), lead + start, slots[: stop - start])
        out.seek(offsets[-1])


def write_trace_csv(path, trace: OptimizationTrace) -> None:
    """Columns: iter, J_p_db, grad_norm, mu, backtracks, reset_flag."""
    j_db = db([r.j for r in trace.rows]).tolist()
    rows = [
        (r.iteration, j, r.grad_norm, r.mu, r.backtracks, int(r.reset))
        for r, j in zip(trace.rows, j_db)
    ]
    _write_rows(path, "iter,J_p_db,grad_norm,mu,backtracks,reset_flag", rows)


def write_quantization_csv(path, rows: tuple[QuantizationRow, ...]) -> None:
    header = "mpsk,max_perturbation_rad,gisl_before_db,gisl_after_db,gisl_degradation_db,pslr_before_db,pslr_after_db"
    cells = [
        (row.label, row.max_perturbation, _db_cell(row.gisl_before_db), _db_cell(row.gisl_after_db),
         row.gisl_degradation_db, _db_cell(row.pslr_before_db), _db_cell(row.pslr_after_db))
        for row in rows
    ]
    _write_rows(path, header, cells)


def write_summary(path, entries: dict) -> None:
    """Key-value summary, one ``key = value`` line per entry, full precision."""
    _write_lines(path, [f"{key} = {_fmt_full(value)}" for key, value in entries.items()])
