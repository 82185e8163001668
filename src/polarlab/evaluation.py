"""Monte-Carlo evaluation harness: BER sweeps, denoiser SNR gain,
signal histograms, and wall-clock timing, plus the CSV codec for their rows.

Frame generation is organized in fixed-size blocks whose generators are
derived from ``(base, point, block)`` seeds, so results are identical for
any worker count and any stop point; the stop rule is applied while
consuming block results in block order. Every CSV file is one dataclass
row type: a header of its field names, then one line per row. All floats
are written via ``repr`` and parse back to the identical double.
"""

import collections
import contextlib
import csv
import ctypes
import dataclasses
import functools
import os
import time

import numpy as np
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from polarlab import polar
from polarlab.models import hard_decision

BER_BLOCK_FRAMES = 2048


@dataclass(frozen=True)
class BerRow:
    decoder: str
    ebn0_db: float
    frames: int
    bit_errors: int
    ber: float


@dataclass(frozen=True)
class SnrRow:
    ebn0_db: float
    input_snr_db: float
    output_snr_db: float


@dataclass(frozen=True)
class HistRow:
    bin_left: float
    bin_right: float
    density_received: float
    density_denoised: float


@dataclass(frozen=True)
class TimingRow:
    decoder: str
    frames: int
    total_time_s: float
    per_frame_s: float
    batch: int


@dataclass(frozen=True)
class StopRule:
    min_bit_errors: int
    max_frames: int

    def __post_init__(self):
        if self.min_bit_errors < 0:
            raise ValueError("min_bit_errors must be >= 0")
        if self.max_frames < 1:
            raise ValueError("max_frames must be >= 1")


class ScDecoder:
    """Adapter giving the SC baseline the common decode interface."""

    def __init__(self, code):
        self.code = code
        self.name = "sc"

    def decode(self, y, sigma):
        return polar.sc_decode_batch(self.code, y, sigma)


class ModelDecoder:
    """Adapter running a neural decoder batched; ``sigma`` is ignored."""

    def __init__(self, model):
        self.model = model
        self.name = model.spec.arch_name

    def decode(self, y, sigma):
        _, u_soft = self.model.forward(y)
        return hard_decision(u_soft)


def _frames(code, n, sigma, rng):
    """``n`` random-message frames: ``(msgs, s, y)`` with ``s`` the BPSK
    codewords and ``y`` what the AWGN channel of noise ``sigma`` delivers."""
    msgs = rng.integers(0, 2, size=(n, code.K))
    s = polar.bpsk_modulate(polar.encode(code, msgs))
    return msgs, s, polar.awgn_channel(s, sigma, rng)


def _ber_block(decoder, code, sigma, frames, base, point_idx, block_idx):
    """Simulate one block of random frames; returns (frames, bit_errors)."""
    rng = np.random.default_rng(np.random.SeedSequence([base, point_idx, block_idx]))
    msgs, _, y = _frames(code, frames, sigma, rng)
    decoded = decoder.decode(y, sigma)
    return frames, int((decoded != msgs).sum())


def _chunks(total, size):
    """Sizes of the consecutive blocks of at most ``size`` that make up
    ``total`` frames."""
    for lo in range(0, total, size):
        yield min(size, total - lo)


# (restype, argtypes) of the OpenBLAS functions called here
_OPENBLAS_TYPES = {"get_num_threads": (ctypes.c_int, []),
                   "set_num_threads": (None, [ctypes.c_int])}


@functools.cache
def _openblas_function(name):
    """``openblas_<name>`` of the OpenBLAS loaded into this process, under
    any of the symbol spellings numpy's builds use, typed, or None if none
    is. Looked up once per process; forked workers inherit the lookup."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (f"openblas_{name}", f"openblas_{name}64_",
                       f"scipy_openblas_{name}64_", f"scipy_openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = _OPENBLAS_TYPES[name]
                return fn
    return None


def _swap_blas_threads(n):
    """Set OpenBLAS to ``n`` threads unless it has ``n``; returns the count
    it had, or None without OpenBLAS. In a fresh fork, any set call starts
    a server thread, which then busy-waits."""
    get_threads = _openblas_function("get_num_threads")
    old = None if get_threads is None else get_threads()
    if old not in (None, n):
        _openblas_function("set_num_threads")(n)
    return old


# (decoder, code) of a pool worker, set once by its initializer
_worker = None


def _init_worker(decoder, code):
    global _worker
    _worker = (decoder, code)
    # a no-op under fork; other start methods do not inherit the count
    _swap_blas_threads(1)


def _worker_block(sigma, frames, base, point_idx, block_idx):
    return _ber_block(*_worker, sigma, frames, base, point_idx, block_idx)


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _make_pool(decoder, code, processes):
    """A pool, for a ``with`` block, whose workers each hold ``decoder`` and
    ``code`` and run one BLAS thread, as they share the cores. All of it
    reaches a worker at its start, by fork: the parent holds one BLAS
    thread until the pool is shut down (a fork pool forks at its first
    ``submit``), so no worker sets it and starts an OpenBLAS thread that
    busy-waits. The parent's count is restored, also on error."""
    before = _swap_blas_threads(1)
    try:
        with ProcessPoolExecutor(max_workers=processes, initializer=_init_worker,
                                 initargs=(decoder, code)) as pool:
            yield pool
    finally:
        if before is not None:
            _swap_blas_threads(before)


def _block_results(decoder, code, sigma, stop, base, point_idx, pool, window):
    """(frames, bit_errors) of each block of one point, in block order:
    computed here if ``pool`` is None, else by the pool with ``window``
    blocks in flight. Closing the iterator cancels the blocks not started."""
    tasks = ((sigma, frames, base, point_idx, block_idx)
             for block_idx, frames in enumerate(
                 _chunks(stop.max_frames, BER_BLOCK_FRAMES)))
    if pool is None:
        for task in tasks:
            yield _ber_block(decoder, code, *task)
        return
    pending = collections.deque()
    try:
        for task in tasks:
            pending.append(pool.submit(_worker_block, *task))
            if len(pending) == window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for fut in pending:
            fut.cancel()


def ber_eval(decoder, code, ebn0_list, stop, *, rng, workers=1):
    """Estimate bit error rate at each Eb/N0 point.

    Each point simulates random-message frames until ``stop.min_bit_errors``
    bit errors have been seen or ``stop.max_frames`` frames are spent,
    counting errors over information bits. ``rng`` is the caller's tagged
    evaluation stream; results depend only on its state at entry, not on
    ``workers``. ``workers > 1`` runs the whole sweep on one pool of
    ``min(workers, usable CPUs)`` processes.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    base = int(rng.integers(0, 2 ** 63))
    processes = min(workers, _usable_cpus())
    rows = []
    with (_make_pool(decoder, code, processes) if workers > 1
          else contextlib.nullcontext()) as pool:
        for point_idx, ebn0_db in enumerate(ebn0_list):
            sigma = polar.ebn0_to_sigma(ebn0_db, code.rate)
            total_frames = 0
            total_errors = 0
            with contextlib.closing(_block_results(
                    decoder, code, sigma, stop, base, point_idx, pool,
                    window=processes + 2)) as blocks:
                for f, e in blocks:
                    total_frames += f
                    total_errors += e
                    if total_errors >= stop.min_bit_errors:
                        break
            ber = total_errors / (total_frames * code.K)
            rows.append(BerRow(decoder=decoder.name, ebn0_db=float(ebn0_db),
                               frames=total_frames, bit_errors=total_errors, ber=ber))
    return rows


SNR_CHUNK_FRAMES = 4096
# the symbol range pdf_hist bins
PDF_LO, PDF_HI = -4.0, 4.0


def _denoised_chunks(model, code, sigma, frames, rng):
    """``(s, y, s_hat)`` for ``frames`` frames, in chunks of at most
    ``SNR_CHUNK_FRAMES``, ``s_hat`` being the denoiser's estimate of ``s``."""
    for n in _chunks(frames, SNR_CHUNK_FRAMES):
        _, s, y = _frames(code, n, sigma, rng)
        yield s, y, model.denoise(y)


def snr_gain(model, code, ebn0_list, frames, rng):
    """Input and output SNR (dB) of the denoiser stage at each Eb/N0 point.

    SNR is ``10 log10(sum s^2 / sum (v - s)^2)`` over all simulated symbols,
    with ``v`` the received (input) or denoised (output) signal. ``rng`` is
    the caller's tagged evaluation stream.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    rows = []
    for ebn0_db in ebn0_list:
        sigma = polar.ebn0_to_sigma(ebn0_db, code.rate)
        signal_power = noise_in = noise_out = 0.0
        for s, y, s_hat in _denoised_chunks(model, code, sigma, frames, rng):
            signal_power += float((s * s).sum())
            noise_in += float(((y - s) ** 2).sum())
            noise_out += float(((s_hat - s) ** 2).sum())
        rows.append(SnrRow(
            ebn0_db=float(ebn0_db),
            input_snr_db=10.0 * np.log10(signal_power / noise_in),
            output_snr_db=10.0 * np.log10(signal_power / noise_out)))
    return rows


def pdf_hist(model, code, ebn0_db, frames, rng, bins):
    """Histogram densities of received vs denoised symbol values, with
    ``rng`` the caller's tagged evaluation stream.

    ``bins`` bins span the fixed range ``[PDF_LO, PDF_HI]``; values outside
    it are clipped into the edge bins, so each density column integrates to 1.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if bins < 10:
        raise ValueError("bins must be >= 10")
    sigma = polar.ebn0_to_sigma(ebn0_db, code.rate)
    edges = np.linspace(PDF_LO, PDF_HI, bins + 1)
    counts_received = np.zeros(bins, dtype=np.int64)
    counts_denoised = np.zeros(bins, dtype=np.int64)
    for _, y, s_hat in _denoised_chunks(model, code, sigma, frames, rng):
        counts_received += np.histogram(np.clip(y, PDF_LO, PDF_HI), bins=edges)[0]
        counts_denoised += np.histogram(np.clip(s_hat, PDF_LO, PDF_HI), bins=edges)[0]
    width = (PDF_HI - PDF_LO) / bins
    total = frames * code.N
    rows = []
    for b in range(bins):
        rows.append(HistRow(
            bin_left=float(edges[b]), bin_right=float(edges[b + 1]),
            density_received=counts_received[b] / (total * width),
            density_denoised=counts_denoised[b] / (total * width)))
    return rows


def timing_bench(code, decoders, frames, batch, rng):
    """Wall-clock decode timing over a shared set of random frames, drawn
    at 0 dB from ``rng``, the caller's tagged evaluation stream.

    The SC baseline is timed frame by frame (its natural sequential form);
    neural decoders are timed over batched forwards of size ``batch``.
    ``TimingRow.batch`` is the size of each decode call, not of the tiles
    a cnn or rnn model splits that call into.
    Raw numbers only; rows are not comparable claims.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    sigma = polar.ebn0_to_sigma(0.0, code.rate)
    _, _, y = _frames(code, frames, sigma, rng)
    rows = []
    for decoder in decoders:
        sequential = isinstance(decoder, ScDecoder)
        # warm-up outside the timed region
        decoder.decode(y[:min(8, frames)], sigma)
        start = time.perf_counter()
        if sequential:
            for i in range(frames):
                decoder.decode(y[i:i + 1], sigma)
        else:
            for lo_idx in range(0, frames, batch):
                decoder.decode(y[lo_idx:lo_idx + batch], sigma)
        elapsed = time.perf_counter() - start
        rows.append(TimingRow(decoder=decoder.name, frames=frames,
                              total_time_s=elapsed, per_frame_s=elapsed / frames,
                              batch=1 if sequential else batch))
    return rows


# ---------------------------------------------------------------------- CSV I/O

def _fmt(v):
    return repr(float(v)) if isinstance(v, float) else str(v)


def write_rows(path, row_type, rows):
    """Write ``rows``, instances of the dataclass ``row_type``, as CSV."""
    names = [f.name for f in dataclasses.fields(row_type)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in rows:
            writer.writerow([_fmt(getattr(r, name)) for name in names])


def read_rows(path, row_type):
    """Parse a file ``write_rows`` wrote back into a list of ``row_type``.

    Each value is parsed by its field's type annotation. An empty file, a
    wrong header, a line of the wrong width or an unparsable value raises
    ``ValueError`` naming the file and the line.
    """
    fields = dataclasses.fields(row_type)
    names = [f.name for f in fields]
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != names:
            got = "no header" if header is None else f"header {header}"
            raise ValueError(f"{path}, line 1: {got}, want {names}")
        for line in reader:
            where = f"{path}, line {reader.line_num}"
            if len(line) != len(fields):
                raise ValueError(f"{where}: {len(line)} fields, want {len(fields)}")
            try:
                rows.append(row_type(*(f.type(v) for f, v in zip(fields, line))))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return rows
