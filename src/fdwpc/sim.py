"""Symbol-level Monte Carlo of the slotted achievability scheme.

Transmission proceeds in slots of k channel uses over a block-fading draw.
The energy transmitter radiates its per-state amplitude for the whole slot.
The harvesting user transmits a Gaussian codeword in a slot only when its
battery at slot start covers the slot's full expected demand
k * (p_proc + p_ehu(h)); otherwise it sleeps and only harvests. Per channel
use the battery absorbs the harvested energy (channel signal plus recycled
self-interference) and releases min(level, demand), so it can never go
negative. That per-use law closes over a whole slot in one step (see
``_close_slot``), so no channel use is stepped through in Python.

Most slots cannot run dry, and for them only the slot's two sums are needed.
Every harvest is >= 0, so the level that keeps each use covered is at most
the slot's whole demand ``d_sum``. A slot starting at or above
``d_sum + 4 (k + 2) eps (e_sum + d_sum + tiny)`` (``_dry_free_level``; the
margin covers the rounding of the prefix sums, underflow included) ends at
``level + (e_sum - d_sum)``. Only a slot below that level, or with a
non-finite sum, takes the prefix sums of ``_slot_sums``; the result is the
same to the bit either way.

What is drawn depends on the self-interference gain. Every slot the
allocation wants to transmit in draws, outage slots included, in slot order,
so the stream depends on neither the battery nor the block size. Every
symbol generator is numpy's SFC64 bit generator under ``np.random.Generator``
(its ziggurat normals and gammas), seeded by ``[seed, _STREAM, *key]``
(``_generator``): the run's stream has no key, a conditional path's key is
its slot. The fading states alone come from ``sample_indices``' PCG64 on the
bare seed.

* ``alpha1 > 0``: the gain of each use multiplies its symbol, so each wanted
  slot draws its k unit symbols z, then its k gain normals y, one draw call
  per block of ``_BLOCK`` slots, a group of blocks into one reused buffer.
  No per-use energy is formed: with v = z (g1_mean + sqrt(alpha1) y) and
  a = sqrt(p_ehu), a slot harvests
  ``eta ((k h x2 + a S)^2 / k + a^2 R)`` and spends ``a^2 Q + k p_proc``,
  from the row sums S = sum v, R = sum (v - S / k)^2 and Q = sum z^2
  (``_product_sums``, ``_recycled_sums``); both are sums of squares, so
  >= 0. A slot that could run dry redraws its block up to itself from the
  SFC64 state kept at the block's start and closes from its per-use path.
* ``alpha1 == 0``: the gain is the constant ``g1_mean``, and a slot's sums
  depend on its codeword z only through S1 = sum(z) ~ N(0, k) and the
  squared deviation R = sum((z - mean z)^2) ~ chi2(k - 1), independent of
  S1. Both are drawn for every wanted slot up front (``_draw_sums``) and
  give the slot's sums in closed form (``_closed_sums``). Only a slot that
  could run dry draws symbols: z conditioned on (S1, R) is the mean plus
  sqrt(R) times a direction uniform on the sphere orthogonal to the
  all-ones vector (``_conditional_path``), taken from a generator keyed by
  the slot, so a path does not depend on which other slots needed one.

Either way the battery is closed ``_SUMS_CHUNK`` (1024) slots at a time. A
slot starting at or above its need (its gate or ``_dry_free_level`` if the
allocation wants it, whichever is larger, NaN for non-finite sums, -inf if
silent) adds ``e_sum - d_sum`` or its sleep harvest. One ``cumsum`` from the
carried level gives every start level up to the first slot below its need;
from there the per-slot body runs in Python until ``_DECIDED_RUN`` slots in a
row are decided. ``cumsum`` adds in slot order, one term at a time, as the
body does, and carries the energy totals the same way, so no chunk size
moves a bit, and neither does a block or group size: a slot's sums depend
on its own draws alone.

Slot rates are analytic (decoding is not simulated); receiver noises and the
transmitter's own residual self-interference are therefore never drawn --
they affect decoding, not harvesting. Only the fading state, the user's
codeword symbols and its self-interference gain are sampled.

The per-slot trace CSV is assembled as bytes in numpy, ``_CSV_CHUNK`` rows
at a time in one reused row buffer (``SimTrace._csv_chunks``), and is byte
for byte what formatting each row with ``%`` gives. ``to_csv`` writes those
bytes to a file opened in binary mode, so its lines end in ``\\n`` on every
platform; ``write_csv`` decodes them for a text stream. The text
``,h,transmitted,rate,`` is made twice per fading state, silent and
transmitting, the slot digits are slices of a table of 4-digit groups, and
the battery column goes through one ``%.12e`` kernel (``_e12_fast``): scale
by a power of ten, round, split the mantissa by float floor-divisions, look
the digits up. The values the kernel cannot vouch for -- within
``_TIE_BAND`` of a rounding tie, negative, non-finite or with a 3-digit
exponent -- are formatted by Python's ``%`` (``_format_e12``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fading import FadingDistribution
from .solver import _C_BITS, PowerAllocation, _noise_floor, _rates
from .units import LinkParams

__all__ = ["SimConfig", "SimTrace", "simulate"]

# Slots whose symbols are drawn in one call when alpha1 > 0, and whose
# generator state is kept for a replay: a slot that could run dry redraws its
# block up to itself. The draws are most of the cost whatever the block size
# (128 and 512 measured no faster).
_BLOCK = 32
# Floats of the buffer that whole blocks are drawn into and reduced in at
# once (512 KiB, 5 blocks at k = 200; at least one block), so the
# reductions' per-call cost is paid once per group. At k = 200 one block per
# group measured about 7 ms slower per 20000 slots, 2 to 10 blocks alike.
_GROUP_FLOATS = 65536
# Slots closed per run of the loop, whose sums, needs and levels are held at
# once.
_SUMS_CHUNK = 1024
# Slots decided in a row, closed one at a time near an empty battery, before a
# cumsum takes the run over again.
_DECIDED_RUN = 16
# Stream of the SFC64 symbol draws, after the seed (``_generator``). The
# fading draws seed PCG64 with the bare seed, and a no-recycling slot's path
# generator appends the slot index.
_STREAM = 0x5107
# Trace rows built and written at once, into one row buffer kept for the
# whole trace (65 bytes per row at 16 states and 5-digit slots, sized for 67).
# The kernel's temporaries (about 64 bytes per row) are held for one chunk
# only: building the whole trace at once raised the peak memory of a
# 20000-row run by 5 MiB.
_CSV_CHUNK = 2048
_CSV_HEADER = b"slot,h,transmitted,slot_rate_bits,battery_j\n"
# '0000' .. '9999' as 4 ASCII bytes, one uint32 per group of 4 digits.
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.stack(np.meshgrid(*[_DIGIT] * 4, indexing="ij"), axis=-1).reshape(10_000, 4)
_GROUPS = _DIGITS4.view(np.uint32).ravel()
# 'd.' for the lead digits 0 .. 10, one uint16 each: a mantissa that rounds
# to 10**13 has the lead 10, printed '1.'.
_LEADS = np.frombuffer(b"0.1.2.3.4.5.6.7.8.9.1.", np.uint16)
# 10.0 ** (12 - e) for the decimal exponents e the kernel tries, correctly
# rounded, indexed by e - _E_LO.
_E_LO, _E_HI = -101, 101
_SCALE = np.array([float(f"1e{12 - e}") for e in range(_E_LO, _E_HI + 1)])
# 'e+dd' / 'e-dd' as one uint32, indexed by e - _E_LO up to _E_HI + 1 (one
# carry); a 3-digit exponent, never on the fast path, is cut to 4 bytes.
_EXPS = np.array([b"e%+03d" % e for e in range(_E_LO, _E_HI + 2)], "S4").view(np.uint32)
# Half-width of the band around a .5 tie left to Python's '%': twice the
# bound 2.3e-3 on the error of the kernel's y (``_e12_fast``).
_TIE_BAND = 4.6e-3
# One '%.12e' text of 18 bytes: 'd.' 'dddd' 'dddd' 'dddd' 'e+dd'.
_E12 = np.dtype([("lead", "u2"), ("frac", "3u4"), ("exp", "u4")])


@dataclass(frozen=True)
class SimConfig:
    """Slot structure and reproducibility knobs for one simulation run.

    ``seed`` picks the fading states (PCG64 seeded by ``seed``) and the
    symbols (SFC64 seeded by ``[seed, _STREAM]``, and by
    ``[seed, _STREAM, slot]`` for a conditional path). A seed reproduces a
    run for a given numpy version.
    """

    k: int = 200
    n_slots: int = 20_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {self.n_slots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SimTrace:
    """Per-slot history and run aggregates.

    Gains and rates are kept per fading state (``state_h`` is the
    distribution's read-only ``h``); the columns ``h`` and ``slot_rate_bits``
    are derived from them and the stored ``fading_state`` and ``transmitted``.

    ``empirical_rate`` counts every slot in the denominator, transmitting or
    not, so the warm-up slots are paid for exactly as the scheme prescribes.
    """

    fading_state: np.ndarray
    state_h: np.ndarray
    transmitted: np.ndarray
    state_rate_bits: np.ndarray
    battery_j: np.ndarray
    empirical_rate: float
    # Fraction of slots where the allocation scheduled a transmission but the
    # battery could not cover it. Slots the allocation itself keeps silent
    # (zero codeword power for that fading state) are not outages.
    outage_fraction: float
    mean_harvest_w: float
    mean_consumed_w: float
    energy_in_total: float
    energy_out_total: float
    battery_final: float
    # Slots before the first transmission (n_slots if none transmits).
    warmup_slots: int
    # Transmitting slots whose battery ran dry inside the slot, so that some
    # channel use released less than its demand.
    depleted_slots: int
    # Transmitting slots closed from their per-use path (``_slot_sums``)
    # because their start level was below ``_dry_free_level``.
    exact_path_slots: int
    # Extremes of the slot-end battery levels ``battery_j``.
    battery_min_j: float
    battery_max_j: float

    @property
    def h(self) -> np.ndarray:
        return self.state_h[self.fading_state]

    @property
    def slot_rate_bits(self) -> np.ndarray:
        return np.where(self.transmitted, self.state_rate_bits[self.fading_state], 0.0)

    def write_csv(self, fh) -> None:
        """Write the per-slot trace to a text stream such as ``sys.stdout``:
        each chunk of ``_csv_chunks`` decoded as ASCII."""
        for chunk in self._csv_chunks():
            fh.write(str(chunk, "ascii"))

    def to_csv(self, path) -> None:
        """Write the per-slot trace to the file at ``path``, opened in binary
        mode: the bytes of ``_csv_chunks`` as they are, so every line ends in
        ``\\n`` on every platform."""
        with open(path, "wb") as fh:
            for chunk in self._csv_chunks():
                fh.write(chunk)

    def _csv_chunks(self):
        """The trace CSV as bytes: the header, then the rows (slot, h,
        transmitted, rate, battery; floats as ``%.12e``) in chunks of at most
        ``_CSV_CHUNK``, each a uint8 array valid until the next is drawn.

        A chunk ends before a power of ten, so its slots have one width. Its
        rows are built in one buffer kept for the whole trace. A row is the
        slot's digits (``_slot_digits``), the middle text
        ``,h,transmitted,rate,`` of its state s (of n), made once per state
        and picked by ``s + n * transmitted``, and the battery's text
        (``_format_e12``), each a null-padded bytes field; a chunk with nulls
        (a text of another length) drops them. The bytes are those of
        ``'%d,%.12e,%d,%.12e,%.12e' % row``: ``_format_e12`` gives every float
        exactly the text of ``'%.12e' % v`` (see ``_e12_fast``).
        """
        yield _CSV_HEADER
        h_text = _format_e12(self.state_h).tolist()
        r_text = _format_e12(self.state_rate_bits).tolist()
        silent = [b",%s,0,0.000000000000e+00," % t for t in h_text]
        middles = np.array(silent + [b",%s,1,%s," % tr for tr in zip(h_text, r_text)])
        code = self.fading_state + len(h_text) * self.transmitted
        size = self.battery_j.size
        # A row is at most the slot, the middle, 20 bytes of battery text
        # ('-1.797693134862e+308') and the newline.
        buf = np.empty(min(_CSV_CHUNK, size) * (len(str(size)) + middles.itemsize + 21), np.uint8)
        lo = 0
        while lo < size:
            width = len(str(lo))
            hi = min(lo + _CSV_CHUNK, size, 10**width)
            level = _format_e12(self.battery_j[lo:hi])
            fields = [("slot", f"S{width}"), ("mid", middles.dtype), ("level", level.dtype)]
            rows = buf[: (hi - lo) * (width + middles.itemsize + level.itemsize + 1)]
            rows = rows.view(fields + [("nl", "S1")])
            _slot_digits(lo, hi, rows.view(np.uint8).reshape(hi - lo, -1)[:, :width])
            rows["mid"] = middles[code[lo:hi]]
            rows["level"] = level
            # Not held while the next chunk's kernel runs.
            del level
            rows["nl"] = b"\n"
            text = rows.view(np.uint8)
            yield text if np.count_nonzero(text) == text.size else text[text != 0]
            lo = hi


def _slot_digits(lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """``str(i)`` for i in ``lo .. hi - 1`` (0 <= lo < hi), as a null-padded
    bytes array: the digits written left-aligned into the rows of ``out``, a
    uint8 array of shape (hi - lo, width of hi - 1) whose rows are contiguous,
    or of a new one.

    The indices fall into runs of one width within one block of 10**4. Over a
    run the digits above the lowest four are one constant text, the lowest
    four a slice of the table ``_DIGITS4``: no digit is divided out of an
    index array.
    """
    width = len(str(hi - 1))
    if out is None:
        out = np.empty((hi - lo, width), np.uint8)
    i = lo
    while i < hi:
        text = str(i)
        end = min(hi, 10 ** len(text), i - i % 10_000 + 10_000)
        rows = out[i - lo : end - lo]
        head = text[:-4].encode()
        low = len(text) - len(head)
        rows[:, : len(head)] = np.frombuffer(head, np.uint8)
        rows[:, len(head) : len(text)] = _DIGITS4[i % 10_000 : i % 10_000 + end - i, 4 - low :]
        rows[:, len(text) :] = 0
        i = end
    return out.view(f"S{width}")[:, 0]


def _e12_fast(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of ``_format_e12``: each value's 18-byte ``'%.12e'`` text as
    an ``S18`` array, and where that text is exact.

    It is exact for +0.0 and for a value in [1e-99, 9.9999999999995e99),
    whose text has a 2-digit exponent, that is not near a rounding tie.
    Elsewhere (negatives, -0.0, NaN, infinities, 3-digit exponents, near
    ties) the text is garbage and ``'%.12e' % v`` must be used instead.

    The decimal exponent e comes from ``log10`` and is moved by one where
    y = x * 10**(12 - e) falls outside [1e12, 1e13); ``log10`` rounds to e
    just below 10**e, and the move keeps such values on the fast path. The
    power of ten is correctly rounded and the product rounds once more, so
    y is within about 2 u y < 2.3e-3 of the exact x * 10**(12 - e)
    (u = 2**-53). Where y is not within ``_TIE_BAND``, twice that, of a .5
    tie, ``rint(y)`` is therefore the correctly rounded 13-digit mantissa
    that ``'%.12e'`` prints, whatever ``log10`` returned. After the move y
    lies at most about 2.3e-3 outside [1e12, 1e13), where rounding and carry
    give the same text at either exponent. A mantissa that rounds to 1e13
    carries into the next exponent with the lead 10. The tie test reads y
    before the carry: 9.9999999999995e-96 lies next to a tie and must not be
    carried past it (``'%.12e'`` prints 9.999999999999e-96).

    The mantissa (< 2**53) splits into its lead and three 4-digit groups by
    floor-divisions by powers of ten, exact in floats below 2**53, and each
    text is stored in 5 table lookups: 'd.', the groups, 'e+dd'.
    """
    ok = (x >= 1e-99) & (x < 9.9999999999995e99)
    # The other rows print as 0.000000000000e+00, which is +0.0's text, and
    # keep their table lookups in range.
    y = np.where(ok, x, 1.0)
    # e - _E_LO, where log10 puts it (off by at most one), then moved.
    e = (np.log10(y) - _E_LO).astype(np.intp)
    first = y * _SCALE[e]
    e += first >= 1e13
    e -= first < 1e12
    # Each temporary goes once read: the peak is about 64 bytes per value.
    del first
    y *= _SCALE[e]
    # Rows: the mantissa's leading 1, 5 and 9 digits, then the mantissa.
    digits = np.empty((4, x.size))
    np.rint(y, out=digits[3])
    # Not within _TIE_BAND of a tie, tested before the carry.
    y -= digits[3]
    fast = np.abs(y, out=y) < 0.5 - _TIE_BAND
    del y
    fast &= ok
    digits[3] *= ok
    e += digits[3] >= 1e13
    out = np.empty(x.size, _E12)
    out["exp"] = _EXPS[e]
    del e
    for row, power in enumerate((1e12, 1e8, 1e4)):
        np.floor(np.divide(digits[3], power, out=digits[row]), out=digits[row])
    # Now the lead and the three groups, each row less 1e4 times the one above.
    for row in (3, 2, 1):
        digits[row] -= 1e4 * digits[row - 1]
    out["lead"] = _LEADS[digits[0].astype(np.intp)]
    for j in range(3):
        out["frac"][:, j] = _GROUPS[digits[j + 1].astype(np.intp)]
    return out.view("S18"), fast | (x.view(np.uint64) == 0)


def _format_e12(x: np.ndarray) -> np.ndarray:
    """``'%.12e' % v`` for each value of a float64 array, as a null-padded
    bytes array: the kernel ``_e12_fast``, and Python's correctly rounded
    ``%`` for the values it leaves (about 1% of arbitrary positive ones,
    those within ``_TIE_BAND`` of a tie)."""
    x = np.asarray(x, dtype=np.float64)
    text, fast = _e12_fast(x)
    slow = np.flatnonzero(~fast)
    if slow.size:
        other = np.array([b"%.12e" % v for v in x[slow].tolist()])
        if other.itemsize > text.itemsize:
            text = text.astype(other.dtype)
        text[slow] = other
    return text


def _generator(seed: int, *key: int) -> np.random.Generator:
    """The symbol generator of stream ``key`` of a run: SFC64 seeded by
    ``[seed, _STREAM, *key]``."""
    return np.random.Generator(np.random.SFC64([seed, _STREAM, *key]))


def _use_energies(
    x1: np.ndarray, gain, hx2, eta: float, p_proc: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per use: harvest ``eta (h x2 + gain x1)^2`` and demand ``x1^2 + p_proc``."""
    amp = hx2 + gain * x1
    return eta * amp * amp, x1 * x1 + p_proc


def _draw_sums(rng: np.random.Generator, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For ``n`` slots of ``k`` i.i.d. standard normals z: the sums
    S1 ~ N(0, k), then the squared deviations R = sum((z - mean z)^2)
    ~ chi2(k - 1), independent of S1 (R is 0 when k = 1)."""
    s1 = math.sqrt(k) * rng.standard_normal(n)
    return s1, 2.0 * rng.standard_gamma((k - 1) / 2, n)


def _harvest_sum(s, r, k: int, hx2, x1_sd, g: float, eta: float):
    """``sum eta (h x2 + g x1_sd v)^2`` over a slot of k uses whose v has sum
    ``s`` and squared deviations ``r``, and the factors ``a = x1_sd s`` and
    ``b = x1_sd sqrt(r)``. It is ``eta ((k h x2 + g a)^2 / k + g^2 b^2)``,
    >= 0. Each factor is formed before it is squared, so a product that
    underflows is never scaled up after."""
    a = x1_sd * s
    b = x1_sd * np.sqrt(r)
    amp = k * hx2 + g * a
    gb = g * b
    return eta * (amp * amp / k + gb * gb), a, b


def _closed_sums(s1, r, k: int, hx2, x1_sd, g: float, eta: float, p_proc: float):
    """Harvest and demand sums of a slot with a fixed gain ``g`` whose
    codeword is ``x1 = x1_sd * z``, z having sum ``s1`` and squared
    deviations ``r`` (``_harvest_sum``); with ``a = sum x1 = x1_sd s1`` and
    ``b^2 = sum (x1 - mean x1)^2 = x1_sd^2 r`` the demand is
    ``sum x1^2 + k p_proc = a^2 / k + b^2 + k p_proc``."""
    e_sum, a, b = _harvest_sum(s1, r, k, hx2, x1_sd, g, eta)
    return e_sum, a * a / k + b * b + k * p_proc


def _product_sums(z: np.ndarray, g: float, g_sd: float, out: np.ndarray) -> float:
    """Row sums of n slots' draws ``z`` of shape (n, 2, k) -- each slot's k
    unit symbols u, then its k gain normals y -- into ``out``'s three rows:
    S = sum w, Q = sum u^2 and R = sum (w - S / k)^2. Returns the scale
    c = max(|g|, g_sd), and w = u (g / c + (g_sd / c) y) is the symbols
    times their gains g + g_sd y, over c: near unit size, so no square of w
    underflows and none overflows. At ``g == 0``, w is u y.

    ``z`` is overwritten. The reductions are numpy's pairwise row sums, so a
    row's sums depend on that row alone, whatever n."""
    u, w = z[:, 0], z[:, 1]
    scale = max(abs(g), g_sd)
    if g_sd != scale:
        w *= g_sd / scale
    if g:
        w += g / scale
    w *= u
    np.sum(w, axis=1, out=out[0])
    w -= (out[0] / z.shape[2])[:, None]
    np.square(z, out=z)
    np.sum(z, axis=2, out=out[1:].T)
    return scale


def _recycled_sums(s, q, r, k: int, hx2, x1_sd, scale: float, eta: float, p_proc: float):
    """Harvest and demand sums of a slot whose use i harvests
    ``eta (h x2 + scale x1_sd w_i)^2`` and spends ``x1_sd^2 u_i^2 + p_proc``,
    from the row sums (S, Q, R) and the scale of ``_product_sums``: the
    harvest is ``_harvest_sum`` of (S, R) at gain ``scale``, the demand
    ``x1_sd (x1_sd Q) + k p_proc``. Both are >= 0."""
    e_sum = _harvest_sum(s, r, k, hx2, x1_sd, scale, eta)[0]
    return e_sum, x1_sd * (x1_sd * q) + k * p_proc


def _conditional_path(s1: float, r: float, v: np.ndarray) -> np.ndarray:
    """k symbols with sum ``s1`` and squared deviations ``r``, from k
    standard normals ``v``: the mean plus ``v``'s deviations scaled to
    ``r``. Given i.i.d. normal symbols' (S1, R), their deviations point in
    a uniform direction on the sphere orthogonal to the all-ones vector,
    independent of (S1, R), and so do ``v``'s: the path is exact in law."""
    u = v - v.mean()
    ss = float((u * u).sum())
    # k = 1 has no deviation (and r = 0). Square roots first: r / ss could
    # underflow.
    scale = math.sqrt(r) / math.sqrt(ss) if ss > 0.0 else 0.0
    return s1 / v.size + scale * u


def _slot_sums(e_in: np.ndarray, demand: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row (one slot's uses): harvest, demand, net change ``c[-1]`` and
    ``floor = max(e_in - c)``, with ``c`` the prefix sums of ``e_in - demand``.
    A battery starting the slot at or above ``floor`` never runs short."""
    cum = np.cumsum(e_in - demand, axis=1)
    return e_in.sum(axis=1), demand.sum(axis=1), cum[:, -1], (e_in - cum).max(axis=1)


def _close_slot(
    level: float, e_sum: float, d_sum: float, net: float, floor: float
) -> tuple[float, float, bool]:
    """Battery after one transmitting slot: (end level, energy released,
    whether the battery ran dry inside the slot).

    Per use the battery takes ``level' = level + e - min(level, d)``, which
    is ``max(level + e - d, e)``, so ``level' - c`` is the running maximum of
    ``level`` and ``e - c`` and the slot ends at ``net + max(level, floor)``
    (terms from ``_slot_sums``). When ``level >= floor`` no use is short and
    the slot spends its whole demand ``d_sum``.

    ``floor`` is at most ``d_sum``: ``e - c`` at use j is the demand of uses
    1..j less the harvest of uses 1..j-1. So a slot starting at
    ``_dry_free_level`` or above takes that first branch, and ``simulate``
    closes it from ``e_sum`` and ``d_sum`` alone, without ``_slot_sums``.
    """
    if level >= floor:
        return level + (e_sum - d_sum), d_sum, False
    end = net + floor
    return end, level + e_sum - end, True


def _dry_free_level(e_sum: np.ndarray, d_sum: np.ndarray, k: int) -> np.ndarray:
    """Per slot of ``k`` uses: a start level at or above which the battery
    cannot run dry, i.e. not below ``_slot_sums``' rounded ``floor``.

    Rounding can lift ``floor`` above ``d_sum`` by at most about
    ``(k + 1) eps (e_sum + d_sum)``: ``k eps / 2`` from the prefix sums of
    ``e_in - demand``, ``eps / 2`` from ``e_in - c`` and ``k eps / 2`` from
    the row sum ``d_sum``. Sums from ``_closed_sums`` differ from those of
    the path ``_conditional_path`` builds, and sums from ``_recycled_sums``
    from those of the drawn path, by a few eps more. Below the
    smallest normal float ``tiny`` a product errs by up to ``eps tiny / 2``
    absolute rather than ``eps / 2`` relative, so the margin is taken on
    ``e_sum + d_sum + tiny``. The margin ``4 (k + 2) eps (e_sum + d_sum +
    tiny)`` covers all that with room to spare. A non-finite level is NaN,
    which no level reaches.
    """
    fi = np.finfo(np.float64)
    level = d_sum + 4 * (k + 2) * fi.eps * (e_sum + d_sum + fi.tiny)
    level[~np.isfinite(level)] = np.nan
    return level


def simulate(
    params: LinkParams,
    fading: FadingDistribution,
    alloc: PowerAllocation,
    cfg: SimConfig,
) -> SimTrace:
    """Run the slotted scheme and account for every joule.

    Battery starts empty; the initial silent slots are the warm-up and stay
    in the rate denominator. Fully reproducible for a fixed seed and numpy
    version: the states come from ``fading.sample_indices(cfg.seed, ...)``,
    the symbols, gains and sums from SFC64 seeded by
    ``[cfg.seed, _STREAM]``, and a conditional path from SFC64 seeded by
    ``[cfg.seed, _STREAM, slot]``. Raises ValueError unless the allocation
    has one entry per fading state.
    """
    if alloc.p_ehu.size != fading.n_states:
        raise ValueError(
            f"allocation has {alloc.p_ehu.size} states, the fading distribution {fading.n_states}"
        )
    rng = _generator(cfg.seed)
    k = cfg.k
    n_slots = cfg.n_slots
    eta = params.eta
    p_proc = params.p_proc
    states = fading.sample_indices(cfg.seed, n_slots)
    x2 = alloc.x2
    p_ehu = alloc.p_ehu
    h = fading.h
    noise = _noise_floor(fading.h2, params.sigma2_sq + params.alpha2 * x2**2)
    rates = _rates(_C_BITS, p_ehu, noise)
    g1_sd = math.sqrt(params.alpha1)
    g = params.g1_mean
    hx2 = h * x2
    x1_sd = np.sqrt(p_ehu)
    # No level, not even an infinite or NaN one, is >= NaN: one compare tells
    # a slot that transmits from one that sleeps, wanted or not. Silent states form no level.
    gate = np.multiply(k, p_proc + p_ehu, out=np.full(p_ehu.size, np.nan), where=p_ehu > 0.0)
    # Sleeping: the user spends nothing and only harvests the transmitter's
    # signal.
    sleep_in = k * eta * hx2 * hx2
    wanted = p_ehu[states] > 0.0

    # Each generator yields a run's first slot, its wanted mask, the wanted
    # slots' e_sum and d_sum, and ``path(pos, s_i)``, called only while its run
    # is current: the per-use harvest and demand of the run's slot ``pos``.
    def drawn_runs():
        # Blocks are drawn a group at a time into one buffer and reduced
        # together; a slot's sums depend on its own draws alone.
        group = _BLOCK * max(1, _GROUP_FLOATS // (2 * k * _BLOCK))
        buf = np.empty((min(group, _SUMS_CHUNK, n_slots), 2, k))
        for lo in range(0, n_slots, _SUMS_CHUNK):
            want = wanted[lo : lo + _SUMS_CHUNK]
            n = want.size
            # Wanted slots of the run before each of its slots.
            before = [0, *np.cumsum(want).tolist()]
            sums = np.empty((3, before[-1]))
            starts = []
            for g_lo in range(0, n, group):
                first = before[g_lo]
                for b in range(g_lo, min(g_lo + group, n), _BLOCK):
                    starts.append(rng.bit_generator.state)
                    end = before[min(b + _BLOCK, n)]
                    rng.standard_normal(out=buf[before[b] - first : end - first])
                scale = _product_sums(buf[: end - first], g, g1_sd, sums[:, first:end])

            def path(pos, s_i):
                # Redraw the block from its start state, up to the slot.
                replay = _generator(cfg.seed)
                replay.bit_generator.state = starts[pos // _BLOCK]
                z = replay.standard_normal((before[pos + 1] - before[pos - pos % _BLOCK], 2, k))
                x1 = x1_sd[s_i] * z[-1, 0]
                return _use_energies(x1[None], g + g1_sd * z[-1, 1], hx2[s_i], eta, p_proc)

            ws = states[lo : lo + n][want]
            yield lo, want, *_recycled_sums(*sums, k, hx2[ws], x1_sd[ws], scale, eta, p_proc), path

    def sum_runs():
        # Two numbers per wanted slot, drawn for the whole run at once.
        ws = states[wanted]
        s1, r = _draw_sums(rng, ws.size, k)
        first = 0
        for lo in range(0, n_slots, _SUMS_CHUNK):
            want = wanted[lo : lo + _SUMS_CHUNK]
            rows = slice(first, first + np.count_nonzero(want))

            def path(pos, s_i):
                row = first + np.count_nonzero(want[:pos])
                v = _generator(cfg.seed, lo + pos).standard_normal(k)
                x1 = x1_sd[s_i] * _conditional_path(float(s1[row]), float(r[row]), v)
                return _use_energies(x1[None], g, hx2[s_i], eta, p_proc)

            wr = ws[rows]
            sums = _closed_sums(s1[rows], r[rows], k, hx2[wr], x1_sd[wr], g, eta, p_proc)
            yield lo, want, *sums, path
            first = rows.stop

    level = e_in_total = e_out_total = 0.0
    depleted = exact = 0
    battery_end = np.empty(n_slots)
    for lo, want, e_sums, d_sums, path in drawn_runs() if g1_sd > 0.0 else sum_runs():
        n = want.size
        s = states[lo : lo + n]
        # Column j + 1: slot j's level increment, energy in and energy out if
        # decided; column i carries the level and totals into slot i.
        acc = np.zeros((3, n + 1))
        acc[:2, 1:] = sleep_in[s]
        acc[:, 1:][:, want] = e_sums - d_sums, e_sums, d_sums
        need = np.full(n, -np.inf)
        need[want] = np.maximum(gate[s[want]], _dry_free_level(e_sums, d_sums, k))
        i = 0
        while i < n:
            acc[:, i] = level, e_in_total, e_out_total
            run = np.cumsum(acc[:, i:], axis=1)
            decided = run[0, :-1] >= need[i:]
            m = n - i if decided.all() else int(decided.argmin())
            battery_end[lo + i : lo + i + m] = run[0, 1 : m + 1]
            level, e_in_total, e_out_total = run[:, m].tolist()
            i += m
            streak = 0
            while i < n and streak < _DECIDED_RUN:
                inc, e_sum, d_sum = acc[:, i + 1].tolist()
                streak = streak + 1 if level >= need[i] else 0
                if streak:
                    level += inc
                    e_in_total += e_sum
                    e_out_total += d_sum
                elif level >= gate[s[i]]:
                    net, floor = (float(a[0]) for a in _slot_sums(*path(i, s[i]))[2:])
                    level, e_out, dry = _close_slot(level, e_sum, d_sum, net, floor)
                    e_in_total += e_sum
                    e_out_total += e_out
                    depleted += dry
                    exact += 1
                else:  # an outage: the wanted slot sleeps
                    level += float(sleep_in[s[i]])
                    e_in_total += float(sleep_in[s[i]])
                battery_end[lo + i] = level
                i += 1

    # A slot transmitted exactly when its start level passed its gate.
    transmitted = np.concatenate(([0.0], battery_end[:-1])) >= gate[states]
    n_outage = int((wanted & ~transmitted).sum())
    empirical = float(rates[states[transmitted]].sum()) / n_slots
    uses = n_slots * k
    return SimTrace(
        fading_state=states,
        state_h=h,
        transmitted=transmitted,
        state_rate_bits=rates,
        battery_j=battery_end,
        empirical_rate=empirical,
        outage_fraction=n_outage / n_slots,
        mean_harvest_w=e_in_total / uses,
        mean_consumed_w=e_out_total / uses,
        energy_in_total=e_in_total,
        energy_out_total=e_out_total,
        battery_final=level,
        warmup_slots=int(transmitted.argmax()) if transmitted.any() else n_slots,
        depleted_slots=depleted,
        exact_path_slots=exact,
        battery_min_j=float(battery_end.min()),
        battery_max_j=float(battery_end.max()),
    )
