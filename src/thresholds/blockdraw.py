"""Small random codes of a sweep drawn a seed block at a time, each bit for
bit as numpy draws it from the trial's own stream.

A random code's size is `Generator.binomial(N, p)`, which for 0 < p <= 1/2
and p N <= 30 samples by inversion: U from the stream's next output, then X
the first index with U - px_0 - ... - px_{X-1} <= px_X, the px_X the
Binomial(N, p) probabilities in numpy's recurrence, and a fresh U from the
next output when no X up to the bound N p + 10 sqrt(N p (1 - p) + 1) is
found.  So such a code has at most 85 words, and `Generator.choice` draws
them by Floyd's algorithm (Bentley and Floyd, CACM 1987): step j, from N - k
to N - 1, takes v uniform in [0, j] and keeps v, or j when v is chosen
already.  v is Lemire's multiply-and-reject (ACM TOMACS 2019) on the
stream's next 32-bit draw u: v = (u (j + 1)) >> 32, the draw rejected while
(u (j + 1)) mod 2^32 < (2^32 - 1 - j) mod (j + 1).  The 32-bit draws are
the low, then the high halves of the 64-bit outputs.

PCG64 is a 128-bit LCG, state <- M state + inc, whose output t is the
XSL-RR of A_{t+1} s + B_{t+1} inc, A_t = M^t and B_t = M^0 + ... + M^{t-1}
mod 2^128 (Brown, "Random number generation with arbitrary strides", 1994).
So every output any trial reads is found directly from its (s, inc), and a
block of trials is drawn in a few numpy passes over 64-bit limbs, with
64 x 64 -> 128-bit products formed from 32-bit halves.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_M = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier
_U32 = np.uint64(0xFFFFFFFF)
_CHUNK = 2**12  # elements per (trials, columns) temporary, 32 KiB of int64
_INVERSION_MAX = 30.0  # numpy's largest N p sampled by inversion


def _mulhi(x, y):
    """The high 64 bits of the 128-bit products x y of uint64 arrays."""
    x0, x1, y0, y1 = x & _U32, x >> np.uint64(32), y & _U32, y >> np.uint64(32)
    p01, p10 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> np.uint64(32)) + (p01 & _U32) + (p10 & _U32)
    return x1 * y1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def _affine(x_hi, x_lo, a_hi, a_lo, b_hi, b_lo):
    """a x + b mod 2^128, each number a pair of uint64 limbs, high first."""
    lo = a_lo * x_lo
    hi = _mulhi(a_lo, x_lo) + a_lo * x_hi + a_hi * x_lo
    out = lo + b_lo
    return hi + b_hi + (out < lo), out


def seeded(a, b, c, d) -> np.ndarray:
    """PCG64's state and increment, shape (4, T) uint64 limbs (state high,
    state low, inc high, inc low), from the initial state a:b and the stream
    c:d: inc = 2 (c:d) + 1, and state = (inc + a:b) M + inc."""
    one = np.uint64(1)
    inc_hi, inc_lo = c << one | d >> np.uint64(63), d << one | one
    lo = inc_lo + b
    hi = inc_hi + a + (lo < b)
    hi, lo = _affine(hi, lo, np.uint64(_M >> 64), np.uint64(_M & 2**64 - 1), inc_hi, inc_lo)
    return np.stack([hi, lo, inc_hi, inc_lo])


@functools.cache
def _jumps(size: int) -> np.ndarray:
    """(A_t, B_t) for t < size as limbs, shape (4, size): A high, A low, B
    high, B low, with A_t = M^t and B_t = M^0 + ... + M^{t-1} mod 2^128."""
    rows, a, b = [], 1, 0
    for _ in range(size):
        rows.append((a >> 64, a & 2**64 - 1, b >> 64, b & 2**64 - 1))
        a, b = a * _M % 2**128, (b * _M + 1) % 2**128
    out = np.array(rows, dtype=np.uint64).T
    out.setflags(write=False)
    return out


def _outputs(states: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Raw output index[i, w] of trial i's stream, for the (4, T) limbs of
    the trials' states and a (T, W) array of output numbers."""
    size = 16
    while size <= index.max() + 1:
        size *= 2
    jump = _jumps(size)[:, index + 1]
    s_hi, s_lo, i_hi, i_lo = (col[:, None] for col in states)
    hi, lo = _affine(s_hi, s_lo, jump[0], jump[1], np.uint64(0), np.uint64(0))
    b_hi, b_lo = _affine(i_hi, i_lo, jump[2], jump[3], hi, lo)
    x = b_hi ^ b_lo
    rot = b_hi >> np.uint64(58)
    return x >> rot | x << (-rot & np.uint64(63))


def by_inversion(N: int, p: float) -> bool:
    """Whether `Generator.binomial(N, p)` samples by inversion, numpy's own
    switch: 0 < p <= 1/2 and p N <= 30 (p above 1/2 draws N - X for 1 - p,
    and a larger N p by BTPE)."""
    return 0.0 < p <= 0.5 and p * N <= _INVERSION_MAX


def _inversion_table(N: int, p: float) -> np.ndarray:
    """px_0, ..., px_bound of numpy's Binomial(N, p) inversion, in its order
    of float operations."""
    q = 1.0 - p
    mean = N * p
    bound = int(min(N, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = [math.exp(N * math.log(q))]
    for X in range(1, bound + 1):
        px.append((N - X + 1) * p * px[-1] / (X * q))
    return np.asarray(px)


def _invert(px: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's inversion of each U against the table px: the first X with
    U - px_0 - ... - px_{X-1} <= px_X, the subtractions in numpy's order,
    and whether some X up to the bound was found."""
    X = np.empty(U.size, dtype=np.int64)
    found = np.empty(U.size, dtype=bool)
    rows = max(1, _CHUNK // px.size)
    for start in range(0, U.size, rows):
        steps = np.empty((min(rows, U.size - start), px.size))
        steps[:, 0] = U[start:start + rows]
        steps[:, 1:] = px[:-1]
        hit = np.subtract.accumulate(steps, axis=1) <= px
        X[start:start + rows] = hit.argmax(axis=1)
        found[start:start + rows] = hit.any(axis=1)
    return X, found


def _floyd(N: int, k: np.ndarray, used: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The sorted words of `Generator.choice(N, k, replace=False,
    shuffle=False)` for trials whose streams have read `used` outputs, with
    0 < k < N (so every step draws), padded past k with N; shape (T, max k)."""
    K = int(k.max())
    t = np.arange(K)
    valid = t < k[:, None]
    j = (N - k)[:, None] + t
    span = (j + 1).astype(np.uint64)
    threshold = ((2**32 - 1 - j) % (j + 1)).astype(np.uint64)
    shift = np.zeros(j.shape, dtype=np.int64)  # rejected draws before each step
    raw = None
    while True:
        draw = t + shift
        if raw is None or draw.max() // 2 >= raw.shape[1]:
            raw = _outputs(states, used[:, None] + np.arange(draw.max() // 2 + 1))
        u = np.take_along_axis(raw, draw // 2, axis=1) >> (32 * (draw & 1)).astype(np.uint64)
        m = (u & _U32) * span
        rejected = valid & ((m & _U32) < threshold)
        if not rejected.any():
            break
        # a rejection shifts every later draw of its trial by one
        rows = rejected.any(axis=1)
        shift[rows] += t >= rejected[rows].argmax(axis=1)[:, None]
    v = np.where(valid, (m >> np.uint64(32)).astype(np.int64), -1 - t)
    # step t keeps j when v is an earlier step's v (chosen then, or before)
    # or the j of an earlier step that kept its j
    order = np.argsort(v, axis=1, kind="stable")
    seen = np.take_along_axis(v, order, axis=1)
    repeat = np.zeros(v.shape, dtype=bool)
    np.put_along_axis(repeat, order[:, 1:], seen[:, 1:] == seen[:, :-1], axis=1)
    kept = repeat.copy()
    step = v - (N - k)[:, None]  # the step whose j equals v
    rows, cols = np.nonzero(valid & (step >= 0) & (step < t))
    at = step[rows, cols]
    while rows.size:
        new = repeat[rows, cols] | kept[rows, at]
        if (new == kept[rows, cols]).all():
            break
        kept[rows, cols] = new
    words = np.where(valid, np.where(kept, j, v), N)
    words.sort(axis=1)
    return words


def draw_codes(N: int, ps: list[float], which: np.ndarray, states: np.ndarray,
               lo: int, hi: int) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Sizes and words of random codes in GF(q)^n, N = q^n: trial i of the
    block includes each vector with probability ps[which[i]], and its stream
    is PCG64 at the limbs states[:, i] (`seeded`), no 32-bit half buffered.

    Each size is what `simulate.draw_rc_size` draws from that stream, and a
    trial whose size k lies in [lo, hi] gets the sorted int64 array that
    `simulate.draw_rc_words` then draws; the others get None and no word is
    drawn.  Every p must pass `by_inversion(N, p)`.  One output pass gives
    every trial its U, each rate's trials are inverted together, and the
    words are drawn in chunks of trials of similar size, so no temporary
    holds more than about `_CHUNK` elements.
    """
    which = np.asarray(which)
    tables = [_inversion_table(N, p) for p in ps]
    sizes = np.zeros(which.size, dtype=np.int64)
    used = np.zeros(which.size, dtype=np.int64)  # 64-bit outputs read for U
    todo = np.arange(which.size)
    while todo.size:  # a trial whose U passes every px_X draws U again
        raw = _outputs(states[:, todo], used[todo, None])[:, 0]
        U = (raw >> np.uint64(11)) * 2.0**-53
        used[todo] += 1
        found = np.zeros(todo.size, dtype=bool)
        for g, px in enumerate(tables):
            at = np.flatnonzero(which[todo] == g)
            sizes[todo[at]], found[at] = _invert(px, U[at])
        todo = todo[~found]
    words: list[np.ndarray | None] = [None] * which.size
    want = np.flatnonzero((sizes >= lo) & (sizes <= hi))
    for i in want[(sizes[want] == 0) | (sizes[want] == N)].tolist():
        words[i] = np.arange(sizes[i], dtype=np.int64)  # nothing, or everything
    want = want[(sizes[want] > 0) & (sizes[want] < N)]
    want = want[np.argsort(sizes[want], kind="stable")]
    start = 0
    while start < want.size:
        ks = sizes[want[start:]]
        fits = (np.arange(1, ks.size + 1) * ks <= _CHUNK).sum()
        rows = want[start:start + max(1, int(fits))]
        block = _floyd(N, sizes[rows], used[rows], states[:, rows])
        for j, (i, k) in enumerate(zip(rows.tolist(), sizes[rows].tolist())):
            words[i] = block[j, :k]
        start += rows.size
    return sizes, words
