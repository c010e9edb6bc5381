"""levdyn's seeded streams, those of ``numpy.random.default_rng(entropy)``
bit for bit: its uniform draws, in pure Python, so a seeded start loads
neither ``numpy.random`` nor, through its ``secrets`` import, OpenSSL's
libcrypto; and the seed of the standard normals that ``_kernel.c`` draws
for ``micro``'s shocks.

The stream is NumPy's: the entropy (an int, or a list of ints) is split
into 32-bit words, least significant first, each int on its own; the
words are hashed into SeedSequence's pool of 4 words, words past the
fourth mixed into every pool word; ``generate_state(4, uint64)`` gives
the PCG64 seed and increment; and each uniform is low + (high - low) * u
from the 53-bit double u = (next64 >> 11) * 2**-53 of PCG64's 128-bit
LCG with the XSL-RR output, in C order.  Owning it means the seeded
starts and the micro shocks no longer depend on ``Generator.uniform``
or ``Generator.standard_normal``, whose streams NumPy does not promise
to keep across releases (NEP 19).
"""

from __future__ import annotations

import operator

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: SeedSequence's hash and mix constants and PCG64's LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy: int | list[int]) -> list[int]:
    """The 32-bit words of an int, least significant first (0 is one
    word), or those of each int of a list in turn."""
    if isinstance(entropy, (list, tuple)):
        return [word for entry in entropy for word in _words(entry)]
    n = operator.index(entropy)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pairs of SeedSequence's first n hashes from
    ``init``: the hash constant before and after each multiplication."""
    pairs = []
    h = init
    for _ in range(n):
        before, h = h, h * mult & _MASK32
        pairs.append((before, h))
    return pairs


#: the 16 hashes that pool an entropy of up to 4 words
_POOL_HASHES = _hash_constants(_INIT_A, _MULT_A, 16)

#: the 8 hashes of ``generate_state(4, uint64)``
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)


def _pool(words: list[int]) -> list[int]:
    """SeedSequence's pool of 4 words for the entropy ``words``: the
    first 4 words hashed (0 past the last word), then every pool word
    and every further word, in turn, hashed and mixed into each other
    pool word."""
    hashes = (_POOL_HASHES if len(words) <= 4
              else _hash_constants(_INIT_A, _MULT_A, 4 * len(words)))
    cells = []
    for i in range(4):
        x, m = hashes[i]
        value = ((words[i] if i < len(words) else 0) ^ x) * m & _MASK32
        cells.append(value ^ value >> 16)
    cells += words[4:]
    k = 4
    for src in range(len(cells)):
        for dst in range(4):
            if src != dst:
                x, m = hashes[k]
                k += 1
                value = (cells[src] ^ x) * m & _MASK32
                r = (_MIX_MULT_L * cells[dst] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
                cells[dst] = r ^ r >> 16
    return cells[:4]


def pcg64(entropy: int | list[int]) -> tuple[int, int]:
    """The 128-bit state and odd increment of the PCG64 that
    ``np.random.default_rng(entropy)`` seeds, before its first draw.
    ValueError for negative entropy, as NumPy raises it."""
    pool = _pool(_words(entropy))
    state32 = []
    for i, (x, m) in enumerate(_STATE_HASHES):
        value = (pool[i % 4] ^ x) * m & _MASK32
        state32.append(value ^ value >> 16)
    seed = [state32[2 * k] | state32[2 * k + 1] << 32 for k in range(4)]
    # PCG's seeding: the odd increment 2 i + 1, and the state 0 stepped,
    # plus the seed s, stepped again
    inc = (seed[2] << 64 | seed[3]) << 1 & _MASK128 | 1
    return ((inc + (seed[0] << 64 | seed[1])) * _PCG_MULT + inc) & _MASK128, inc


def uniform(
    entropy: int | list[int], low: float, high: float, rows: int, cols: int
) -> list[list[float]]:
    """``rows`` lists of ``cols`` values, those of
    ``np.random.default_rng(entropy).uniform(low, high, (rows, cols))``
    for finite low <= high.  ValueError for negative entropy, as NumPy
    raises it."""
    low = float(low)
    span = float(high) - low
    state, inc = pcg64(entropy)
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            state = (state * _PCG_MULT + inc) & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            rot = state >> 122
            x = (x >> rot | x << (64 - rot)) & _MASK64
            row.append(low + span * ((x >> 11) * 2.0**-53))
        out.append(row)
    return out
