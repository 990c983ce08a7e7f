"""The text of ``samples.csv``: blocks of floats as ``"%.17g"`` writes them, computed with numpy.

:func:`format_block` returns the CSV lines of a (rows, d) block, each value
byte for byte as ``cli._fmt`` writes it, in a fraction of the time that
Python's ``"%.17g"`` takes value by value (its dtoa takes the slow bignum
route above 14 digits). ``cli`` imports this module only when it writes
``samples.csv``, so no other subcommand pays for compiling it.

``"%.17g"`` rounds to 17 significant digits d0.d1...d16 x 10**X, half to
even, and writes fixed notation for -4 <= X < 17, else exponent notation
(``d0.d1...e-05``); trailing zeros of the fraction go, and so does a point
with no digit after it. A value with 1e-5 <= |x| < 1e16 is scaled by
10**(16 - X), an exact double, to an exact pair p + err (Dekker's
TwoProduct), whose rounding gives the digits; every other value (0,
subnormals, |x| < 1e-5, |x| >= 1e16, inf, nan) goes through ``_fmt``.

Each value becomes a frame of 29 bytes, one column of a (29, values) array,
and the NUL bytes are dropped at the end:

    0       "-" for a negative value
    1..5    "0.000", its first 1 - X bytes, for X in [-4, -1]
    6..23   the digits, the point inserted after the first q1 of them
    24..27  "e-05" for X = -5, the one exponent form in [1e-5, 1e16)
    28      "," or, after a row's last value, "\\n"
"""

from __future__ import annotations

import numpy as np

from .cli import _fmt

__all__ = ["format_block"]

_POW10 = np.array([float(10**s) for s in range(23)])  # each exact: 5**22 < 2**53
_SLOT = np.arange(18, dtype=np.uint8)[:, None]
_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_PREFIX_FROM = np.array([1, 1, 2, 3, 4], dtype=np.uint8)[:, None]  # least -X that writes each byte
_EXPONENT = np.frombuffer(b"e-05", dtype=np.uint8)[:, None]
_FRAME = 29
# ASCII digits of 0..9999, the four bytes of each number read as one uint32
_DIGITS4 = np.ascontiguousarray(
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
).view(np.uint32).ravel()


def _split(a):
    """Veltkamp's split: hi + lo == a, each half of at most 26 bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """Dekker's TwoProduct: p = fl(a * b) and p + err == a * b exactly."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _decimal(a: np.ndarray):
    """(N, X) with a rounded to N * 10**(X - 16), N of 17 digits, for 1e-5 <= a < 1e16.

    N = int(p) + rint(err) for the exact pair p + err = a * 10**(16 - X):
    p >= 1e16 is an even integer, so this rounds half to even.
    """
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    p, err = _two_product(a, _POW10[s])
    # log10 can miss the decade by one next to a power of ten: fix it on the exact pair
    low = (p - 1e16) + err < 0
    high = (p - 1e17) + err >= 0
    if low.any() or high.any():
        s += low
        s -= high
        p, err = _two_product(a, _POW10[s])
    # N < 10**17: the double below each power of ten in range lies 16 or more
    # half-units of the 17th digit under it, so rounding never carries a decade
    return p.astype(np.int64) + np.rint(err).astype(np.int64), 16 - s


def _ascii_digits(N: np.ndarray) -> np.ndarray:
    """(19, n) uint8: row j + 1 holds digit j of N in ASCII; rows 0 and 18 are NUL."""
    n = N.size
    digits = np.empty((19, n), dtype=np.uint8)
    digits[0] = digits[18] = 0
    head = N // 10**8  # the first 9 digits
    tail = N - head * 10**8
    t = head // 10**4
    u = tail // 10**4
    d0 = t // 10**4
    digits[1] = d0 + ord("0")
    groups = np.stack([t - d0 * 10**4, head - t * 10**4, u, tail - u * 10**4])
    digits[2:18].reshape(4, 4, n)[...] = (
        _DIGITS4[groups].view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1)
    )
    return digits


def format_block(block: np.ndarray) -> bytes:
    """The CSV lines of the (rows, d) float64 block, each value as ``_fmt`` writes it."""
    v = block.ravel()
    ax = np.abs(v)
    fast = (ax >= 1e-5) & (ax < 1e16)
    N, X = _decimal(np.where(fast, ax, 1.0))
    digits = _ascii_digits(N)
    nz = ((digits[1:18] != ord("0")) * _SLOT[1:]).max(axis=0)  # up to the last nonzero digit
    exp_form = X < -4
    q1 = (np.maximum(X + 1, 0) + exp_form).astype(np.uint8)  # digits before the point
    digits[1:18] *= _SLOT[:17] < np.maximum(nz, q1)  # trailing zeros of the fraction: NUL
    point = ((nz > q1) & (q1 > 0)) * np.uint8(ord("."))  # NUL after "0." or with no fraction
    minus_x = (np.maximum(-X, 0) * ~exp_form).astype(np.uint8)  # -X for X in [-4, -1], else 0

    frame = np.empty((_FRAME, v.size), dtype=np.uint8)
    np.multiply(np.signbit(v), np.uint8(ord("-")), out=frame[0])
    np.multiply(_PREFIX_FROM <= minus_x, _PREFIX, out=frame[1:6])
    # slot j holds digit j before the point, the point at q1, digit j - 1 after it
    body = frame[6:24]
    np.multiply(_SLOT < q1, digits[1:], out=body)
    body += (_SLOT > q1) * digits[:-1]
    body += (_SLOT == q1) * point
    np.multiply(exp_form, _EXPONENT, out=frame[24:28])
    frame[28] = ord(",")
    frame[28, block.shape[1] - 1::block.shape[1]] = ord("\n")
    slow = ~fast
    if slow.any():
        text = np.array([_fmt(x) for x in v[slow]], dtype=f"S{_FRAME - 1}")
        frame[:-1, slow] = text.view(np.uint8).reshape(-1, _FRAME - 1).T
    return np.ascontiguousarray(frame.T).tobytes().translate(None, b"\0")
