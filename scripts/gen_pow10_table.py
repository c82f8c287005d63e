#!/usr/bin/env python3
"""Generate src/serve/pow10_table.inc, the power-of-ten table of the
shortest-double writer (src/serve/shortest_double.cc).

Usage (from the repository root):

    python3 scripts/gen_pow10_table.py > src/serve/pow10_table.inc
    python3 scripts/gen_pow10_table.py --check src/serve/pow10_table.inc

The writer is Giulietti's Schubfach algorithm ("The Schubfach way to
render doubles", 2020). For every decimal exponent k in [-324, 292]
it needs g = floor(beta) + 1, where 10^-k = beta * 2^r for the one
integer r with 2^125 <= beta < 2^126, so that
(g - 1) * 2^r <= 10^-k < g * 2^r. Each g is stored as two 63-bit
halves, g = g1 * 2^63 + g0. All arithmetic here is exact integer
arithmetic.

--check regenerates the table and compares it with the given file:
exit 0 when they are equal, 1 (with the first differing line) when
they are not.
"""

import sys

K_MIN = -324
K_MAX = 292
MASK_63 = (1 << 63) - 1


def g_of(k):
    """g = floor(10^-k * 2^-r) + 1 with 2^125 <= 10^-k * 2^-r < 2^126."""
    if k <= 0:
        p = 10 ** -k
        r = p.bit_length() - 126
        beta = p >> r if r >= 0 else p << -r
    else:
        q = 10 ** k
        # 10^k is not a power of two, so 2^(bit_length - 1) < q < 2^L.
        beta = (1 << (125 + q.bit_length())) // q
    assert (1 << 125) <= beta < (1 << 126), k
    return beta + 1


def table():
    lines = [
        "// The power-of-ten table of the shortest-double writer: entry",
        "// k - (%d) holds g = floor(10^-k * 2^-r) + 1 for decimal" % K_MIN,
        "// exponent k in [%d, %d], as {g >> 63, g mod 2^63}." % (K_MIN,
                                                                  K_MAX),
        "// Generated by scripts/gen_pow10_table.py; do not edit.",
    ]
    for k in range(K_MIN, K_MAX + 1):
        g = g_of(k)
        lines.append("{0x%016xull, 0x%016xull}, // %d" %
                     (g >> 63, g & MASK_63, k))
    return "\n".join(lines) + "\n"


def main(argv):
    text = table()
    if len(argv) == 3 and argv[1] == "--check":
        with open(argv[2]) as f:
            have = f.read()
        if have == text:
            return 0
        for n, (want, got) in enumerate(
                zip(text.splitlines(), have.splitlines()), 1):
            if want != got:
                sys.stderr.write("%s:%d: want %r, have %r\n" %
                                 (argv[2], n, want, got))
                return 1
        sys.stderr.write("%s: length differs from the generated table\n"
                         % argv[2])
        return 1
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
