"""A fixed job that measures how fast the host is at this moment.

    python3 perfbench/reference.py

It starts an interpreter, as every CLI case does, and then does a fixed
amount of the kinds of work the CLI spends its time in: integer and dict
operations, exact rational elimination, a sieve over a list and text
output.  It uses only the standard library and nothing of bicrit, so no
change to the program can change its time.  run.py times it just before
each case and reports case times as multiples of it, which cancels the
drift of a shared host's speed (see NOTES.md).
"""

from fractions import Fraction


def _ints_and_dicts(n: int = 40000) -> int:
    x, table = 12345, {}
    for i in range(n):
        x = (x * x + i) % 1000000007
        table[x & 4095] = table.get(x & 4095, 0) + 1
    return len(table)


def _rational_elimination(n: int = 7, reps: int = 30) -> Fraction:
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(n)]
            for i in range(n)]
    det = Fraction(1)
    for _ in range(reps):
        a = [row[:] for row in rows]
        det = Fraction(1)
        for k in range(n):
            det *= a[k][k]
            for i in range(k + 1, n):
                f = a[i][k] / a[k][k]
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def _sieve_and_text(n: int = 40000) -> int:
    spf = list(range(n + 1))
    i = 2
    while i * i <= n:
        if spf[i] == i:
            for j in range(i * i, n + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1
    return len("\r\n".join(f"{d},{spf[d]}" for d in range(2, n + 1)))


if __name__ == "__main__":
    _ints_and_dicts()
    _rational_elimination()
    _sieve_and_text()
