"""A plain Python partition generator, the tests' own oracle for enumeration
order: the library builds partitions from numpy arrays instead."""


def iter_partitions(n):
    """All partitions of n in reverse-lexicographic order, starting at (n,)."""
    if n == 0:
        yield ()
        return
    a = [n]
    while True:
        yield tuple(a)
        # rightmost part greater than 1
        j = len(a) - 1
        while j >= 0 and a[j] == 1:
            j -= 1
        if j < 0:
            return
        # collapse everything from j on and refill greedily with a[j]-1
        total = a[j] + (len(a) - j - 1)
        x = a[j] - 1
        del a[j:]
        k, r = divmod(total, x)
        a.extend([x] * k)
        if r:
            a.append(r)
