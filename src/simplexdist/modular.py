"""Exact linear algebra modulo word primes, and the way back to the rationals.

A rational matrix is reduced modulo a prime P below ``2^24``, so that every
product of two residues stays below ``2^48`` and a numpy ``int64`` entry can
take ``2^15`` such products before it must be reduced again.  Elimination
modulo P (``rref_mod``) then costs no more than a float elimination and
makes no rounding error: each pivot is one dense update of every row, it
reduces only the residues it reads, and it folds the rest into ``[0, P)``
once at the end (delayed reduction).  The nullspace of a column prefix is
brought to its reduced echelon form from whichever side of the rank is
smaller (``null_form``): its own basis when the corank is at most the rank,
else the prefix's row space with the columns reversed.  A row of that form
is 1 at its own pivot and 0 at the others, so it is kept on the prefix's
rank-many non-pivot columns alone, where it is 0 left of its pivot.  What the
elimination can get wrong is luck: P may divide a minor of the matrix, and
then the rank drops and the echelon form changes.  Such a prime shows
itself by a larger nullspace, or by pivots further to the right, than a
lucky prime gives (``ResidueImage.fold``), and is dropped.

The residues of a rational result modulo several primes are joined by the
Chinese remainder theorem (``crt``), and rational reconstruction
(``rational_reconstruction``; Wang, 1981) recovers each rational ``n/d``
from its residue modulo M once ``2*|n|*d < M``: one prime carries terms up
to 2,896.  Nothing here proves that a reconstruction is right: the caller
certifies its results exactly.  (Monagan, "Maximal quotient rational
reconstruction", ISSAC 2004; Dumas, Giorgi and Pernet, "Dense linear
algebra over word-size prime fields: the FFLAS and FFPACK packages", ACM
TOMS, 2008.)
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

# every prime the elimination uses lies below this, so (P - 1)^2 < 2^48
WORD_PRIME_BOUND = 2**24
# pivots between two folds of the trailing block of rref_mod: so many
# products of two residues below the bound still fit an int64
_FOLD_PERIOD = 2**63 // (WORD_PRIME_BOUND - 1) ** 2


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5 and 7, which decide every n below
    3,215,031,751 (Pomerance, Selfridge and Wagstaff, 1980)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in (2, 3, 5, 7):
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def word_primes() -> Iterator[int]:
    """The primes below ``2^24`` in descending order: ``16777213``,
    ``16777199``, ``16777183``, ..."""
    return (n for n in range(WORD_PRIME_BOUND - 1, 1, -1) if _is_prime(n))


def rref_mod(matrix: np.ndarray, prime: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form modulo ``prime`` (below ``2^24``), with
    leftmost pivots: returns the nonzero rows as ``int64`` residues in
    ``[0, prime)`` and the pivot column of each row.

    The rows of the form restricted to its first w columns are the echelon
    form of the matrix's first w columns, so one elimination serves every
    column prefix (see ``null_form``).

    Each pivot takes one dense update: with the pivot row scaled to 1 at
    its pivot and its own factor set to 0, every row subtracts ``factor *
    pivot row`` on the columns from the pivot on, the factors being the
    pivot column reduced into ``[0, prime)``.  Every row at or below the
    pivot is 0 modulo ``prime`` left of it, so the columns left of the pivot
    need no update.  Reduction is delayed: each step reduces only the column
    it searches and the new pivot row, and the form is folded into ``[0,
    prime)`` on return.  This is exact.  Each factor and each entry of the
    pivot row lies in ``[0, prime)``, so a pivot subtracts less than
    ``(prime - 1)^2`` from an entry, once, and an entry in ``[0, prime)``
    after k updates lies in ``[-k * (prime - 1)^2, prime)``; the searched
    column, left unreduced, takes one more subtraction of a factor below
    ``prime``.  The trailing block is folded every ``_FOLD_PERIOD = 2^63 //
    (2^24 - 1)^2 = 2^15`` pivots, so k is at most that period and ``k *
    (prime - 1)^2 + prime < 2^63``: no entry leaves the ``int64`` range.
    """
    if not 1 < prime < WORD_PRIME_BOUND:
        raise ValueError(f"the prime must lie below 2^24, not {prime}")
    a = np.array(matrix, dtype=np.int64) % prime
    rows, cols = a.shape
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        factors = a[:, col] % prime
        below = np.flatnonzero(factors[rank:])
        if below.size == 0:
            continue
        pivot = rank + int(below[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
            factors[[rank, pivot]] = factors[[pivot, rank]]
        a[rank, col:] = a[rank, col:] % prime * pow(int(factors[rank]), -1, prime) % prime
        factors[rank] = 0
        a[:, col:] -= np.multiply.outer(factors, a[rank, col:])
        pivots.append(col)
        if len(pivots) % _FOLD_PERIOD == 0:
            a[:, col + 1 :] %= prime
    return a[: len(pivots)] % prime, tuple(pivots)


def nullspace_mod(rref: np.ndarray, pivots: Sequence[int], width: int, prime: int) -> np.ndarray:
    """A basis, modulo ``prime``, of the nullspace of the first ``width``
    columns of a matrix whose reduced row echelon form is ``(rref,
    pivots)``: for each free column f below ``width``, the vector with 1 at
    f and minus the column f entry of each pivot row at that row's pivot.
    Row i of the form is zero left of its pivot, so the vector of f is zero
    right of f, and the pivot rows past ``width`` take no part."""
    rank = sum(1 for c in pivots if c < width)
    lead = list(pivots[:rank])
    free = sorted(set(range(width)) - set(lead))
    basis = np.zeros((len(free), width), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, lead] = (-rref[:rank, free]).T % prime
    return basis


def null_form(rref: np.ndarray, pivots: Sequence[int], width: int, prime: int) -> tuple[tuple[int, ...], list]:
    """The leftmost-pivot reduced echelon form modulo ``prime`` of the
    nullspace of the first ``width`` columns of a matrix whose reduced row
    echelon form is ``(rref, pivots)``, from an elimination of min(rank,
    corank) pivots: returns the form's pivots and its rows as int residues
    on the prefix's rank-many non-pivot columns.  A row is 1 at its own
    pivot and 0 at every other pivot, so nothing else is kept.

    With r pivots below ``width`` and ``r >= width - r`` the elimination is
    of the nullspace basis of ``nullspace_mod``, and its echelon form is
    the form.  Otherwise it is of the row space of the prefix, the r rows
    of the form cut to ``width`` columns, with the column order reversed:
    its nullspace, read back in the original order, is the prefix's
    nullspace.  In the reversed order the null vector of a free column f'
    is 1 at f', and its only other nonzero entries lie at pivots left of
    f'.  In the original order its first nonzero entry is therefore the 1
    at f = ``width - 1 - f'``, and it is 0 at every other such column.  So
    these vectors, sorted by f, are a reduced echelon basis of the
    nullspace with leftmost pivots, and that basis is unique.
    """
    rank = sum(1 for c in pivots if c < width)
    if rank >= width - rank:
        rows, null_pivots = rref_mod(nullspace_mod(rref, pivots, width, prime), prime)
    else:
        side, side_pivots = rref_mod(rref[:rank, :width][:, ::-1], prime)
        null_pivots = tuple(sorted(set(range(width)) - {width - 1 - c for c in side_pivots}))
        rows = nullspace_mod(side, side_pivots, width, prime)[::-1, ::-1]
    return null_pivots, rows[:, sorted(set(range(width)) - set(null_pivots))].tolist()


def crt(residues: Sequence[int], modulus: int, more: Sequence[int], prime: int) -> list[int]:
    """The residues modulo ``modulus * prime`` that are ``residues`` modulo
    ``modulus`` and ``more`` modulo ``prime``, for coprime moduli.  Equal
    residues, such as the zeros of a null-form row left of its pivot, join
    to themselves without arithmetic."""
    inverse = pow(modulus, -1, prime)
    return [x if x == y else x + modulus * ((y - x) * inverse % prime) for x, y in zip(residues, more)]


def rational_reconstruction(x: int, modulus: int) -> tuple[int, int] | None:
    """The rational ``n/d`` with ``n = d*x`` modulo ``modulus``, ``|n| <= B``
    and ``0 < d <= B`` for ``B = isqrt(modulus // 2)``, as the pair ``(n, d)``
    in lowest terms, or None if there is none.  As ``2*B^2 < modulus``, there
    is at most one (Wang's algorithm: the extended Euclidean remainders of
    ``(modulus, x)`` are ``n = d*x`` modulo ``modulus``, and the first one at
    most B is the candidate)."""
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, x % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


class ResidueImage:
    """Echelon forms of the nullspace bases of several matrices, by key,
    modulo ``modulus``, the product of ``primes``: ``forms[key]`` is the
    pivots and the rows, as lists of int residues on the non-pivot columns
    (see ``null_form``)."""

    __slots__ = ("modulus", "primes", "forms")

    def __init__(self, modulus: int, primes: tuple[int, ...], forms: dict):
        self.modulus = modulus
        self.primes = primes
        self.forms = forms

    def pattern(self, key) -> tuple:
        pivots, _ = self.forms[key]
        return len(pivots), pivots

    def fold(self, prime: int, forms: dict) -> ResidueImage:
        """Join the forms of the same nullspaces modulo a new prime.

        A prime is unlucky when it divides a minor that decides a rank or a
        pivot.  Its nullspace is then larger than over the rationals, or of
        the same dimension but with pivots further right: the reduction of
        the rational nullspace lies in it, and the rational basis vector of
        pivot c reduces to a vector whose leading entry is at c or right of
        it.  So, key by key, the image with fewer rows, or else with the
        lexicographically least pivots, is the luckier.  The image that is
        luckier on some key and no worse on any replaces the other; equal
        images, whose rows lie on the same columns, are joined by CRT row by
        row; any other new image is dropped.
        """
        new = ResidueImage(prime, (prime,), forms)
        ours, theirs = ([f(key) for key in self.forms] for f in (self.pattern, new.pattern))
        if theirs == ours:
            joined = {
                key: (pivots, [crt(x, self.modulus, y, prime) for x, y in zip(rows, forms[key][1])])
                for key, (pivots, rows) in self.forms.items()
            }
            return ResidueImage(self.modulus * prime, self.primes + (prime,), joined)
        if all(t <= o for t, o in zip(theirs, ours)):
            return new
        return self
