"""The shared bit array ``A`` and its on-line fill-fraction tracker ``beta``.

VOS does not store each user's odd sketch separately; every user's ``k``
virtual bits live at hashed positions of one shared array of ``m`` bits.  The
estimator needs to know the probability that a virtual bit read back from the
array is *contaminated* (differs from the user's true odd-sketch bit), and the
paper models that probability with the global fraction of set bits ``beta``.
Maintaining ``beta`` incrementally is what keeps the per-edge update O(1).
"""

from __future__ import annotations

from repro.hashing import PackedBitArray


class SharedBitArray(PackedBitArray):
    """The shared array ``A`` with an O(1)-maintained fraction of set bits.

    A :class:`~repro.hashing.bitpack.PackedBitArray` of ``m`` bits, stored
    and accounted as exactly those ``m`` bits.  VOS writes it with
    :meth:`flip` / :meth:`xor_bulk`, recovers virtual sketches with
    :meth:`gather`, ships it through the packed-word methods, and reads the
    paper's ``beta`` from the running popcount.

    Parameters
    ----------
    size:
        The array length ``m``.  The paper assumes ``m >> 1000`` so that the
        fill fraction is essentially unchanged by a single update; the class
        works for any positive size but the estimator's accuracy degrades for
        tiny arrays.

    Examples
    --------
    >>> array = SharedBitArray(8)
    >>> array.flip(3)
    1
    >>> array.beta
    0.125
    """

    __slots__ = ()

    @property
    def beta(self) -> float:
        """The current fraction of set bits (the paper's ``beta^(t)``)."""
        return self.fraction_of_ones

    #: Kept only because ``perfbench/tracer.py`` wraps this name; it goes
    #: when that tracer entry does.
    epoch_dirty_words = PackedBitArray.dirty_words
