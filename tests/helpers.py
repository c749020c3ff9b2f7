"""Helpers shared by the test modules."""

from bactipot import CtDataset


def plate(rows):
    """A ``CtDataset`` of ``(concentration, replicate, ct)`` rows, built from their columns."""
    rows = tuple(rows)
    concentration, replicate, ct = zip(*rows) if rows else ((), (), ())
    return CtDataset(concentration, replicate, ct)
