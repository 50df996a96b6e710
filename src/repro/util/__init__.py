"""Shared infrastructure: bit-sets, label interning, statistics, timing."""

from repro.util.bitset import (
    BitSet,
    kernel_counters,
    kernel_delta,
    reset_kernel_counters,
)
from repro.util.compression import (
    available_codecs,
    decode_container,
    encode_container,
    get_codec,
    is_container,
    normalize_codec,
)
from repro.util.interner import LabelInterner
from repro.util.stats import DatabaseStats, describe_database
from repro.util.timing import Stopwatch

__all__ = [
    "BitSet",
    "kernel_counters",
    "kernel_delta",
    "reset_kernel_counters",
    "available_codecs",
    "decode_container",
    "encode_container",
    "get_codec",
    "is_container",
    "normalize_codec",
    "LabelInterner",
    "DatabaseStats",
    "describe_database",
    "Stopwatch",
]
