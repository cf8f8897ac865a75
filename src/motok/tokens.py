"""Token streams: the token indices of fixed-length motion segments.

A stream is what ``motok tokenize`` writes to a ``.mtok`` file and
``motok detokenize`` reads back; the indices come from the LFQ tokenizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lfq import LfqCodebook


class TokenError(ValueError):
    """Raised for out-of-range tokens or malformed streams."""


@dataclass(frozen=True)
class TokenStream:
    """Token indices, one per ``vae.SEGMENT_LEN``-frame motion segment."""

    indices: np.ndarray
    vocab_size: int

    def __post_init__(self):
        codebook = LfqCodebook.from_vocab_size(self.vocab_size)
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1).copy()
        if idx.size < 1:
            raise TokenError("token stream is empty")
        if np.any(idx < 0) or np.any(idx >= codebook.vocab_size):
            raise TokenError("token index out of range")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "vocab_size", codebook.vocab_size)

    @property
    def num_tokens(self) -> int:
        return self.indices.size
