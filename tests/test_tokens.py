import numpy as np
import pytest

from motok.tokens import TokenError, TokenStream


class TestTokenStream:
    def test_rejects_out_of_range(self):
        with pytest.raises(TokenError):
            TokenStream(indices=np.array([8192]), vocab_size=8192)

    def test_rejects_empty(self):
        with pytest.raises(TokenError):
            TokenStream(indices=np.array([], dtype=np.int64), vocab_size=64)
