"""Token vocabulary with reserved UNK/PAD/SEP indices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"
SEP_TOKEN = "<sep>"

UNK_INDEX = 0
PAD_INDEX = 1
SEP_INDEX = 2

_SPECIALS = (UNK_TOKEN, PAD_TOKEN, SEP_TOKEN)


@dataclass(frozen=True)
class Vocab:
    """Dense token -> index map; indices 0-2 are reserved specials."""

    index: dict[str, int]

    @classmethod
    def build(cls, sequences: Iterable[Sequence[str]]) -> "Vocab":
        """Build from token sequences, input-order independent.

        Tokens are indexed in sorted order after the specials, so any
        permutation of the same sequences yields the same vocab; a token
        not in the vocab encodes as UNK.
        """
        tokens = {token for seq in sequences for token in seq}.difference(_SPECIALS)
        index = {token: i for i, token in enumerate(_SPECIALS)}
        for offset, token in enumerate(sorted(tokens)):
            index[token] = len(_SPECIALS) + offset
        return cls(index=index)

    def __len__(self) -> int:
        return len(self.index)

    def encode(self, tokens: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.index.get(t, UNK_INDEX) for t in tokens)

    def to_list(self) -> list[str]:
        """Tokens in index order (for serialization), the order both
        ``build`` and ``from_list`` insert them into ``index``."""
        return list(self.index)

    @classmethod
    def from_list(cls, tokens: list[str]) -> "Vocab":
        if tuple(tokens[:3]) != _SPECIALS:
            raise ValueError("vocab list must start with the reserved specials")
        index = {t: i for i, t in enumerate(tokens)}
        if len(index) != len(tokens) or not all(isinstance(t, str) for t in tokens):
            raise ValueError("vocab list must hold distinct strings")
        return cls(index=index)
