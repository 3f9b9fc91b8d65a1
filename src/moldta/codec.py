"""Character-level tokenization, vocabularies, truncation and padding.

Molecule strings are decorated as [REP] [BEGIN] c1 .. cn [END] and padded
to a fixed length; protein strings are bare characters padded to a fixed
length. Vocabularies are closed: characters unseen at build time are hard
errors at encode time, not an unknown token.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

MOLECULE = "molecule"
PROTEIN = "protein"

PAD = "[PAD]"
PAD_ID = 0  # every vocabulary starts with [PAD]; ids != PAD_ID are the real tokens
REP = "[REP]"
BEGIN = "[BEGIN]"
END = "[END]"
MASK = "[MASK]"

SPECIALS = {MOLECULE: (PAD, REP, BEGIN, END, MASK), PROTEIN: (PAD,)}


@dataclass(frozen=True)
class Vocab:
    """Bidirectional token<->id map; ids are dense and start at 0 ([PAD])."""

    kind: str
    tokens: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in SPECIALS:
            raise ValueError(f"unknown vocab kind {self.kind!r}")
        if tuple(self.tokens[: len(self.specials)]) != self.specials:
            raise ValueError(f"{self.kind} vocab must start with {self.specials}")
        index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocab")
        object.__setattr__(self, "index", index)

    def __len__(self):
        return len(self.tokens)

    @property
    def specials(self):
        return SPECIALS[self.kind]

    def id_of(self, token: str) -> int:
        return self.index[token]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for token in self.tokens:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path, kind: str) -> "Vocab":
        """Read a vocabulary of the given kind written by save()."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                tokens = tuple(line.rstrip("\n") for line in fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        if not tokens:
            raise DataError(f"empty vocab file {path}")
        try:
            return cls(kind=kind, tokens=tokens)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class CodecConfig:
    mol_max_len: int = 100
    prot_max_len: int = 1000

    def __post_init__(self):
        if self.mol_max_len <= 0 or self.prot_max_len <= 0:
            raise ValueError("sequence length limits must be strictly positive")


def build_vocab(corpus, kind: str) -> Vocab:
    """Collect the distinct characters of a corpus into a closed vocabulary.

    Ordering is deterministic: special tokens first, then observed characters
    sorted lexicographically.
    """
    seen = set()
    empty = True
    for line in corpus:
        empty = False
        seen.update(line)
    if empty:
        raise DataError("empty corpus")
    return Vocab(kind=kind, tokens=SPECIALS[kind] + tuple(sorted(seen)))


def _padded(ids: list, limit: int) -> np.ndarray:
    """Pad ids with PAD_ID to limit, as an int64 array [limit]."""
    return np.array(ids + [PAD_ID] * (limit - len(ids)), dtype=np.int64)


def _lookup(chars: str, vocab: Vocab) -> list[int]:
    ids = []
    for pos, ch in enumerate(chars):
        token_id = vocab.index.get(ch)
        if token_id is None:
            raise DataError(f"unknown character {ch!r} at position {pos}")
        ids.append(token_id)
    return ids


def _molecule_window(payload: list, limit: int, keep_rep: bool, rep, begin, end):
    """Decorate a payload as rep begin payload end, truncating past limit.

    A decorated sequence longer than limit loses its boundary tokens and keeps
    the middle window of the payload (head and tail truncated together);
    keep_rep retains rep in front and shrinks the window by one.
    """
    if len(payload) + 3 <= limit:
        return [rep, begin, *payload, end]
    head = [rep] if keep_rep else []
    window = min(len(payload), limit - len(head))
    start = (len(payload) - window) // 2
    return head + payload[start:start + window]


def encode_molecule(smiles: str, vocab: Vocab, cfg: CodecConfig,
                    keep_rep_when_truncated: bool) -> np.ndarray:
    """Encode a molecule string to the ids [mol_max_len] of [REP] [BEGIN]
    chars [END], padded with PAD_ID.

    Over-long molecules are truncated as _molecule_window describes, keeping
    [REP] at position 0 when keep_rep_when_truncated is set.
    """
    if vocab.kind != MOLECULE:
        raise ValueError("encode_molecule requires a molecule vocab")
    ids = _molecule_window(_lookup(smiles, vocab), cfg.mol_max_len, keep_rep_when_truncated,
                           vocab.id_of(REP), vocab.id_of(BEGIN), vocab.id_of(END))
    return _padded(ids, cfg.mol_max_len)


def encode_protein(fasta: str, vocab: Vocab, cfg: CodecConfig) -> np.ndarray:
    """Encode a protein string to the ids [prot_max_len] of its bare
    characters, padded with PAD_ID.

    Proteins longer than prot_max_len keep their first prot_max_len characters.
    """
    if vocab.kind != PROTEIN:
        raise ValueError("encode_protein requires a protein vocab")
    return _padded(_lookup(fasta, vocab)[:cfg.prot_max_len], cfg.prot_max_len)


def decode(ids, vocab: Vocab) -> str:
    """Inverse of encoding: strip special tokens and padding, join the rest."""
    n_special, n = len(vocab.specials), len(vocab)
    chars = []
    for token_id in map(int, np.asarray(ids).reshape(-1)):
        if not 0 <= token_id < n:
            raise DataError(f"token id {token_id} out of range [0, {n})")
        if token_id >= n_special:  # specials take the first ids
            chars.append(vocab.tokens[token_id])
    return "".join(chars)


def tokenize_molecule(smiles: str, cfg: CodecConfig) -> list[str]:
    """Token stream (strings, no padding) for one molecule, truncation included."""
    return _molecule_window(list(smiles), cfg.mol_max_len, False, REP, BEGIN, END)
