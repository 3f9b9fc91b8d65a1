"""Record the arrays an autodiff op or kernel produces while a forward pass runs."""

import contextlib

import numpy as np

from moldta import autodiff as ad

# The in-place softmax kernel that softmax_rows and attention share; its
# output is the attention probabilities [B, heads, L, L] of every layer.
SOFTMAX_KERNEL = "_softmax_in_place"


@contextlib.contextmanager
def op_outputs(name: str):
    """Yield a list that receives a copy of every output of `ad.<name>`
    computed inside the block: the data of an op's Tensor, or the array a
    kernel returns. Model code calls ops through the autodiff module, and
    ops call kernels through its globals, so replacing the module attribute
    sees every call."""
    op = getattr(ad, name)
    outputs = []

    def recording(*args, **kwargs):
        out = op(*args, **kwargs)
        outputs.append(np.array(out.data if isinstance(out, ad.Tensor) else out))
        return out

    setattr(ad, name, recording)
    try:
        yield outputs
    finally:
        setattr(ad, name, op)
