"""Record the arrays an autodiff op produces while a forward pass runs."""

import contextlib

from moldta import autodiff as ad


@contextlib.contextmanager
def op_outputs(name: str):
    """Yield a list that receives a copy of every output of `ad.<name>`
    computed inside the block. Model code calls ops through the autodiff
    module, so replacing the module attribute sees every call."""
    op = getattr(ad, name)
    outputs = []

    def recording(*args, **kwargs):
        out = op(*args, **kwargs)
        outputs.append(out.data.copy())
        return out

    setattr(ad, name, recording)
    try:
        yield outputs
    finally:
        setattr(ad, name, op)
