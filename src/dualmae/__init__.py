"""Masked auto-encoder pre-training for sentence embeddings.

The same sentence is polluted twice: moderately for a full-depth encoder
that squeezes it into one vector, and aggressively for a one-layer decoder
that must rebuild it from that vector. The decoder's enhanced mode draws a
per-position visibility matrix so every token of every sentence yields a
training signal from its own context.

Importing the package pins the BLAS to one thread before numpy loads: it
sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
to 1 unless they are already set. A weight gradient sums over the batch's
rows, and OpenBLAS splits a long sum differently at another thread count,
so training bytes hold at one fixed count. A variable the user sets wins,
and a process that imported numpy before ``dualmae`` keeps the count numpy
loaded with.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .config import TrainConfig, resolve_configs  # noqa: F401
from .model import DecoderConfig, EncoderConfig, ModelParams, init_params  # noqa: F401
from .text import Vocabulary, build_vocabulary, encode_tokens, load_corpus  # noqa: F401
