"""Masked auto-encoder pre-training for sentence embeddings.

The same sentence is polluted twice: moderately for a full-depth encoder
that squeezes it into one vector, and aggressively for a one-layer decoder
that must rebuild it from that vector. The decoder's enhanced mode draws a
per-position visibility matrix so every token of every sentence yields a
training signal from its own context.
"""

__version__ = "0.1.0"

from .config import TrainConfig, resolve_configs  # noqa: F401
from .model import DecoderConfig, EncoderConfig, ModelParams, init_params  # noqa: F401
from .text import Vocabulary, build_vocabulary, encode_tokens, load_corpus  # noqa: F401
