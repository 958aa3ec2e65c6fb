"""Generative ad retrieval: semantic-ID indexing, trie-constrained beam
decoding, staged preference alignment, and a nearline serving simulator."""

from .catalog import Ad, Catalog, load_catalog, render_description, save_catalog
from .decoder import RetrievalList, decode, decode_exhaustive
from .embed import EmbeddingTable, embed_hashed, load_embeddings
from .rqvae import RqVaeConfig, RqVaeModel, assign_sids, quantize, train
from .scorer import NeuralScorer, NgramScorer, ScorerContext
from .sid import SemanticId
from .trie import Trie, build as build_trie, contains, valid_children
from .vocab import Vocabulary

__all__ = [
    "Ad", "Catalog", "load_catalog", "render_description", "save_catalog",
    "RetrievalList", "decode", "decode_exhaustive",
    "EmbeddingTable", "embed_hashed", "load_embeddings",
    "RqVaeConfig", "RqVaeModel", "assign_sids", "quantize", "train",
    "NeuralScorer", "NgramScorer", "ScorerContext",
    "SemanticId",
    "Trie", "build_trie", "contains", "valid_children",
    "Vocabulary",
]

__version__ = "0.1.0"
