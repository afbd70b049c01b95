"""Word-embedding toolkit: training, storage, attention, and sense geometry.

The package is organised around a handful of small modules:

``linalg``
    Vectors, read-only numpy-backed matrices, and the plain-Python dot,
    softmax and linear maps the tests replay the attention stack with.
``embed_store``
    Loading, saving, and nearest-neighbour scans over embedding tables.
``attention``
    Simplified multi-head self-attention over token sequences.
``trainer``
    A masked-word predictor whose hidden layer yields static embeddings.
``sense_geometry``
    Centroids, contextual shift, homonym separation, and probing
    classifiers over embedding spaces.
``cli``
    The ``embgeom`` command-line front end.
"""

__version__ = "0.1.0"
