"""Privacy-preserving social graph search.

A trusted front-end plans s-expression queries over a social graph whose
inverted index is encrypted and sharded across two non-colluding server
clusters.  Servers evaluate boolean queries against the encrypted index,
compute on additively shared sort-keys, and rank results with garbled
circuits of Batcher's merge-exchange sort and odd-even merge.
"""

__version__ = "0.1.0"
