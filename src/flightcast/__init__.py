"""Flight trajectory prediction toolkit.

ADS-B preprocessing, sliding-window sampling, prompt serialization for
chat-style models, baseline predictors, a deterministic mock inference
backend, and the full evaluation protocol. The API is the submodules:
``from flightcast.ingest import read_adsb_csv`` and so on.
"""

__version__ = "0.1.0"
