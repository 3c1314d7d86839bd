"""Host-speed benchmark of the Protean reproduction (see ``run.py``)."""
