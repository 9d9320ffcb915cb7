"""Host-time benchmark of the ``repro`` simulator (see ``README.md``)."""
