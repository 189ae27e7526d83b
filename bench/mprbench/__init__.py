"""mprbench: the repo's Rq / lambda-hat-q benchmark (see bench/README.md).

Self-contained: it drives the product only through ``repro``'s public
surface and reads only public ledgers and ``/proc``.
"""
