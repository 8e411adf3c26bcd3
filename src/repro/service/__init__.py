"""Simulation-as-a-service: job server, client and result store.

Turns the ``repro`` CLI into a persistent service (the ROADMAP's
"millions of users" refactor).  The pieces, bottom-up:

* :mod:`repro.service.store` — the content-addressed :class:`ResultStore`
  behind ``.repro_cache/``: results keyed by the runner's spec hash, an
  index with sizes/mtimes/hit counts, LRU/size-capped eviction and a
  warm-start scan.  Used by the standalone runner and the server alike.
* :mod:`repro.service.protocol` — the JSON-lines wire format: request
  vocabulary (``submit``/``watch``/``status``/``metrics``/
  ``shutdown``) and the streamed event vocabulary (``ack``/``queued``/
  ``started``/``progress``/``timeline``/``result``/``final``/``done``),
  plus the per-job ``trace`` correlation id.
* :mod:`repro.service.queue` — the job table's queue: priority
  scheduling with per-client round-robin fairness.
* :mod:`repro.service.worker` — the worker process (``python -m
  repro.service.worker``) and :func:`~repro.service.worker.run_job`,
  the one per-job function: simulates one spec through the cached
  runner, streaming timeline windows as they are sampled.
* :mod:`repro.service.scheduler` — the socket-free job scheduler:
  single-flight deduplication on the run cache key, the queue, the
  long-lived worker slots and the one retry/timeout loop.  Driven by
  :func:`repro.exec.execute` in-process and by the server below.
* :mod:`repro.service.server` — the asyncio TCP front on the scheduler
  (``repro serve``): accepts bench/experiment/sweep/validate
  submissions from many concurrent clients, answers or coalesces them
  through the scheduler, and streams progress back.  Owns the metrics
  endpoint and the per-request tabulation step.
* :mod:`repro.service.http` — the optional ``--metrics-port`` scrape
  endpoint (``/metrics`` Prometheus exposition + ``/healthz``).
* :mod:`repro.service.client` — the blocking client library behind
  ``repro submit`` / ``repro watch`` / ``repro status``.
* :mod:`repro.service.top` — the live terminal dashboard behind
  ``repro top`` (polls ``status`` + ``metrics`` over the job socket).
"""
