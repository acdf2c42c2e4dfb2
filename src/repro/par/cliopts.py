"""Shared CLI plumbing for supervised sweep execution.

Every sweep-shaped entry point (``scenario``, ``report``, ``perf``,
``chaos``) exposes the same three supervision flags; this module keeps
their definitions and the flag → :class:`~repro.par.executor.SweepPolicy`
translation in one place so the semantics cannot drift between
subcommands.  ``chaos`` layers its own ``--proc-faults`` handling on
top (see :mod:`repro.faults.chaos`).
"""

from __future__ import annotations

import argparse
from typing import Any, Optional, Tuple

from repro.faults.plan import RetryPolicy
from repro.par.executor import DEFAULT_SWEEP_RETRY, SweepPolicy


def add_supervision_args(parser: argparse.ArgumentParser) -> None:
    """Add ``--max-retries`` / ``--task-timeout`` / ``--resume``.

    Giving any of them opts the sweep into supervised execution
    (watchdog, retry/quarantine, checkpoint–resume); omitting all three
    keeps the sweep fail-fast: the first shard error aborts it.
    """
    parser.add_argument("--max-retries", type=int, default=None,
                        metavar="N",
                        help="supervised execution: retries before a "
                             "failing shard is quarantined (default "
                             f"{DEFAULT_SWEEP_RETRY.max_retries}); "
                             "giving this flag opts into supervision")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="supervised execution: per-shard wall-clock "
                             "budget enforced by the watchdog (default: "
                             "no deadline); giving this flag opts into "
                             "supervision")
    parser.add_argument("--resume", action="store_true",
                        help="resume a killed sweep: restore completed "
                             "shards from the result cache + sweep "
                             "journal and re-execute only the rest "
                             "(implies --cache)")


def supervision_from_args(ns: argparse.Namespace, cache: Optional[Any],
                          seed: int = 0, strict: bool = True
                          ) -> Tuple[Optional[SweepPolicy],
                                     Optional[str], bool]:
    """``(policy, journal_dir, resume)`` for :func:`repro.par.sweep_map`.

    Returns ``(None, None, False)`` when none of the supervision flags
    were given, which leaves :func:`~repro.par.sweep_map` fail-fast.
    ``strict=True`` (the default for result-bearing sweeps like figure
    grids) re-raises quarantined shards at the end; the chaos harness
    uses ``strict=False`` to report them instead.
    """
    supervised = (ns.resume or ns.max_retries is not None
                  or ns.task_timeout is not None)
    if not supervised:
        return None, None, False
    retry = DEFAULT_SWEEP_RETRY
    if ns.max_retries is not None:
        retry = RetryPolicy(timeout=retry.timeout, backoff=retry.backoff,
                            backoff_cap=retry.backoff_cap,
                            max_retries=ns.max_retries)
    policy = SweepPolicy(task_timeout=ns.task_timeout, retry=retry,
                         seed=seed, strict=strict)
    journal_dir = cache.directory if cache is not None else None
    return policy, journal_dir, bool(ns.resume)
