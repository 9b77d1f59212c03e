"""Command-line interface: ``repro-idling``.

Subcommands
-----------
``run <experiment> [--out DIR] [--vehicles N] [--fast] [--jobs N] [--no-cache] [--ledger PATH]``
    Run one paper experiment (fig1..fig6, table1, appc) and print its
    ASCII report; ``--out`` also writes the CSV series.  ``--jobs``
    fans the work out over worker processes (results are bit-identical
    for any worker count); ``--no-cache`` bypasses the on-disk result
    cache; ``--ledger`` writes a JSONL event log (task lifecycle,
    retries, pool crashes, cache hits) and prints its summary next to
    the timings.
``list``
    List available experiments.
``all [--out DIR] [--fast] [--jobs N] [--no-cache] [--ledger PATH]``
    Run every experiment in sequence (one ledger spans the batch).
``cache [clear|info|doctor]``
    Inspect, empty, or health-check the on-disk result cache
    (``~/.cache/repro-idling`` unless ``REPRO_CACHE_DIR`` is set);
    ``doctor`` scans for orphaned temp files and invalid entries.
``advise --stops <csv-or-values> --break-even B``
    The end-user feature: given observed stop lengths, print which
    strategy the proposed algorithm selects and its guarantee.
``breakeven [--displacement D] [--fuel-price P] [--conventional] ...``
    Derive the break-even interval from the Appendix C cost model for a
    custom vehicle.
``simulate --area NAME [--days N] [--conventional] [--seed S]``
    Synthesize one vehicle in an area, learn the policy from its first
    half, and report the deployed second half's fuel/money outcome
    against the clairvoyant optimum and the factory default.
``risk --stops <csv-or-values> [--break-even B]``
    Mean/std weekly-cost table per strategy with Pareto-efficiency flags.
``dataset <dir> [--seed S] [--vehicles N]``
    Generate and persist the synthetic evaluation dataset.
``data doctor <path> [--policy P] [--report FILE] [--ledger FILE]``
    Diagnose a data file or dataset directory: run every ingestion
    check, print the validation report, optionally write it as JSON
    and/or divert bad records to quarantine sidecars.  Exits non-zero
    when error-grade issues remain unhandled.
``serve <events> --state-dir DIR [--policy P] [--ledger FILE] ...``
    The crash-safe online advisor: stream JSONL stop events (a file or
    ``-`` for stdin) through durable per-vehicle sessions with drift
    detection and graceful degradation; prints the fleet health
    snapshot (``--health FILE`` also writes it as JSON).  Restarting
    with the same ``--state-dir`` recovers every session bit-identically.
    ``--shards N`` spreads vehicles over N worker processes and
    ``--listen ADDR`` also serves JSONL and ``GET /health`` on a socket.
``ledger <path>``
    Summarize a JSONL run ledger (tolerates a truncated final line —
    the crash-tolerant reader) including advisor state transitions.

``run``/``all`` additionally accept ``--dataset DIR`` (evaluate an
on-disk fleet dataset instead of synthesizing — fig3/fig4/table1) and
``--policy {strict,repair,quarantine}`` governing its ingestion;
``advise``/``risk`` accept the same ``--policy`` for their stop input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .constants import B_SSV
from .core import ConstrainedSkiRentalSolver, StopStatistics
from .engine import ResultCache, RunLedger, get_default_jobs, use_ledger
from .errors import ReproError
from .experiments import EXPERIMENTS, cached_run, format_table
from .validation import Policy

_POLICY_CHOICES = tuple(member.value for member in Policy)

__all__ = ["main", "build_parser"]

#: Reduced-size parameters for ``--fast`` runs (previews / smoke tests).
_FAST_PARAMS = {
    "fig1": {"mu_points": 31, "q_points": 31},
    "fig2": {"points": 40},
    "fig3": {"vehicles_per_area": 40},
    "fig4": {"vehicles_per_area": 40},
    "fig5": {"vehicles_per_point": 10, "stops_per_vehicle": 40, "grid_size": 128},
    "fig6": {"vehicles_per_point": 10, "stops_per_vehicle": 40, "grid_size": 128},
    "table1": {"vehicles_per_area": 60},
    "appc": {},
    "improved": {"mu_points": 31, "q_points": 31},
    "holdout": {"vehicles_per_area": 40},
    "seeds": {"seeds": (1, 2, 3), "vehicles_per_area": 40},
}


def _add_session_config_flags(parser: argparse.ArgumentParser) -> None:
    """The session-config flags ``serve`` and ``promote`` share.

    A promoted standby must run the exact configuration its primary ran
    — learning-augmented flags included — to continue bit-identically;
    :func:`_session_config` builds it.
    """
    parser.add_argument(
        "--break-even",
        type=float,
        default=B_SSV,
        help=f"break-even interval B in seconds (default: {B_SSV:g} for SSV)",
    )
    parser.add_argument(
        "--safe-strategy",
        choices=("nrand", "det"),
        default="nrand",
        help="distribution-free fallback in the SAFE state: nrand "
        "(expected CR e/(e-1)) or det (worst-case CR 2)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=64,
        help="compact the WAL into a snapshot every N applied events",
    )
    parser.add_argument("--seed", type=int, default=None, help="RNG base seed")
    parser.add_argument(
        "--predictor",
        default="none",
        metavar="SPEC",
        help="learning-augmented advising: stop-length predictor feeding "
        "the PSK interpolation — none (default), contextual (hour-of-day "
        "running means learned from the stream itself), "
        "contextual:MIN:DECAY, or constant:VALUE (adversarial testing); "
        "see docs/serving.md 'Learning-augmented advising'",
    )
    parser.add_argument(
        "--trust",
        type=float,
        default=None,
        metavar="LAMBDA",
        help="pin the PSK trust weight lambda in (0, 1] (default: learn "
        "it online from the predictor's wrong-side rate; the per-stop "
        "robustness bound is 1 + 1/lambda either way)",
    )
    parser.add_argument(
        "--cvar-alpha",
        type=float,
        default=None,
        metavar="ALPHA",
        help="tail-risk control: constrain the per-stop CVaR over the "
        "worst ALPHA-fraction of threshold draws to --cvar-cap times "
        "the offline optimum (governs stops with no usable prediction)",
    )
    parser.add_argument(
        "--cvar-cap",
        type=float,
        default=2.0,
        metavar="TAU",
        help="tail-cost cap for --cvar-alpha, as a multiple of the "
        "offline optimum (default 2.0 — DET's unconditional worst case)",
    )


def _session_config(args):
    """The session config :func:`_add_session_config_flags` describes:
    an ``AugmentedSessionConfig`` when any learning-augmented flag is
    set, a plain ``SessionConfig`` otherwise."""
    from .service.session import SessionConfig

    _warn_break_even(args.break_even)
    kwargs = dict(
        break_even=args.break_even,
        safe_strategy=args.safe_strategy,
        snapshot_every=args.snapshot_every,
    )
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.predictor == "none" and args.trust is None and args.cvar_alpha is None:
        return SessionConfig(**kwargs)
    from .service.augmented import AugmentedSessionConfig

    return AugmentedSessionConfig(
        **kwargs,
        predictor=args.predictor,
        trust=args.trust,
        cvar_alpha=args.cvar_alpha,
        cvar_cap=args.cvar_cap,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-idling",
        description=(
            "Reproduction of 'A Cost Efficient Online Algorithm for "
            "Automotive Idling Reduction' (DAC 2014)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run one experiment")
    run_cmd.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_cmd.add_argument("--out", type=Path, default=None, help="CSV output directory")
    run_cmd.add_argument(
        "--vehicles", type=int, default=None, help="vehicles per area override"
    )
    run_cmd.add_argument(
        "--fast", action="store_true", help="reduced sizes for a quick preview"
    )
    run_cmd.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS or 1); results are "
        "bit-identical for any value",
    )
    run_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute even if a cached result exists",
    )
    run_cmd.add_argument(
        "--ledger",
        type=Path,
        default=None,
        help="write a JSONL run ledger (task/retry/pool-crash/cache events) "
        "to this path and print its summary with the report",
    )
    run_cmd.add_argument(
        "--dataset",
        type=Path,
        default=None,
        help="evaluate an on-disk fleet dataset (fig3/fig4/table1) instead "
        "of synthesizing one",
    )
    run_cmd.add_argument(
        "--policy",
        choices=_POLICY_CHOICES,
        default="strict",
        help="validation policy for --dataset ingestion (default: strict)",
    )

    sub.add_parser("list", help="list experiments")

    all_cmd = sub.add_parser("all", help="run every experiment")
    all_cmd.add_argument("--out", type=Path, default=None)
    all_cmd.add_argument("--fast", action="store_true")
    all_cmd.add_argument("--jobs", type=int, default=None)
    all_cmd.add_argument("--no-cache", action="store_true")
    all_cmd.add_argument("--ledger", type=Path, default=None)
    all_cmd.add_argument("--dataset", type=Path, default=None)
    all_cmd.add_argument("--policy", choices=_POLICY_CHOICES, default="strict")

    cache_cmd = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_cmd.add_argument(
        "action",
        nargs="?",
        choices=("info", "clear", "doctor"),
        default="info",
        help="'info' (default) prints location/entry count; 'clear' empties "
        "it; 'doctor' scans for orphaned temp files and invalid entries",
    )
    cache_cmd.add_argument(
        "--fault-claims",
        type=Path,
        default=None,
        help="with 'doctor': also sweep fault-injection claim files whose "
        "owning process is dead (never run while a chaos harness is "
        "mid-cycle — live kill claims are its once-only bookkeeping)",
    )
    cache_cmd.add_argument(
        "--state-dir",
        type=Path,
        default=None,
        help="with 'doctor': also sweep a service state directory for "
        "orphaned .tmp files from dead writers and delta logs that extend "
        "no base snapshot",
    )

    advise = sub.add_parser(
        "advise", help="select the optimal strategy for observed stops"
    )
    advise.add_argument(
        "--stops",
        required=True,
        help="comma-separated stop lengths in seconds, or a path to a "
        "one-column file of stop lengths",
    )
    advise.add_argument(
        "--break-even",
        type=float,
        default=B_SSV,
        help=f"break-even interval B in seconds (default: {B_SSV:g} for SSV)",
    )
    advise.add_argument(
        "--improved",
        action="store_true",
        help="also consider the b-Rand family (the reproduction's "
        "correction to the paper's four-vertex optimum)",
    )
    advise.add_argument(
        "--trust",
        type=float,
        default=None,
        metavar="LAMBDA",
        help="also report the prediction-augmented (PSK) thresholds and "
        "consistency/robustness bounds at trust weight lambda in (0, 1]",
    )
    advise.add_argument(
        "--cvar-alpha",
        type=float,
        default=None,
        metavar="ALPHA",
        help="also report the CVaR-ALPHA tail-risk-constrained strategy "
        "(N-Rand/DET mixture honoring --cvar-cap)",
    )
    advise.add_argument(
        "--cvar-cap",
        type=float,
        default=2.0,
        metavar="TAU",
        help="tail-cost cap for --cvar-alpha, as a multiple of the "
        "offline optimum (default 2.0)",
    )
    advise.add_argument(
        "--policy",
        choices=_POLICY_CHOICES,
        default="strict",
        help="validation policy for the stop input (default: strict)",
    )

    breakeven = sub.add_parser(
        "breakeven", help="derive B from the Appendix C cost model"
    )
    breakeven.add_argument(
        "--displacement", type=float, default=2.5, help="engine displacement (L)"
    )
    breakeven.add_argument(
        "--fuel-price", type=float, default=3.5, help="fuel price ($/gallon)"
    )
    breakeven.add_argument(
        "--conventional",
        action="store_true",
        help="conventional vehicle (vulnerable starter) instead of SSV",
    )
    breakeven.add_argument(
        "--measured-idle-cc-per-s",
        type=float,
        default=None,
        help="bench-measured idle fuel rate; overrides the Eq. 45 regression",
    )

    simulate = sub.add_parser(
        "simulate", help="learn and deploy a policy on one synthetic vehicle"
    )
    simulate.add_argument("--area", default="chicago", help="area name")
    simulate.add_argument("--days", type=int, default=14, help="total days to synthesize")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--conventional", action="store_true", help="use the B=47 cost model"
    )

    risk = sub.add_parser(
        "risk", help="mean/std cost report for observed stops"
    )
    risk.add_argument(
        "--stops", required=True,
        help="comma-separated stop lengths or a one-column file",
    )
    risk.add_argument("--break-even", type=float, default=B_SSV)
    risk.add_argument("--policy", choices=_POLICY_CHOICES, default="strict")

    data_cmd = sub.add_parser(
        "data", help="diagnose and repair data files (validation layer)"
    )
    data_cmd.add_argument(
        "action", choices=("doctor",), help="'doctor' runs every ingestion check"
    )
    data_cmd.add_argument(
        "path",
        type=Path,
        help="a fleet dataset directory, stop CSV, trace JSON, or any CSV "
        "(structural lint)",
    )
    data_cmd.add_argument(
        "--policy",
        choices=_POLICY_CHOICES,
        default="repair",
        help="strict: stop at the first error; repair: drop bad records; "
        "quarantine: divert them to sidecar files (default: repair)",
    )
    data_cmd.add_argument(
        "--report",
        type=Path,
        default=None,
        help="also write the full validation report as JSON to this path",
    )
    data_cmd.add_argument(
        "--ledger",
        type=Path,
        default=None,
        help="write a JSONL run ledger including the validation events",
    )

    dataset = sub.add_parser(
        "dataset", help="generate and persist the synthetic evaluation dataset"
    )
    dataset.add_argument("out", type=Path, help="dataset directory to create")
    dataset.add_argument("--seed", type=int, default=None, help="dataset seed")
    dataset.add_argument(
        "--vehicles", type=int, default=None,
        help="vehicles per area (default: the paper's 217/312/653)",
    )

    serve = sub.add_parser(
        "serve", help="crash-safe online advisor over a stop-event stream"
    )
    serve.add_argument(
        "events",
        help="JSONL event stream: one {id, vehicle, t, stop} object per "
        "line; '-' reads stdin",
    )
    serve.add_argument(
        "--state-dir",
        type=Path,
        required=True,
        help="durable state root (one WAL + snapshot for every vehicle, one "
        "per shard with --shards); restarting with the same directory "
        "recovers bit-identically",
    )
    serve.add_argument(
        "--policy",
        choices=_POLICY_CHOICES,
        default="repair",
        help="validation policy for ingestion (default: repair — a service "
        "must survive one bad record; quarantine diverts them to a CSV "
        "sidecar in the state directory)",
    )
    serve.add_argument(
        "--ledger",
        type=Path,
        default=None,
        help="append advisor state transitions to this JSONL run ledger "
        "and print its summary",
    )
    serve.add_argument(
        "--health",
        type=Path,
        default=None,
        help="also write the final health snapshot as JSON to this path",
    )
    serve.add_argument(
        "--fsync",
        action="store_true",
        help="fsync WAL appends, snapshots and ledger events (durability "
        "against power loss, not just process death)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="sharded serving: consistent-hash-route vehicles across N "
        "worker processes, each owning one shard of --state-dir "
        "(default: one in-process shard; see docs/serving.md "
        "'Sharded serving')",
    )
    serve.add_argument(
        "--hang-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="sharded serving: declare a worker hung after this much "
        "silence while it holds in-flight work, SIGKILL and respawn it "
        "(0 disables hang detection; requires --shards)",
    )
    serve.add_argument(
        "--restart-budget",
        type=int,
        default=8,
        metavar="N",
        help="sharded serving: consecutive worker crashes before the "
        "shard's circuit breaker opens and its traffic is shed with "
        "count (requires --shards)",
    )
    serve.add_argument(
        "--poison-budget",
        type=int,
        default=3,
        metavar="N",
        help="sharded serving: consecutive crashes attributed to the "
        "same head-of-queue chunk before it is quarantined to "
        "poison.quarantine.jsonl and skipped (requires --shards)",
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="ADDR",
        help="also accept JSONL over a socket: unix:PATH, HOST:PORT or "
        ":PORT; GET /health and GET /ready on the same socket return the "
        "fleet snapshot and the readiness verdict (pass events '-' with "
        "no piped stdin to serve socket-only)",
    )
    _add_session_config_flags(serve)

    ledger_cmd = sub.add_parser(
        "ledger", help="summarize a JSONL run ledger (torn-tail tolerant)"
    )
    ledger_cmd.add_argument("path", type=Path, help="ledger JSONL path")

    replicate_cmd = sub.add_parser(
        "replicate",
        help="ship WAL frames and snapshots from a primary state dir to "
        "a standby (local dir or a replica server over host:port / "
        "unix:PATH)",
    )
    replicate_cmd.add_argument(
        "primary",
        nargs="?",
        type=Path,
        default=None,
        help="primary state directory to ship from (omit with --serve)",
    )
    replicate_cmd.add_argument(
        "--standby",
        type=Path,
        default=None,
        help="standby state directory (local shipping target, or the "
        "apply target with --serve)",
    )
    replicate_cmd.add_argument(
        "--to",
        default=None,
        metavar="ADDR",
        help="remote standby address (host:port or unix:PATH) running "
        "'repro-idling replicate --serve'",
    )
    replicate_cmd.add_argument(
        "--serve",
        action="store_true",
        help="run the standby side: accept shipped frames on --listen "
        "and apply them to --standby",
    )
    replicate_cmd.add_argument(
        "--listen",
        default=None,
        metavar="ADDR",
        help="with --serve: bind address (host:port or unix:PATH)",
    )
    replicate_cmd.add_argument(
        "--interval",
        type=float,
        default=0.2,
        help="seconds between shipping passes (default: 0.2)",
    )
    replicate_cmd.add_argument(
        "--passes",
        type=int,
        default=None,
        metavar="N",
        help="stop after N shipping passes (default: run until killed; "
        "use --passes 1 for a one-shot catch-up)",
    )
    replicate_cmd.add_argument(
        "--max-errors",
        type=int,
        default=None,
        metavar="N",
        help="abort after N consecutive channel errors (default: retry "
        "forever)",
    )

    promote_cmd = sub.add_parser(
        "promote",
        help="promote a standby state dir to primary: fence the old "
        "primary's shard locks, recover every session bit-identically, "
        "and print the fleet digest (the session-config flags must match "
        "the ones the primary was served with)",
    )
    promote_cmd.add_argument(
        "state_dir", type=Path, help="standby state directory to promote"
    )
    promote_cmd.add_argument(
        "--fence",
        type=Path,
        default=None,
        metavar="DIR",
        help="old primary's state directory: refuse promotion while a "
        "live process still owns a shard.lock there (split-brain guard)",
    )
    promote_cmd.add_argument(
        "--policy",
        choices=_POLICY_CHOICES,
        default="repair",
        help="validation policy for the promoted service (default: repair)",
    )
    promote_cmd.add_argument(
        "--fsync",
        action="store_true",
        help="fsync durable writes on the promoted service",
    )
    _add_session_config_flags(promote_cmd)

    backup_cmd = sub.add_parser(
        "backup",
        help="cold-copy a state dir's durable artifacts into an archive "
        "dir under a content-hash manifest",
    )
    backup_cmd.add_argument(
        "state_dir", type=Path, help="state directory to back up"
    )
    backup_cmd.add_argument(
        "archive_dir", type=Path, help="archive directory (must be fresh)"
    )

    restore_cmd = sub.add_parser(
        "restore",
        help="restore an archive into an empty state dir, verifying "
        "every file's hash first; --upto-seq rewinds to a point in time",
    )
    restore_cmd.add_argument(
        "archive_dir", type=Path, help="archive directory written by 'backup'"
    )
    restore_cmd.add_argument(
        "state_dir", type=Path, help="empty target state directory"
    )
    restore_cmd.add_argument(
        "--upto-seq",
        type=int,
        default=None,
        metavar="SEQ",
        help="point-in-time restore: truncate every session's history "
        "to WAL sequence <= SEQ (fails if compaction already consumed "
        "frames beyond SEQ)",
    )

    fleet_cmd = sub.add_parser(
        "fleet",
        help="fleet-wide durability checks across primary, standby and "
        "backup archive",
    )
    fleet_cmd.add_argument(
        "action",
        choices=("doctor",),
        help="'doctor' cross-checks WAL/snapshot integrity, replica "
        "watermarks and backup manifests; exits 1 on any problem",
    )
    fleet_cmd.add_argument(
        "state_dir", type=Path, help="primary state directory to verify"
    )
    fleet_cmd.add_argument(
        "--replica",
        type=Path,
        default=None,
        metavar="DIR",
        help="standby state directory: verify watermarks and digest "
        "agreement against the primary",
    )
    fleet_cmd.add_argument(
        "--archive",
        type=Path,
        default=None,
        metavar="DIR",
        help="backup archive: verify its manifest hashes",
    )
    fleet_cmd.add_argument(
        "--max-lag",
        type=int,
        default=None,
        metavar="N",
        help="with --replica: flag replication lag beyond N events as a "
        "problem, not just a report field",
    )
    fleet_cmd.add_argument(
        "--verify-restore",
        action="store_true",
        help="with --archive: byte-compare the state dir against the "
        "manifest (use after 'restore' to prove the round trip)",
    )
    return parser


#: Experiments that can evaluate an on-disk dataset via ``--dataset``.
_DATASET_EXPERIMENTS = {"fig3", "fig4", "table1"}


def _dataset_digest(directory: Path) -> str:
    """Content hash of a fleet dataset's payload files.

    Used to salt the result-cache key for ``--dataset`` runs: the same
    directory path with different bytes must not serve a stale cached
    result.  Quarantine sidecars and report files are deliberately
    excluded — a quarantine pass writes them next to the sources, and
    they must not invalidate the cache for the unchanged payload.
    """
    import hashlib

    directory = Path(directory)
    digest = hashlib.sha256()
    for name in ("manifest.json", "stops.csv"):
        file_path = directory / name
        digest.update(name.encode())
        if file_path.exists():
            digest.update(file_path.read_bytes())
    return digest.hexdigest()[:16]


def _experiment_params(experiment_id: str, args) -> dict:
    params: dict = {}
    if getattr(args, "fast", False):
        params.update(_FAST_PARAMS.get(experiment_id, {}))
    vehicles = getattr(args, "vehicles", None)
    if vehicles is not None and experiment_id in {"fig3", "fig4", "table1", "holdout", "seeds"}:
        params["vehicles_per_area"] = vehicles
    dataset = getattr(args, "dataset", None)
    if dataset is not None and experiment_id in _DATASET_EXPERIMENTS:
        params["dataset"] = str(dataset)
        params["policy"] = args.policy
        params["_dataset_digest"] = _dataset_digest(dataset)
    return params


def _parse_stops(spec: str, policy: str = "strict") -> np.ndarray:
    """Parse ``--stops`` (a file path or comma-separated values).

    Both forms run through the validation layer: under ``strict`` a bad
    value raises a typed error naming the offending line (or token),
    under ``repair``/``quarantine`` bad values are dropped and logged.
    """
    from .validation import PolicyEnforcer

    path = Path(spec)
    if path.exists():
        source = str(path)
        tokens = path.read_text().splitlines()
    else:
        source = "--stops"
        tokens = spec.split(",")
    enforcer = PolicyEnforcer(policy, None, source)
    values = []
    for line_number, token in enumerate(tokens, start=1):
        token = token.strip()
        if not token:
            continue
        enforcer.report.records_checked += 1
        try:
            value = float(token)
        except ValueError:
            enforcer.flag(
                "unparseable-duration",
                f"could not parse {token!r} as a stop length",
                line=line_number,
                record=[token],
            )
            continue
        if not np.isfinite(value):
            if not enforcer.flag(
                "non-finite-duration",
                f"stop length {token!r} is not finite",
                line=line_number,
                record=[token],
            ):
                continue
        elif value < 0.0:
            if not enforcer.flag(
                "negative-duration",
                f"stop length {value!r} is negative",
                line=line_number,
                record=[token],
            ):
                continue
        values.append(value)
    return np.asarray(values, dtype=float)


def _run_and_report(experiment_id: str, args, ledger: RunLedger | None = None) -> None:
    jobs = args.jobs if args.jobs is not None else get_default_jobs()
    params = _experiment_params(experiment_id, args)
    use_cache = not args.no_cache
    if ledger is not None:
        with use_ledger(ledger):
            result = cached_run(experiment_id, params, jobs=jobs, use_cache=use_cache)
    else:
        result = cached_run(experiment_id, params, jobs=jobs, use_cache=use_cache)
    print(result.to_ascii())
    if ledger is not None:
        print("\n-- ledger --")
        rows = list(ledger.summary().items())
        print(format_table(("event", "count"), rows))
        if ledger.path is not None:
            print(f"events written to {ledger.path}")
    if args.out is not None:
        paths = result.write_csvs(args.out)
        for path in paths:
            print(f"wrote {path}")


def _cache(args) -> None:
    cache = ResultCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached file(s) from {cache.root}")
    elif args.action == "doctor":
        report = cache.doctor()
        print(f"cache directory: {cache.root}")
        print(f"entries:         {len(cache.entries())}")
        print(f"orphaned tmp:    {len(report['orphans'])}")
        print(f"invalid JSON:    {len(report['invalid'])}")
        for path in report["orphans"]:
            print(f"  orphan  {path}")
        for path in report["invalid"]:
            print(f"  invalid {path}")
        if not report["orphans"] and not report["invalid"]:
            print("cache is healthy")
        else:
            print("run 'repro-idling cache clear' to reclaim the space")
        if args.fault_claims is not None:
            from .engine.faults import sweep_stale_claims
            from .service.shard import sweep_stale_shard_locks

            removed = sweep_stale_claims(args.fault_claims)
            print(f"fault claims:    swept {len(removed)} stale claim(s) "
                  f"from {args.fault_claims}")
            for name in removed:
                print(f"  swept   {name}")
            # SIGKILLed shard workers leave shard.lock files the same
            # way crashed fault injectors leave claims; one doctor pass
            # sweeps both (live-pid locks are kept).
            locks = sweep_stale_shard_locks(args.fault_claims)
            print(f"shard locks:     swept {len(locks)} stale lock(s)")
            for name in locks:
                print(f"  swept   {name}")
        if args.state_dir is not None:
            from .service.replica import sweep_state_dir

            removed = sweep_state_dir(args.state_dir)
            print(f"state dir:       swept {len(removed)} orphan(s) "
                  f"from {args.state_dir}")
            for name in removed:
                print(f"  swept   {name}")
    else:
        entries = cache.entries()
        print(f"cache directory: {cache.root}")
        print(f"entries:         {len(entries)}")
        print(f"size:            {cache.size_bytes() / 1024:.1f} KiB")
        print(f"orphaned tmp:    {len(cache.orphan_tmp_files())}")


def _warn_break_even(break_even: float) -> None:
    """Unit-sanity warnings for ``--break-even`` (seconds expected)."""
    from .validation import break_even_findings

    for _check, message, severity in break_even_findings(break_even):
        if severity == "warning":
            print(f"warning: {message}", file=sys.stderr)


def _advise(args) -> None:
    _warn_break_even(args.break_even)
    stops = _parse_stops(args.stops, args.policy)
    stats = StopStatistics.from_samples(stops, args.break_even)
    selection = ConstrainedSkiRentalSolver(stats).select()
    print(f"stops observed:        {stops.size}")
    print(f"break-even interval B: {args.break_even:g} s")
    print(f"mu_B_minus:            {stats.mu_b_minus:.2f} s")
    print(f"q_B_plus:              {stats.q_b_plus:.3f}")
    print(f"selected strategy:     {selection.name}")
    if selection.name == "b-DET":
        print(f"  idle until b* =      {selection.chosen.parameters['b']:.1f} s, then shut off")
    elif selection.name == "DET":
        print(f"  idle until B =       {args.break_even:g} s, then shut off")
    elif selection.name == "TOI":
        print("  shut the engine off immediately at every stop")
    else:
        print("  draw the shutoff time from the N-Rand density (Eq. 7)")
    print(f"worst-case expected CR: {selection.worst_case_cr:.4f}")
    print("vertex comparison:")
    for vertex in selection.vertices:
        marker = "*" if vertex.name == selection.name else " "
        cr = f"{vertex.worst_case_cr:.4f}" if np.isfinite(vertex.worst_case_cr) else "inadmissible"
        print(f"  {marker} {vertex.name:<7} worst-case CR {cr}")
    if getattr(args, "improved", False):
        from .core import ImprovedConstrainedSolver

        improved = ImprovedConstrainedSolver(stats).select()
        print("\nwith the b-Rand correction (see EXPERIMENTS.md):")
        print(f"  corrected choice:     {improved.chosen_name}")
        if improved.chosen_name == "b-Rand":
            print(f"    randomize the shutoff over [0, {improved.b_rand_beta:.1f}] s "
                  "(truncated exponential density)")
        print(f"  corrected worst-case CR: {improved.worst_case_cr:.4f} "
              f"(improvement {improved.improvement_over_paper:+.4f})")
    if getattr(args, "trust", None) is not None:
        from .core.prediction import consistency_bound, robustness_bound

        lam = args.trust
        b = args.break_even
        print(f"\nprediction-augmented (PSK, lambda={lam:g}):")
        print(f"  long prediction (y_hat >= B): shut off at lambda*B = {lam * b:.1f} s")
        print(f"  short prediction:             idle until B/lambda  = {b / lam:.1f} s")
        print(f"  consistency bound (perfect predictions): {consistency_bound(lam):.4f}")
        print(f"  robustness bound (any predictions):      {robustness_bound(lam):.4f}")
    if getattr(args, "cvar_alpha", None) is not None:
        from .core.tailrisk import TailRiskRand

        tail = TailRiskRand(args.break_even, args.cvar_alpha, args.cvar_cap)
        print(f"\ntail-risk constrained (CVaR_{args.cvar_alpha:g} <= "
              f"{args.cvar_cap:g} x OPT):")
        print(f"  N-Rand weight rho*:      {tail.nrand_weight:.4f} "
              f"(atom at B: {tail.atom_weight:.4f})")
        print(f"  worst-case expected CR:  {tail.worst_case_expected_cr:.4f}")


def _breakeven(args) -> None:
    from .vehicle import (
        CONVENTIONAL_STARTER,
        SSV_STARTER,
        STOP_START_BATTERY,
        EngineSpec,
        VehicleCostModel,
    )

    engine = EngineSpec(
        displacement_liters=args.displacement,
        measured_idle_cc_per_s=args.measured_idle_cc_per_s,
    )
    model = VehicleCostModel(
        engine=engine,
        starter=CONVENTIONAL_STARTER if args.conventional else SSV_STARTER,
        battery=STOP_START_BATTERY,
        fuel_price_per_gallon=args.fuel_price,
    )
    breakdown = model.breakdown()
    kind = "conventional" if args.conventional else "stop-start"
    print(f"vehicle:                {kind}, {args.displacement:g} L engine")
    print(f"idle fuel rate:         {engine.idle_rate_cc_per_s():.3f} cc/s")
    print(f"idling cost:            {breakdown.idling_cost_cents_per_s:.4f} cents/s "
          f"(fuel at ${args.fuel_price:g}/gallon)")
    print("restart cost components (seconds of idling):")
    for component, seconds in breakdown.as_rows():
        print(f"  {component:<14} {seconds:8.2f}")
    print(f"break-even interval B:  {breakdown.total_seconds:.1f} s")


def _simulate(args) -> None:
    import numpy as np

    from .constants import B_CONVENTIONAL
    from .core import ProposedOnline, TurnOffImmediately
    from .fleet import area_config
    from .fleet.generator import FleetGenerator
    from .simulation import realized_cr, simulate_stops
    from .vehicle import conventional_cost_model, ssv_cost_model

    break_even = B_CONVENTIONAL if args.conventional else B_SSV
    model = conventional_cost_model() if args.conventional else ssv_cost_model()
    config = area_config(args.area)
    generator = FleetGenerator(config, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    vehicle = generator.generate_vehicle(0, rng)
    stops = vehicle.stop_lengths
    half = max(1, stops.size // 2)
    training, deployment = stops[:half], stops[half:]
    if deployment.size == 0:
        deployment = training
    policy = ProposedOnline.from_samples(training, break_even)
    print(f"area {config.name}: {stops.size} stops over {args.days} days "
          f"(training on {training.size}, deploying on {deployment.size})")
    print(f"policy: {policy.selected_name} "
          f"(guaranteed worst-case CR {policy.worst_case_cr:.3f}, B={break_even:g})")
    offline = simulate_stops(deployment, break_even=break_even)
    deployed = simulate_stops(deployment, strategy=policy, rng=rng)
    factory = simulate_stops(
        deployment, strategy=TurnOffImmediately(break_even), rng=rng
    )
    print(f"{'controller':<20}{'cost (idle-s)':>14}{'restarts':>10}"
          f"{'fuel (cc)':>11}{'cents':>9}{'CR':>8}")
    for name, result in (
        ("offline optimum", offline),
        ("proposed", deployed),
        ("factory TOI", factory),
    ):
        cr = realized_cr(result, offline)
        print(f"{name:<20}{result.total_cost_seconds:>14.0f}"
              f"{result.ledger.restarts:>10}{result.fuel_cc(model):>11.0f}"
              f"{result.cost_cents(model):>9.2f}{cr:>8.3f}")


def _risk(args) -> None:
    from .evaluation import vehicle_pareto_report

    _warn_break_even(args.break_even)
    stops = _parse_stops(args.stops, args.policy)
    points = vehicle_pareto_report(stops, args.break_even)
    print(f"weekly cost (idle-second units) over {stops.size} stops, "
          f"B = {args.break_even:g} s:")
    print(f"{'strategy':<10}{'mean':>10}{'std':>10}  pareto-efficient")
    for point in points:
        print(f"{point.strategy:<10}{point.mean:>10.1f}{point.std:>10.2f}  "
              f"{'yes' if point.efficient else 'no'}")


_STOPS_HEADER = "vehicle_id,start_time,duration"


def _lint_generic_csv(path: Path, report) -> None:
    """Structural lint for arbitrary CSVs (e.g. committed results).

    Deliberately value-agnostic: result tables legitimately contain
    strings like ``inf`` and ``infeasible``, so the only checks are
    byte-level decodability and a consistent column count.  Findings
    stay ``reported`` (nothing is dropped — the file is not ingested).
    """
    import csv
    import io

    from .validation import Issue

    report.add_source(str(path))
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        report.add(Issue("undecodable-bytes", f"not valid UTF-8: {exc}", str(path)))
        return
    rows = list(csv.reader(io.StringIO(text)))
    report.records_checked += len(rows)
    if not rows:
        report.add(Issue("empty-table", "no rows", str(path)))
        return
    width = len(rows[0])
    for line_number, row in enumerate(rows[1:], start=2):
        if row and len(row) != width:
            report.add(
                Issue(
                    "inconsistent-column-count",
                    f"row has {len(row)} column(s); header has {width}",
                    str(path),
                    line_number,
                )
            )
    print(f"generic CSV: {len(rows)} row(s), {width} column(s)")


def _data_doctor(args) -> int:
    """``data doctor``: run every ingestion check against a path.

    Exit status: 0 when the input is clean or every error was handled
    (dropped/quarantined/repaired under the policy); 1 when error-grade
    issues remain unhandled — a strict-mode raise (via the main()
    handler) or generic-lint findings, which are never repaired.
    """
    from .validation import ValidationReport, resolve_policy

    path = Path(args.path)
    policy = resolve_policy(args.policy)
    report = ValidationReport(policy.value)
    ledger = RunLedger(args.ledger) if args.ledger is not None else None

    def _examine() -> None:
        if path.is_dir():
            from .fleet import load_fleet_dataset

            fleets = load_fleet_dataset(path, policy=policy, report=report)
            total = sum(len(vehicles) for vehicles in fleets.values())
            print(f"fleet dataset: {total} vehicle(s) across {len(fleets)} area(s)")
        elif path.suffix == ".json":
            from .traces import read_traces_json

            traces = read_traces_json(path, policy=policy, report=report)
            print(f"trace JSON: {len(traces)} valid trace(s)")
        else:
            with open(path, newline="") as handle:
                first = handle.readline().strip()
            if first == _STOPS_HEADER:
                from .traces import read_stops_csv

                per_vehicle = read_stops_csv(path, policy=policy, report=report)
                stops = sum(values.size for values in per_vehicle.values())
                print(f"stop table: {len(per_vehicle)} vehicle(s), {stops} stop(s)")
            else:
                _lint_generic_csv(path, report)

    if ledger is not None:
        with use_ledger(ledger):
            _examine()
    else:
        _examine()
    print(report.format())
    if args.report is not None:
        written = report.write_json(args.report)
        print(f"report written to {written}")
    if ledger is not None and ledger.path is not None:
        print(f"ledger written to {ledger.path}")
    unhandled = [
        issue
        for issue in report.issues
        if issue.severity == "error" and issue.action in ("reported", "raised")
    ]
    if unhandled:
        print(f"{len(unhandled)} unhandled error(s)", file=sys.stderr)
        return 1
    return 0


def _serve(args) -> int:
    """``serve``: stream JSONL stop events through the shard tier.

    Without ``--shards`` one in-process shard serves ``--state-dir``;
    ``--shards N`` routes vehicles by consistent hash across N worker
    processes (one per ``<state-dir>/shard-NN`` for N >= 2).  Events
    come from the file or stdin, and ``--listen`` also accepts JSONL
    plus ``GET /health`` and ``GET /ready`` on a socket.  The ledger
    (``--ledger``) carries tier events and an in-process shard's
    advisor-state events; each worker appends its advisor-state events
    to ``<ledger>.shard-NN``.
    """
    import json

    from .service.frontend import CHUNK_LINES, JsonlFrontend
    from .service.shard import ShardedAdvisorService

    if args.shards is not None and args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    config = _session_config(args)
    ledger = (
        RunLedger(args.ledger, fsync=args.fsync, append=True)
        if args.ledger is not None
        else None
    )

    def _pump(service, handle) -> None:
        pending: list[str] = []
        for line in handle:
            line = line.strip()
            if line:
                pending.append(line)
                if len(pending) >= CHUNK_LINES:
                    service.submit_lines(pending)
                    pending.clear()
        if pending:
            service.submit_lines(pending)
        service.drain()

    def _run() -> dict:
        service = ShardedAdvisorService(
            args.state_dir,
            config,
            shards=args.shards or 1,
            workers=args.shards is not None,
            policy=args.policy,
            fsync=args.fsync,
            ledger_path=None if args.ledger is None else str(args.ledger),
            hang_timeout=args.hang_timeout if args.hang_timeout > 0 else None,
            restart_budget=args.restart_budget,
            poison_budget=args.poison_budget,
        )
        # close() in finally: even a mid-stream failure (strict-policy
        # validation error, I/O error) must flush durable state and the
        # quarantine sidecar.
        try:
            if args.listen is not None:
                import asyncio

                frontend = JsonlFrontend(service)
                stdin = None
                if args.events != "-":
                    stdin = open(args.events)
                elif not sys.stdin.isatty():
                    stdin = sys.stdin
                try:
                    asyncio.run(frontend.serve(args.listen, stdin=stdin))
                finally:
                    if stdin is not None and stdin is not sys.stdin:
                        stdin.close()
            elif args.events == "-":
                _pump(service, sys.stdin)
            else:
                with open(args.events) as handle:
                    _pump(service, handle)
            return service.health_snapshot(include_vehicles=True)
        finally:
            service.close()

    if ledger is not None:
        with use_ledger(ledger):
            snapshot = _run()
    else:
        snapshot = _run()

    ingest = snapshot["ingest"]
    routing = snapshot["routing"]
    print(f"fleet cost:  {snapshot['fleet_cost']:.1f} idle-s "
          f"over {len(snapshot['vehicles'])} vehicle(s)")
    print(f"ingestion:   {ingest['received']} received, "
          f"{ingest['duplicates']} duplicate(s), {ingest['rejected']} rejected, "
          f"{ingest['malformed']} malformed")
    print(f"sharded:     {routing['shards']} shard(s), "
          f"{routing['dispatched_events']} event(s) routed, "
          f"{routing['restarts']} worker restart(s)")
    hangs = routing["hangs"]
    quarantined = routing["quarantined_chunks"]
    breakers = routing["breaker_open"]
    if hangs or quarantined or breakers:
        print(f"supervision: {hangs} hang(s) detected, "
              f"{quarantined} chunk(s) quarantined "
              f"({routing['quarantined_events']} event(s)), "
              f"breaker open on {breakers or 'no'} shard(s), "
              f"{routing['breaker_shed']} event(s) shed to breakers")
    rows = [
        (
            info["vehicle"],
            info["health"],
            info["strategy"],
            str(info["applied"]),
            f"{info['total_cost']:.1f}",
            str(len(info["transitions"])),
        )
        for info in snapshot["vehicles"].values()
    ]
    print(format_table(
        ("vehicle", "health", "strategy", "applied", "cost", "transitions"), rows
    ))
    if routing["shards"] > 1:
        rows = [
            (
                str(row["shard"]),
                str(row["vehicles"]),
                "-" if row["fleet_cost"] is None else f"{row['fleet_cost']:.1f}",
                str(row.get("events_acked", "-")),
                str(row.get("restarts", "-")),
            )
            for row in snapshot["shards"]
        ]
        print(format_table(("shard", "vehicles", "cost", "events", "restarts"), rows))
    if args.health is not None:
        args.health.parent.mkdir(parents=True, exist_ok=True)
        args.health.write_text(json.dumps(snapshot, indent=2, sort_keys=True))
        print(f"health snapshot written to {args.health}")
    if ledger is not None and ledger.path is not None:
        print(f"ledger appended at {ledger.path}")
    return 0


def _ledger_summary(args) -> int:
    """``ledger``: summarize a JSONL run ledger via the tolerant reader."""
    from collections import Counter

    from .engine import read_ledger

    records = read_ledger(args.path)
    print(f"{args.path}: {len(records)} record(s)")
    counts = Counter(str(record.get("event", "?")) for record in records)
    print(format_table(("event", "count"), sorted(counts.items())))
    transitions = [r for r in records if r.get("event") == "advisor-state"]
    if transitions:
        print("\nadvisor state transitions:")
        rows = [
            (
                str(record.get("vehicle", "?")),
                str(record.get("from", "?")),
                str(record.get("to", "?")),
                str(record.get("reason", "?")),
                str(record.get("applied", "?")),
            )
            for record in transitions
        ]
        print(format_table(("vehicle", "from", "to", "reason", "applied"), rows))
    return 0


def _dataset(args) -> None:
    from .fleet import DEFAULT_SEED, load_fleets, save_fleet_dataset, total_vehicle_count

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    fleets = load_fleets(seed=seed, vehicles_per_area=args.vehicles)
    path = save_fleet_dataset(args.out, fleets, seed=seed)
    total = total_vehicle_count(fleets)
    stops = sum(v.stop_lengths.size for vs in fleets.values() for v in vs)
    print(f"wrote {total} vehicles ({stops} stops) to {path}")
    print("load with repro.fleet.load_fleet_dataset(path)")


def _replicate(args) -> int:
    """``replicate``: ship WAL frames/snapshots, or run the standby side."""
    import asyncio

    from .service.replica import (
        LocalReplicaTarget,
        RemoteReplicaTarget,
        ReplicaServer,
        replicate,
    )

    if args.serve:
        if args.listen is None or args.standby is None:
            print("error: --serve requires --listen ADDR and --standby DIR",
                  file=sys.stderr)
            return 2
        server = ReplicaServer(args.standby)
        print(f"replica server applying to {args.standby} on {args.listen} "
              f"(Ctrl-C to stop)")
        try:
            asyncio.run(server.serve(args.listen, install_signals=True))
        except KeyboardInterrupt:
            pass
        return 0

    if args.primary is None:
        print("error: primary state dir required (or use --serve)",
              file=sys.stderr)
        return 2
    if (args.to is None) == (args.standby is None):
        print("error: pick exactly one shipping target: --standby DIR "
              "or --to ADDR", file=sys.stderr)
        return 2
    if args.to is not None:
        target = RemoteReplicaTarget(args.to)
        where = args.to
    else:
        target = LocalReplicaTarget(args.standby)
        where = str(args.standby)
    try:
        totals = replicate(
            args.primary,
            target,
            interval=args.interval,
            passes=args.passes,
            max_errors=args.max_errors,
        )
    except KeyboardInterrupt:
        print("replication stopped", file=sys.stderr)
        return 0
    finally:
        target.close()
    print(f"shipped to {where}: {totals['passes']} pass(es), "
          f"{totals['frames']} frame(s), {totals['snapshots']} snapshot(s), "
          f"{totals['deltas']} delta(s), {totals['channel_errors']} channel error(s)")
    return 0


def _promote(args) -> int:
    """``promote``: fence the old primary and take over bit-identically."""
    from .service.replica import promote

    result = promote(
        args.state_dir,
        _session_config(args),
        fence=args.fence,
        policy=args.policy,
        fsync=args.fsync,
    )
    print(f"promoted {args.state_dir}: {len(result['vehicles'])} session(s) "
          f"across {len(result['roots'])} root(s)")
    print(f"fleet cost:  {result['fleet_cost']:.1f} idle-s")
    for vid in result["vehicles"]:
        print(f"  {vid}  {result['digests'][vid]}")
    return 0


def _backup(args) -> int:
    """``backup``: cold-copy durable state under a content manifest."""
    from .service.replica import backup

    manifest = backup(args.state_dir, args.archive_dir)
    print(f"backed up {len(manifest['files'])} file(s), "
          f"{len(manifest['vehicles'])} session(s) to {args.archive_dir}")
    for vehicle in sorted(manifest["vehicles"]):
        info = manifest["vehicles"][vehicle]
        print(f"  {vehicle}  tip={info['tip']}  {info['digest'][:16]}")
    return 0


def _restore(args) -> int:
    """``restore``: verified restore, optionally to a point in time."""
    from .service.replica import restore

    report = restore(args.archive_dir, args.state_dir, upto_seq=args.upto_seq)
    print(f"restored {report['files']} file(s) to {args.state_dir}")
    if args.upto_seq is not None:
        dropped = sum(report["truncated"].values())
        print(f"point-in-time seq {args.upto_seq}: dropped {dropped} "
              f"frame(s) across {len(report['truncated'])} session(s)")
    print("run 'repro-idling fleet doctor' then 'promote' to bring it live")
    return 0


def _fleet(args) -> int:
    """``fleet doctor``: cross-check primary, standby and archive."""
    from .service.replica import fleet_doctor

    report = fleet_doctor(
        args.state_dir,
        replica_dir=args.replica,
        archive_dir=args.archive,
        max_lag=args.max_lag,
        verify_restore=args.verify_restore,
    )
    print(f"state dir:   {args.state_dir}")
    print(f"sessions:    {len(report['vehicles'])}")
    if report["replication"] is not None:
        repl = report["replication"]
        print(f"replication: max lag {repl['max_lag_events']} event(s), "
              f"{repl['vehicles_lagging']} session(s) lagging")
    if report["archive"] is not None:
        print(f"archive:     {args.archive} "
              f"({report['archive']['files']} file(s) verified)")
    for line in report["warnings"]:
        print(f"warning: {line}")
    for line in report["problems"]:
        print(f"problem: {line}")
    if report["ok"]:
        print("fleet is healthy")
        return 0
    print("fleet has problems — see above", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for experiment_id in sorted(EXPERIMENTS):
                print(experiment_id)
        elif args.command == "run":
            ledger = RunLedger(args.ledger) if args.ledger is not None else None
            _run_and_report(args.experiment, args, ledger)
        elif args.command == "all":
            # One ledger spans the whole batch (a single JSONL record of
            # the run), created before the first experiment starts.
            ledger = RunLedger(args.ledger) if args.ledger is not None else None
            for experiment_id in sorted(EXPERIMENTS):
                _run_and_report(experiment_id, args, ledger)
                print()
        elif args.command == "advise":
            _advise(args)
        elif args.command == "breakeven":
            _breakeven(args)
        elif args.command == "simulate":
            _simulate(args)
        elif args.command == "dataset":
            _dataset(args)
        elif args.command == "risk":
            _risk(args)
        elif args.command == "cache":
            _cache(args)
        elif args.command == "data":
            return _data_doctor(args)
        elif args.command == "serve":
            return _serve(args)
        elif args.command == "ledger":
            return _ledger_summary(args)
        elif args.command == "replicate":
            return _replicate(args)
        elif args.command == "promote":
            return _promote(args)
        elif args.command == "backup":
            return _backup(args)
        elif args.command == "restore":
            return _restore(args)
        elif args.command == "fleet":
            return _fleet(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as error:
        # ValueError covers json.JSONDecodeError from corrupt on-disk
        # artifacts (ledger, health snapshot) — a clean message, not a
        # traceback, when a file the service wrote earlier is damaged.
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
