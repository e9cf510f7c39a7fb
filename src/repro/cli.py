"""Command-line interface for the LucidScript reproduction.

Subcommands::

    python -m repro standardize --script prep.py --corpus-dir peers/ --data-dir data/
    python -m repro score       --script prep.py --corpus-dir peers/
    python -m repro explain     --script prep.py --corpus-dir peers/ --data-dir data/
    python -m repro build-workload medical --out /tmp/workloads
    python -m repro detect-leakage --script prep.py --corpus-dir peers/ \
        --data-dir data/ --target Outcome
    python -m repro index build  --corpus-dir peers/ --out peers.index.json
    python -m repro index update --index peers.index.json
    python -m repro index stats  --index peers.index.json
    python -m repro index retrieve --corpus-dir pool/ --script prep.py -k 20

The four job ops (``standardize``/``score``/``explain``/
``detect-leakage``) are requests of :mod:`repro.server.jobs`, the one
request model the server also answers: each builds its request from its
flags (:func:`_job_params`), runs it in-process and renders the result
dict.  A malformed request exits with one ``error:`` line; an input
script that cannot be standardized prints ``error: …`` and returns 1.
``--audit`` runs every layer's naive oracle beside its fast path
(``LSConfig.audit``); a divergence, like a failed ``index … --audit``
or ``dialect verify``, prints ``error: <layer>: …`` and returns 1.

``--index peers.index.json`` replaces (or joins) ``--corpus-dir``: the
persisted offline phase is loaded in O(snapshot) and, when a corpus
directory is also given, refreshed by reparsing only changed files.

``--retrieve-k N`` switches the job ops to the retrieve-then-compute
path: the corpus is treated as a *pool*, and the working corpus becomes
the pool's N most similar scripts to the input (LSH top-k over minhash +
schema signatures; ``--audit`` checks each query against brute force).
``index retrieve`` exposes the same search directly, printing the
ranked hits; its ``--index`` reads any index snapshot, and its ``--out``
writes one that ``--index`` reads everywhere.

Standardization-as-a-service::

    python -m repro serve  --socket /tmp/repro.sock [--audit]
    python -m repro client score --socket /tmp/repro.sock \
        --script prep.py --corpus-dir peers/

``serve`` runs the long-lived request engine (warm per-corpus state,
jobs run first in first out, graceful SIGTERM drain); ``client``
sends one job, built by the job ops' own flags (or ``ping``/``stats``/
``shutdown``), and prints the response JSON.  See :mod:`repro.server`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from ._audit import AuditMismatchError
from .core.standardizer import summarize
from .corpus import (
    CorpusIndex,
    RetrievalIndex,
    load_index,
    read_corpus_dir,
    save_index,
)
from .workloads import build_competition, competition_names

__all__ = ["main", "build_parser"]

JOB_COMMANDS = ("standardize", "score", "explain", "detect-leakage")


def _read_script(path: str) -> str:
    try:
        with open(path, "r") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read script: {exc}") from None


def _corpus_dir_scripts(corpus_dir: str) -> List[str]:
    try:
        return read_corpus_dir(corpus_dir)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _dialect_arg(name: str) -> str:
    """argparse type for --dialect: unknown names fail listing options."""
    from .dialects import UnknownDialectError, get_dialect

    try:
        get_dialect(name)
    except UnknownDialectError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return name


def _add_dialect(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dialect",
        default="pandas",
        type=_dialect_arg,
        metavar="NAME",
        help="API dialect of the scripts (default: pandas; "
        "see 'dialect list' for registered dialects)",
    )


def _add_common(
    parser: argparse.ArgumentParser, with_search: bool = True, required: bool = True
) -> None:
    parser.add_argument("--script", required=required, help="user script path")
    parser.add_argument("--corpus-dir", help="directory of peer .py scripts")
    _add_dialect(parser)
    parser.add_argument(
        "--index",
        help="persisted corpus index (from 'index build'); loads the offline "
        "phase without reparsing, refreshed against --corpus-dir when given",
    )
    parser.add_argument(
        "--retrieve-k",
        type=int,
        default=None,
        metavar="N",
        help="treat the corpus as a pool and curate the N scripts most "
        "similar to the input via LSH top-k retrieval",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run every layer's naive oracle beside its fast path and fail "
        "on any divergence (debug mode: scoring, intent, index, retrieval, "
        "kernel and sandbox audits)",
    )
    if with_search:
        parser.add_argument("--data-dir", help="directory holding the dataset CSVs")
        parser.add_argument("--tau-j", type=float, default=0.9,
                            help="table-Jaccard threshold (default 0.9)")
        parser.add_argument("--tau-m", type=float, default=1.0,
                            help="model-performance threshold %% (used with --target)")
        parser.add_argument("--target", help="target column (switches to the tau_M intent)")
        parser.add_argument("--seq", type=int, default=16, help="max transformations")
        parser.add_argument("--beam-size", type=int, default=3, help="beam size K")
        parser.add_argument("--no-diversity", action="store_true",
                            help="disable Algorithm 3 diversity clustering")
        parser.add_argument("--late-check", action="store_true",
                            help="verify executability only at the end")
        parser.add_argument("--sample-rows", type=int, default=500,
                            help="row sample for constraint checks (0 = no sampling)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LucidScript: bottom-up script standardization"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_std = sub.add_parser("standardize", help="standardize a script against a corpus")
    _add_common(p_std)
    p_std.add_argument("--output", help="write the standardized script here")

    p_score = sub.add_parser("score", help="RE standardness score of a script")
    _add_common(p_score, with_search=False)

    p_explain = sub.add_parser("explain", help="standardize and explain each change")
    _add_common(p_explain)

    p_build = sub.add_parser("build-workload", help="materialize a synthetic competition")
    p_build.add_argument("name", choices=competition_names())
    p_build.add_argument("--out", required=True, help="output root directory")
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--n-scripts", type=int, default=None)

    p_leak = sub.add_parser("detect-leakage", help="flag target-leakage-like steps")
    _add_common(p_leak)

    p_index = sub.add_parser(
        "index", help="build / update / inspect a persistent corpus index"
    )
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p_ibuild = index_sub.add_parser(
        "build", help="index a corpus directory from scratch and persist it"
    )
    p_ibuild.add_argument("--corpus-dir", required=True,
                          help="directory of peer .py/.ipynb scripts")
    p_ibuild.add_argument("--out", required=True,
                          help="path for the index snapshot JSON")
    _add_dialect(p_ibuild)
    p_iupdate = index_sub.add_parser(
        "update", help="stat-scan the corpus directory, reparse only changes"
    )
    p_iupdate.add_argument("--index", required=True, help="index snapshot to update")
    p_iupdate.add_argument("--corpus-dir",
                           help="override the recorded corpus directory")
    p_iupdate.add_argument("--audit", action="store_true",
                           help="verify bit-identity against a from-scratch rebuild")
    p_istats = index_sub.add_parser(
        "stats", help="corpus statistics and cache provenance of an index"
    )
    p_istats.add_argument("--index", required=True, help="index snapshot to inspect")
    p_istats.add_argument("--audit", action="store_true",
                          help="verify bit-identity against a from-scratch rebuild")
    p_iretr = index_sub.add_parser(
        "retrieve", help="top-k most similar pool scripts for a query script"
    )
    p_iretr.add_argument("--corpus-dir",
                         help="directory of pool .py/.ipynb scripts")
    p_iretr.add_argument("--index",
                         help="index snapshot (from 'index build' or a "
                         "previous 'index retrieve --out')")
    p_iretr.add_argument("--script", required=True, help="query script path")
    p_iretr.add_argument("-k", "--k", type=int, default=20, dest="k",
                         help="number of hits to retrieve (default 20)")
    p_iretr.add_argument("--audit", action="store_true",
                         help="audit the LSH result against brute-force "
                         "signature similarity")
    p_iretr.add_argument("--out",
                         help="persist the retrieval pool snapshot here for "
                         "reuse (loads in O(snapshot), no reparsing)")
    _add_dialect(p_iretr)

    p_dialect = sub.add_parser(
        "dialect", help="list registered API dialects / run the dialect audit"
    )
    dialect_sub = p_dialect.add_subparsers(dest="dialect_command", required=True)
    dialect_sub.add_parser("list", help="registered dialects and their surfaces")
    p_dverify = dialect_sub.add_parser(
        "verify",
        help="verify_dialect audit: replay each dialect's recorded fixture "
        "case and require a byte-for-byte match",
    )
    p_dverify.add_argument("--dialect", dest="dialects", action="append",
                           type=_dialect_arg, metavar="NAME",
                           help="audit only this dialect (repeatable; default: "
                           "every dialect with a recorded fixture)")

    p_serve = sub.add_parser(
        "serve", help="run the long-lived standardization server"
    )
    p_serve.add_argument("--socket", help="unix socket path to listen on")
    p_serve.add_argument("--host", help="TCP host to listen on (with --port)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = ephemeral, printed at startup)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="bounded admission: max queued jobs (default 64)")
    p_serve.add_argument("--warm-limit", type=int, default=8,
                         help="warm systems pinned under LRU admission (default 8)")
    p_serve.add_argument("--deadline-s", type=float, default=None,
                         help="default per-request SLA in seconds (requests "
                         "may override)")
    p_serve.add_argument("--audit", action="store_true",
                         help="verify_server: replay every response in a fresh "
                         "one-shot process and require byte-identical JSON")

    p_client = sub.add_parser(
        "client", help="send one request to a running standardization server"
    )
    p_client.add_argument(
        "op",
        choices=[*JOB_COMMANDS, "ping", "stats", "shutdown"],
        help="job or control operation",
    )
    p_client.add_argument("--socket", help="server unix socket path")
    p_client.add_argument("--host", help="server TCP host (with --port)")
    p_client.add_argument("--port", type=int, help="server TCP port")
    _add_common(p_client, required=False)
    p_client.add_argument("--deadline-s", type=float, default=None,
                          help="per-request SLA in seconds")
    p_client.add_argument("--timeout", type=float, default=300.0,
                          help="client-side socket timeout (default 300s)")

    return parser


def _job_params(op: str, args) -> Dict[str, Any]:
    """The request of one job op, from the flags ``_add_common`` defines.

    ``--corpus-dir`` is read here and inlined, unless it refreshes an
    ``--index`` snapshot; ``--index`` and ``--data-dir`` are paths where
    the job runs (on the server's side for ``repro client``).
    """
    if not (args.corpus_dir or args.index):
        raise SystemExit("error: one of --corpus-dir or --index is required")
    params: Dict[str, Any] = {
        "script": _read_script(args.script),
        "index": args.index,
        "retrieve_k": args.retrieve_k,
        "config": {"dialect": args.dialect},
    }
    if args.index:
        params["corpus_dir"] = args.corpus_dir
    else:
        params["corpus"] = _corpus_dir_scripts(args.corpus_dir)
    if args.audit:
        params["config"]["audit"] = True
    if op != "score":
        params.update(
            data_dir=args.data_dir, target=args.target, tau_j=args.tau_j, tau_m=args.tau_m
        )
        params["config"].update(
            seq=args.seq,
            beam_size=args.beam_size,
            diversity=not args.no_diversity,
            early_check=not args.late_check,
            sample_rows=args.sample_rows or None,  # 0 = no sampling
        )
    return params


def _render(op: str, result: Dict[str, Any]) -> str:
    """What a job op prints on stdout, from its result dict."""
    if op == "score":
        return f"{result['score']:.4f}"
    if op == "standardize":
        return result["output_script"]
    if op == "explain":
        if not result["explanations"]:
            return "script is already standard; no changes recommended"
        overall = f"overall: {result['improvement']:.1f}% RE improvement"
        return "\n".join(result["explanations"] + ["", overall])
    if not result["flagged"]:
        return "no out-of-the-ordinary steps flagged"
    return "\n".join(
        ["steps flagged as out-of-the-ordinary (removed by standardization):"]
        + [
            f"  {flag['statement']}    [in {flag['prevalence'] * 100:.0f}% of corpus scripts]"
            for flag in result["flagged"]
        ]
    )


def cmd_job(args) -> int:
    """standardize / score / explain / detect-leakage, run in-process."""
    from .server import jobs  # imports asyncio: kept off `import repro.cli`

    op = args.command.replace("-", "_")
    try:
        result = jobs.execute_job(
            jobs.normalize_job({"op": op, "params": _job_params(op, args)})
        )
    except jobs.JobError as exc:
        if exc.kind == "bad_request":
            raise SystemExit(f"error: {exc}") from None
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_render(op, result))
    if op == "standardize":
        print(f"\n# {summarize(result).replace(chr(10), chr(10) + '# ')}", file=sys.stderr)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(result["output_script"] + "\n")
    return 0


def cmd_build_workload(args) -> int:
    corpus = build_competition(
        args.name, args.out, seed=args.seed, n_scripts=args.n_scripts
    )
    scripts_dir = os.path.join(corpus.data_dir, "scripts")
    os.makedirs(scripts_dir, exist_ok=True)
    for position, script in enumerate(corpus.scripts):
        with open(os.path.join(scripts_dir, f"script_{position:03d}.py"), "w") as handle:
            handle.write(script + "\n")
    print(f"data:    {os.path.join(corpus.data_dir, corpus.data_file)}")
    print(f"scripts: {scripts_dir} ({len(corpus.scripts)} files)")
    print(f"target:  {corpus.target} ({corpus.task})")
    return 0


def _print_index_summary(index: CorpusIndex) -> None:
    stats = index.stats()
    print(f"dialect: {index.dialect}")
    print(
        f"scripts: {stats.n_scripts} ({index.n_unique_scripts} unique by content)"
    )
    print(
        f"vocabulary: {stats.uniq_onegrams} 1-grams, {stats.uniq_ngrams} n-grams, "
        f"{stats.uniq_edges} edges"
    )
    if index.corpus_dir:
        print(f"corpus dir: {index.corpus_dir}")


def _load_snapshot(load, path: str):
    """``load(path)``; a missing, unreadable or malformed snapshot ends in
    one ``error:`` line, classified as the server classifies it."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"error: cannot load corpus index {path!r}: {exc}") from None


def _refresh(index, corpus_dir: str):
    """``index.refresh(corpus_dir)``; a directory that cannot be scanned
    ends in one ``error:`` line."""
    try:
        return index.refresh(corpus_dir)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def cmd_index_retrieve(args) -> int:
    # *index* holds the manifest that --out persists
    if args.index:
        index = _load_snapshot(load_index, args.index)
        if args.corpus_dir:
            _refresh(index, args.corpus_dir)
        pool = RetrievalIndex.from_index(index)
    elif args.corpus_dir:
        index = pool = RetrievalIndex(dialect=args.dialect)
        _refresh(pool, args.corpus_dir)
    else:
        raise SystemExit("one of --corpus-dir or --index is required")
    if not pool.n_scripts:
        raise SystemExit("retrieval pool is empty")
    query = _read_script(args.script)
    try:
        hits = pool.top_k(query, args.k, verify=args.audit)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    stats = pool.stats()
    print(
        f"pool [{stats['dialect']}]: {stats['n_unique_scripts']} unique scripts, "
        f"{stats['n_band_buckets']} band buckets, "
        f"{stats['n_schema_tokens']} schema tokens"
        + (" [audited]" if args.audit else "")
    )
    for rank, hit in enumerate(hits, start=1):
        first_line = hit.record.source.splitlines()[0] if hit.record.source else ""
        print(f"{rank:3d}  {hit.score:.4f}  {hit.content_hash[:12]}  {first_line}")
    if args.out:
        save_index(index, args.out)
        print(f"pool snapshot -> {args.out}")
    return 0


def cmd_index(args) -> int:
    if args.index_command == "retrieve":
        return cmd_index_retrieve(args)
    if args.index_command == "build":
        index = CorpusIndex(dialect=args.dialect)
        report = _refresh(index, args.corpus_dir)
        if not index.n_scripts:
            raise SystemExit(
                f"no indexable scripts found in {args.corpus_dir!r} "
                f"({report.failed} failed)"
            )
        save_index(index, args.out)
        print(f"indexed {index.n_scripts} scripts -> {args.out}")
        _print_index_summary(index)
        return 0

    index = _load_snapshot(load_index, args.index)
    if args.index_command == "update":
        report = _refresh(index, args.corpus_dir or index.corpus_dir)
        if args.audit:
            index.verify()
        save_index(index, args.index)
        summary = ", ".join(f"{k}={v}" for k, v in report.as_dict().items())
        print(f"updated {args.index}: {summary}")
        for name in report.failed_paths:
            print(f"warning: failed to index {name}", file=sys.stderr)
        _print_index_summary(index)
        return 0

    # stats
    if args.audit:
        index.verify()
        print("audit: incremental index is bit-identical to a cold rebuild")
    _print_index_summary(index)
    for key, value in index.stats().as_dict().items():
        print(f"  {key}: {value}")
    return 0


def cmd_dialect(args) -> int:
    from .dialects import dialect_names, get_dialect

    if args.dialect_command == "list":
        for name in dialect_names():
            print(get_dialect(name).describe())
        return 0

    # verify
    from .dialects.verify import verify_dialect

    records = verify_dialect(args.dialects)
    for name in sorted(records):
        print(f"{name}: fixture replay is byte-identical")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .server import ServerConfig, StandardizationServer

    try:
        config = ServerConfig(
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            queue_limit=args.queue_limit,
            warm_limit=args.warm_limit,
            audit=args.audit,
            default_deadline_s=args.deadline_s,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc

    async def _run() -> None:
        server = StandardizationServer(config)
        await server.start()
        listening = []
        if config.socket_path:
            listening.append(f"unix:{config.socket_path}")
        if server.tcp_address:
            listening.append("tcp:%s:%d" % server.tcp_address)
        print(
            f"repro server listening on {', '.join(listening)}"
            + (" [audit]" if config.audit else ""),
            file=sys.stderr,
        )
        await server.wait_closed()

    asyncio.run(_run())
    print("repro server drained", file=sys.stderr)
    return 0


def cmd_client(args) -> int:
    from .server import ServerClient
    from .server.protocol import canonical

    if args.socket is None and (args.host is None or args.port is None):
        raise SystemExit("error: connect with --socket or with --host/--port")
    op = args.op.replace("-", "_")
    message: Dict[str, Any] = {"op": op}
    if op not in ("ping", "stats", "shutdown"):
        if not args.script:
            raise SystemExit(f"error: {args.op} requires --script")
        message["params"] = _job_params(op, args)
        if args.deadline_s is not None:
            message["deadline_s"] = args.deadline_s
    with ServerClient(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        timeout=args.timeout,
    ) as client:
        response = client.request(message)
    print(canonical(response))
    return 0 if response.get("ok") else 1


_COMMANDS = {
    "dialect": cmd_dialect,
    "index": cmd_index,
    "build-workload": cmd_build_workload,
    "serve": cmd_serve,
    "client": cmd_client,
    **{command: cmd_job for command in JOB_COMMANDS},
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except AuditMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
