"""Command line driver: batch search, re-verification, and small reports.

One table, ``THEOREMS``, states what each mode is: its certifier, the
theorem name its records carry, the flags it takes, the subject key of
its second parameter, search's congruence screen and its ledger printer.
Search's modes and screens, ``verify``'s flag checks and ``verify
--file``'s record heads are all read off it.

Search enumerates parameter pairs by increasing max(s, t), then
lexicographically within each shell, so runs are reproducible; results
are emitted in enumeration order regardless of worker count.  Only the
pairs where p^depth divides s or t are generated, each with its index in
the full enumeration, because a coprime pair carries its whole p-adic
depth in one parameter.  A worker returns each certificate's finished
output line in the requested format (``--format`` jsonl, csv or pretty,
the last two read off the certificate, with no record written or
parsed); lines are written and flushed one at a time, and nothing is
buffered.

``verify --file`` reads only the theorem and subject from the fixed head
of each stored line, and compares the line with the fresh record's line
first.  It parses the whole line, and compares the two as dicts, only
when the texts differ or before any outcome but ok, so a record stored
with another key order or spacing still verifies, a MISMATCH names the
first differing field, and a line that is no record is named as such.

Start-up is kept lean, since ``verify --file`` and short searches pay it
on every invocation: the process pool (and the multiprocessing machinery
behind it) is imported only when a search asks for more than one worker,
and ``hashlib`` only when a checkpoint fingerprint is computed.

A checkpoint file keyed by a hash of the search configuration permits
resuming an interrupted run.  It is rewritten after every 32 handled
candidates and once when the search ends.  A resumed run first cuts its
output file back to the records the checkpoint vouches for, so records
emitted after the last checkpoint write are not duplicated.

Exit codes: 0 success, 1 completed but a hypothesis check failed (or a
search found nothing, or a stored certificate did not re-verify); a
refusal prints one line naming the check, such as ``selmer-table``'s
ell not proved prime, or ``heights``' torsion base point or a doubling
past its bit budget (``height-digit-budget``).  2 bad usage, such as
``verify --file`` with any flag of single-shot ``verify`` (``--s``,
``--t``, ``--p``, ``--n``, ``--mode`` or ``--out``), a flag or value the
mode's theorem does not take (``Theorem.flags``: ``--p`` or ``--n``
for the rank-one fragment, an ``--n`` other than 1 for the square
subfamily), or an unsatisfiable search configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from contextlib import ExitStack
from itertools import islice
from typing import NamedTuple

from .arith import is_prime
from .certify import (
    SCHEMA_VERSION,
    certificate_to_dict,
    certificate_to_jsonl,
    certify_divisibility,
    certify_infinite_instance,
    certify_square_subfamily,
    check_p,
    record_head,
)
from .curve import base_point, make_family
from .descent import (
    certify_rank_one,
    rank_bound_by_residue,
    require_proved_prime,
    selmer,
)
from .errors import PreconditionFailure
from .heights import canonical_height, naive_height, silverman_gaps, vy_lower_bound

_BATCH = 32


class SearchConfig(NamedTuple):
    mode: str
    p: int
    n: int
    max_param: int
    target_count: int
    workers: int
    fmt: str = "jsonl"  # the line format of each certificate

    def fingerprint(self) -> str:
        # target_count and fmt deliberately excluded: extending a finished run
        # with a higher target must reuse the same checkpoint
        import hashlib

        key = f"{self.mode}|{self.p}|{self.n}|{self.max_param}"
        return hashlib.sha256(key.encode()).hexdigest()[:16]


def iter_parameter_pairs(max_param: int, q: int = 1):
    """(index, s, t) by increasing max(s, t); within a shell the pairs
    (1, m) .. (m-1, m) come before (m, 1) .. (m, m).

    Only the pairs with q | s or q | t are yielded, each with its index in
    the full enumeration: shell m starts at index (m-1)^2.  When q | m the
    whole shell qualifies; otherwise the other parameter steps by q.
    """
    for m in range(1, max_param + 1):
        start = (m - 1) ** 2
        step = 1 if m % q == 0 else q
        for s in range(step, m, step):
            yield start + s - 1, s, m
        for t in range(step, m + 1, step):
            yield start + m + t - 2, m, t


def cheap_filter(mode: str, p: int, n: int, s: int, t: int) -> bool:
    """Inexpensive divisibility and congruence screens; no primality, no certs.

    A coprime pair has p dividing at most one parameter, so "p divides
    exactly one of the two parameters to depth n + 1" is the single test
    p^(n+1) | s t; the mode's theorem then screens the pair by its own
    congruences (``Theorem.screen``).
    """
    from math import gcd

    return gcd(s, t) == 1 and not (s * t) % p ** (n + 1) and THEOREMS[mode].screen(s, t)


def certify_candidate(task: tuple[str, int, int, int, int, str]) -> str | None:
    """Worker body: full certification, then the certificate's output line
    in the task's format (jsonl, csv or pretty); None when a precondition
    fails.  The csv and pretty lines are read off the certificate itself,
    so no record is written or parsed for them."""
    mode, p, n, s, t, fmt = task
    try:
        cert = THEOREMS[mode].certify(s, t, p, n)
    except PreconditionFailure:
        return None
    if fmt == "jsonl":
        return certificate_to_jsonl(cert)
    sub = cert.subject
    if fmt == "csv":
        return f"{sub['s']},{sub['t']},{sub['ell']},{sub['p']},{sub['n']},{cert.theorem}"
    return f"s={sub['s']} t={sub['t']} ell={sub['ell']}: {cert.conclusion} [{cert.theorem}]"


def _load_checkpoint(path: str, fingerprint: str):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return 0, 0
    if data.get("config") != fingerprint:
        raise SystemExit(
            f"checkpoint {path} belongs to a different search configuration"
        )
    return int(data["next_index"]), int(data["found"])


def _save_checkpoint(path: str, fingerprint: str, next_index: int, found: int):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"config": fingerprint, "next_index": next_index, "found": found}, fh)
    os.replace(tmp, path)


def _cut_to_checkpoint(
    path: str, checkpoint: str, fingerprint: str, header_lines: int
) -> int:
    """Cut a resumed run's output file back to its header lines and the
    records its checkpoint vouches for; return how many lines it kept.

    Later records were emitted after the last checkpoint write, and the
    resumed run emits them again.  A file holding fewer records than the
    checkpoint counts is refused and left as it is.
    """
    found = _load_checkpoint(checkpoint, fingerprint)[1]
    keep = header_lines + found
    kept = end = 0
    exists = os.path.exists(path)
    if exists:
        with open(path, "rb") as fh:
            for line in fh:
                if kept == keep or not line.endswith(b"\n"):
                    break
                kept += 1
                end += len(line)
    if kept < keep and found:
        raise SystemExit(
            f"{path} holds fewer than the {found} record(s) checkpoint "
            f"{checkpoint} vouches for"
        )
    if exists:
        os.truncate(path, end)
    return kept


def run_search(cfg: SearchConfig, emit, checkpoint: str | None = None) -> int:
    """Drive the search; call emit(line) for each certificate. Returns count.

    One loop serves any worker count: candidates go out in batches of
    ``_BATCH``, through the builtin ``map`` for one worker or a process
    pool's ``map`` for more, and come back in order.  The checkpoint is
    rewritten after every ``_BATCH`` handled candidates and once when the
    search ends, exhausted or at the target count.
    """
    start_index, found = 0, 0
    if checkpoint:
        start_index, found = _load_checkpoint(checkpoint, cfg.fingerprint())

    # a coprime pair carries its whole p-adic depth in one parameter, so
    # only pairs where p^(n+1) divides s or t can pass the filter
    q = cfg.p ** (cfg.n + 1)
    candidates = (
        (idx, (cfg.mode, cfg.p, cfg.n, s, t, cfg.fmt))
        for idx, s, t in iter_parameter_pairs(cfg.max_param, q)
        if idx >= start_index and cheap_filter(cfg.mode, cfg.p, cfg.n, s, t)
    )
    next_index, unsaved = start_index, 0

    def handle(idx: int, line: str | None) -> bool:
        nonlocal found, next_index, unsaved
        if line is not None:
            emit(line)
            found += 1
        next_index, unsaved = idx + 1, unsaved + 1
        if checkpoint and unsaved == _BATCH:
            _save_checkpoint(checkpoint, cfg.fingerprint(), next_index, found)
            unsaved = 0
        return found >= cfg.target_count

    with ExitStack() as stack:
        mapper = map
        if cfg.workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            # at most _BATCH tasks are ever in flight
            mapper = stack.enter_context(
                ProcessPoolExecutor(max_workers=min(cfg.workers, _BATCH))).map
        while batch := list(islice(candidates, _BATCH)):
            lines = mapper(certify_candidate, [task for _, task in batch])
            # any() stops at the target, and the builtin map is lazy, so a
            # single worker certifies nothing past it
            if any(handle(idx, line) for (idx, _), line in zip(batch, lines)):
                break
    if checkpoint and unsaved:
        _save_checkpoint(checkpoint, cfg.fingerprint(), next_index, found)
    return found


def _open_out(path: str, append: bool):
    if path == "-":
        return sys.stdout, False
    return open(path, "a" if append else "w", encoding="utf-8"), True


def _search_config_error(args) -> str | None:
    if args.target_count < 1:
        return "--target-count must be at least 1"
    if args.max_param < 1:
        return "--max-param must be at least 1"
    if args.n < 1:
        return "depth target n must be at least 1"
    try:
        check_p(args.p)
    except PreconditionFailure as exc:
        return f"{exc.reason}: {exc.detail}"
    problem = _flag_error(args.mode, {"n": args.n})
    if problem is not None:
        return problem
    # the p-adic depth lands entirely inside one parameter (the pair is
    # coprime), so that parameter must reach p^depth within the range.
    # p^depth >= 2^(depth (bits(p) - 1)), so a depth that puts this
    # exponent at max_param's bit length or past it is refused unbuilt; a
    # power that is built has fewer than twice max_param's bits.  The depth
    # is n + 1 in every mode; the flag check pins the subfamily's n to 1
    depth = args.n + 1
    if (depth * (args.p.bit_length() - 1) >= args.max_param.bit_length()
            or args.p**depth > args.max_param):
        return (
            f"unsatisfiable: no parameter up to {args.max_param} can carry "
            f"{args.p}-adic valuation {depth}, as {args.p}^{depth} > {args.max_param}"
        )
    return None


def cmd_search(args) -> int:
    problem = _search_config_error(args)
    if problem is not None:
        print(f"config error: {problem}", file=sys.stderr)
        return 2
    cfg = SearchConfig(
        mode=args.mode,
        p=args.p,
        n=args.n,
        max_param=args.max_param,
        target_count=args.target_count,
        workers=args.workers,
        fmt=args.format,
    )
    resuming = bool(args.checkpoint and os.path.exists(args.checkpoint))
    header_lines = 1 if args.format == "csv" else 0
    kept = 0
    if resuming:
        # stdout cannot be cut back, so a resumed run there just appends
        kept = header_lines if args.out == "-" else _cut_to_checkpoint(
            args.out, args.checkpoint, cfg.fingerprint(), header_lines
        )
    stream, close_me = _open_out(args.out, append=resuming)

    def emit(line: str):
        stream.write(line + "\n")
        stream.flush()

    if header_lines and not kept:
        stream.write("s,t,ell,p,n,theorem\n")
    try:
        found = run_search(cfg, emit, checkpoint=args.checkpoint)
    finally:
        if close_me:
            stream.close()
    print(
        f"{found} certificate(s) from pairs with max(s,t) <= {cfg.max_param}",
        file=sys.stderr,
    )
    return 0 if found > 0 else 1


def _shown(value) -> str:
    """A record value as the ledger prints it; a list of decimal strings
    reads as the list of integers it stands for, such as ``[2, 5641, 5]``."""
    return f"[{', '.join(value)}]" if isinstance(value, list) else str(value)


def _print_ledger(record: dict) -> None:
    print(f"theorem: {record['theorem']}")
    print("subject: " + " ".join(f"{k}={v}" for k, v in record["subject"].items()))
    for entry in record["checks"]:
        line = f"  [{entry['status']}] {entry['name']}"
        if entry["witness"]:
            line += "  " + " ".join(
                f"{k}={_shown(v)}" for k, v in entry["witness"].items())
        if entry["citation"]:
            line += f"  <- {entry['citation']}"
        print(line)
    print(f"conclusion: {record['conclusion']}")
    print(f"basis: {record['conclusion_basis']}")
    print(f"unramified rank lower bound: {record['unramified_rank_lower_bound']}")
    if record["ramified_primes"] is not None:
        print(f"division field ramified only at: {', '.join(record['ramified_primes'])}")
    if record["distinctness_key"] is not None:
        print(f"distinctness key: {record['distinctness_key']}")


def _print_rank_fragment(record: dict) -> None:
    sub, sel = record["subject"], record["selmer"]
    print(f"theorem: {record['theorem']}")
    print(f"subject: s={sub['s']} t={sub['t']} ell={sub['ell']}")
    print(f"  [pass] residue-classes  ell_mod_16={record['ell_mod_16']}"
          f" t_mod_8={record['t_mod_8']}")
    print(
        f"  [pass] descent-rank-cap  dim_forward={sel['dim_forward']}"
        f" dim_dual={sel['dim_dual']} rank_upper={sel['rank_upper']}"
    )
    print(f"  [pass] base-point-nontorsion  {record['base_point_nontorsion']}")
    print(f"conclusion: rank = {record['rank']}")


class Theorem(NamedTuple):
    """What one CLI mode certifies, what its records are called, how search
    screens its pairs and how its ledger is shown.

    ``certify`` takes (s, t, p, n) in every mode.  It names its certifier
    inside a lambda body, so the name is looked up in this module on every
    call, and rebinding it (a test's monkeypatch, a profiler's wrapper)
    takes effect here too.  Every mode's result has its line written by
    ``certificate_to_jsonl``, the one record writer, which this module
    calls by name, so a wrapper bound here sees every line that search,
    ``verify --out`` and ``verify --file`` write or compare.  ``show``
    prints the ledger from the parsed record (``certificate_to_dict``).
    ``flags`` names what the mode takes besides s and t, each with the one
    value it accepts or None for any: its record's subject carries them,
    and search and verify refuse any other flag or value; search runs the
    modes that take ``--p``.  ``record`` is the theorem name its records
    carry, and ``second`` the subject key of its second parameter.
    ``screen`` is the congruence screen search applies to a coprime pair
    with p^(n+1) | s t before certifying it.  It may reject only pairs the
    certifier refuses, so it cannot change what search emits.
    """

    certify: Callable
    record: str
    show: Callable = _print_ledger
    flags: tuple[tuple[str, int | None], ...] = (("p", None), ("n", None))
    second: str = "t"
    screen: Callable[[int, int], bool] = lambda s, t: True


#: CLI mode -> theorem; search, verify and verify --file all dispatch here,
#: and every other per-mode fact in this module is read off it.
THEOREMS = {
    "main": Theorem(lambda s, t, p, n: certify_divisibility(s, t, p, n), "divisibility"),
    # two points of depth 1 each: the subfamily certifies n = 1 only
    "square_subfamily": Theorem(lambda s, t, p, n: certify_square_subfamily(s, t, p),
                                "square-subfamily", flags=(("p", None), ("n", 1)),
                                second="tau"),
    # certify_rank_one's congruences; it refuses every pair they reject
    "infinite": Theorem(lambda s, t, p, n: certify_infinite_instance(s, t, p, n),
                        "infinite-family", screen=lambda s, t: s % 2 == 0 and t % 8 in (3, 5)),
    "rank": Theorem(lambda s, t, p, n: certify_rank_one(s, t), "rank-one",
                    show=_print_rank_fragment, flags=()),
}


def _flag_error(mode: str, given: dict[str, int | None]) -> str | None:
    """Why the flags ``given`` (name -> value, None where not given) do not
    fit ``mode``'s theorem: flags it takes no value for, or a value other
    than the one it accepts; None when they fit."""
    takes = dict(THEOREMS[mode].flags)
    given = {name: value for name, value in given.items() if value is not None}
    extra = "/".join(f"--{name}" for name in given if name not in takes)
    if extra:
        return f"mode {mode} takes no {extra}"
    for name, value in given.items():
        if takes[name] not in (None, value):
            return f"mode {mode} takes --{name} {takes[name]} only, not --{name} {value}"
    return None


def _write_record(out: str | None, line: str) -> None:
    if out is None:
        print(line)
    else:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _record_task(mode: str, subject) -> tuple[str, int, int, int | None, int | None]:
    """The (mode, s, t, p, n) that recomputes the record of ``mode``'s
    theorem about ``subject``.  Raises ValueError naming what makes
    ``subject`` no subject of that theorem."""
    theorem = THEOREMS[mode]
    keys = ("s", theorem.second, *(name for name, _ in theorem.flags))
    values = [subject.get(k) for k in keys] if isinstance(subject, dict) else [None]
    if not all(isinstance(v, str) for v in values):
        raise ValueError(f"subject {subject!r} lacks a decimal string for one of {keys}")
    s, t, *rest = map(int, values)  # a ValueError names the bad literal
    p, n = rest or (None, None)
    return mode, s, t, p, n


def _first_difference(stored, fresh, path: str = "") -> str | None:
    """Path of the first field where two JSON values differ, such as
    ``checks[9].witness.index_square_bound``, or None where they are equal.
    Object keys are walked in the stored order, then the fresh-only ones."""
    if isinstance(stored, dict) and isinstance(fresh, dict):
        for key in [*stored, *(k for k in fresh if k not in stored)]:
            sub = f"{path}.{key}" if path else key
            if key not in stored or key not in fresh:
                return sub
            found = _first_difference(stored[key], fresh[key], sub)
            if found is not None:
                return found
        return None
    if isinstance(stored, list) and isinstance(fresh, list):
        for i, (a, b) in enumerate(zip(stored, fresh)):
            found = _first_difference(a, b, f"{path}[{i}]")
            if found is not None:
                return found
        if len(stored) != len(fresh):
            return f"{path}[{min(len(stored), len(fresh))}]"
        return None
    return None if stored == fresh else path


#: The head of a written record, up to its subject -> the mode of its theorem.
_RECORD_HEADS = {record_head(theorem.record): mode for mode, theorem in THEOREMS.items()}
_raw_decode = json.JSONDecoder().raw_decode


def _head_task(raw: str) -> tuple[str, int, int, int | None, int | None] | None:
    """``_record_task`` of a line that begins as a written record does, read
    from its theorem and subject alone, or None where the head is another
    shape or names no task.  The rest of the line is not parsed: a caller
    trusts this only when the fresh record's line equals ``raw``."""
    end = raw.find(',"subject":') + len(',"subject":')
    mode = _RECORD_HEADS.get(raw[:end])
    try:
        return mode and _record_task(mode, _raw_decode(raw, end)[0])
    except ValueError:  # JSONDecodeError included
        return None


def _recompute(task) -> tuple:
    """The fresh certificate for a record task and its line, or the refusal
    it ends in and None."""
    try:
        cert = THEOREMS[task[0]].certify(*task[1:])
    except PreconditionFailure as exc:
        return exc, None
    return cert, certificate_to_jsonl(cert)


def _check_line(raw: str) -> tuple[bool, str]:
    """Whether a stored line re-verifies, and what ``verify --file`` says
    of it.  A line the fresh record writes again is ok, whatever its head
    would parse to in full; any other outcome parses the line first."""
    head = _head_task(raw)
    fresh, line = _recompute(head) if head else (None, None)
    if line != raw:
        try:
            stored = json.loads(raw)
            if not isinstance(stored, dict):
                raise ValueError(f"a JSON {type(stored).__name__}, not an object")
            if stored.get("schema") != SCHEMA_VERSION:
                raise ValueError(f"unsupported schema {stored.get('schema')!r}")
            theorem = stored.get("theorem")
            # compared, not hashed: a stored theorem may be a list
            mode = next((m for m, th in THEOREMS.items() if th.record == theorem), None)
            if mode is None:
                return False, f"unknown theorem {theorem}"
            task = _record_task(mode, stored.get("subject"))
        except ValueError as exc:  # JSONDecodeError included
            return False, f"not a certificate record ({exc})"
        if task != head:
            fresh, line = _recompute(task)
        if line is None:
            return False, f"REFUSED at check '{fresh.reason}'"
        # a record stored with another key order or spacing still matches
        # as a dict
        where = _first_difference(stored, json.loads(line))
        if where is not None:
            return False, f"MISMATCH for subject {stored.get('subject')} at {where}"
    return True, f"ok {fresh.conclusion}"


def _verify_file(args) -> int:
    bad = 0
    total = 0
    try:
        fh = open(args.file, encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    with fh:
        for lineno, raw in enumerate(fh, 1):
            raw = raw.strip()
            if not raw:
                continue
            total += 1
            ok, said = _check_line(raw)
            bad += not ok
            if not ok or args.verbose:
                print(f"line {lineno}: {said}")
    print(f"{total - bad}/{total} certificates verified")
    return 0 if bad == 0 and total > 0 else 1


def _refused(exc: PreconditionFailure) -> int:
    print(f"REFUSED at check '{exc.reason}': {exc.detail}")
    return 1


def cmd_verify(args) -> int:
    if args.file is not None:
        given = [flag for flag, value in (("--s", args.s), ("--t", args.t),
                 ("--p", args.p), ("--n", args.n), ("--mode", args.mode),
                 ("--out", args.out)) if value is not None]
        if given:
            print(f"--file re-verifies stored records; it takes no {'/'.join(given)}",
                  file=sys.stderr)
            return 2
        return _verify_file(args)
    if args.s is None or args.t is None:
        print("single-shot verification needs --s and --t (or --file)", file=sys.stderr)
        return 2
    mode = args.mode or "main"
    theorem = THEOREMS[mode]
    problem = _flag_error(mode, {"p": args.p, "n": args.n})
    if problem is None and args.p is None and "p" in dict(theorem.flags):
        problem = f"mode {mode} needs --p"
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    try:
        cert = theorem.certify(args.s, args.t, args.p, 1 if args.n is None else args.n)
    except PreconditionFailure as exc:
        return _refused(exc)
    theorem.show(certificate_to_dict(cert))
    _write_record(args.out, certificate_to_jsonl(cert))
    return 0


def cmd_selmer_table(args) -> int:
    if args.ells is None and args.max_ell < 2:
        print("--max-ell must be at least 2, the smallest prime", file=sys.stderr)
        return 2
    ells = args.ells or [q for q in range(2, args.max_ell + 1) if is_prime(q)]
    try:
        for ell in ells:
            require_proved_prime(ell)
    except PreconditionFailure as exc:
        return _refused(exc)
    print("ell,mod16,dim_forward,dim_dual,rank_upper,residue_prediction")
    for ell in ells:
        rep = selmer(ell)
        pred = rank_bound_by_residue(ell)
        assert rep.rank_upper == pred
        print(
            f"{ell},{ell % 16},{rep.dim_forward},{rep.dim_dual},"
            f"{rep.rank_upper},{pred}"
        )
    return 0


def cmd_heights(args) -> int:
    if args.s == 0 and args.t == 0:
        print("(s, t) = (0, 0) gives a degenerate curve", file=sys.stderr)
        return 2
    if args.iterations < 1:
        print("--iterations must be at least 1", file=sys.stderr)
        return 2
    c = make_family(args.s, args.t)
    p0 = base_point(args.s, args.t)
    try:
        h = canonical_height(c, p0, args.iterations)
    except PreconditionFailure as exc:
        return _refused(exc)
    gaps = silverman_gaps(c)
    print(f"ell = {-c.a}")
    print(f"naive height h(P) = {naive_height(p0):.6f}")
    print(f"canonical height in [{h.lo:.9f}, {h.hi:.9f}] ({h.iterations} doublings)")
    print(f"height gaps: -{gaps.lower_gap:.6f} / +{gaps.upper_gap:.6f}")
    try:
        floor = vy_lower_bound(c.a)
        print(f"height floor = {floor:.6f}")
        print(f"index bound m^2 <= {h.hi / floor:.4f}")
    except ValueError as exc:
        print(f"height floor unavailable: {exc}")
    return 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ellcert",
        description="Exact certificates for class-number divisibility in the "
        "quartic-twist family y^2 = x^3 - (s^4 + t^2) x",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search", help="enumerate parameters and certify")
    sp.add_argument("--mode", default="main", choices=tuple(
        mode for mode, theorem in THEOREMS.items() if "p" in dict(theorem.flags)))
    sp.add_argument("--p", type=int, default=5, help="odd prime >= 5")
    sp.add_argument("--n", type=int, default=1, help="filtration depth target")
    sp.add_argument("--max-param", type=int, required=True,
                    help="search all pairs with max(s,t) up to this")
    sp.add_argument("--target-count", type=int, default=10**9,
                    help="stop after this many certificates")
    sp.add_argument("--out", default="-", help="output path, - for stdout")
    sp.add_argument("--format", choices=("jsonl", "csv", "pretty"), default="jsonl")
    sp.add_argument("--checkpoint", default=None,
                    help="checkpoint file for resumable runs")
    sp.add_argument("--workers", type=int, default=1, help="worker processes")
    sp.set_defaults(func=cmd_search)

    vp_ = sub.add_parser(
        "verify", help="certify one parameter pair and print the full ledger"
    )
    vp_.add_argument("--s", type=int)
    vp_.add_argument("--t", type=int, help="t (or tau in the square subfamily)")
    vp_.add_argument("--p", type=int)
    vp_.add_argument("--n", type=int, help="filtration depth target (default 1)")
    vp_.add_argument("--mode", choices=tuple(THEOREMS), help="default main")
    vp_.add_argument("--out", default=None, help="append the JSONL record here")
    vp_.add_argument(
        "--file", default=None, help="re-verify a stored JSONL batch instead"
    )
    vp_.add_argument("--verbose", action="store_true")
    vp_.set_defaults(func=cmd_verify)

    st = sub.add_parser("selmer-table", help="descent rank caps for prime ell")
    group = st.add_mutually_exclusive_group(required=True)
    group.add_argument("--ells", type=_int_list, help="comma-separated primes")
    group.add_argument("--max-ell", type=int, help="all primes up to this")
    st.set_defaults(func=cmd_selmer_table)

    hp = sub.add_parser("heights", help="height report for one family member")
    hp.add_argument("--s", type=int, required=True)
    hp.add_argument("--t", type=int, required=True)
    hp.add_argument("--iterations", type=int, default=6)
    hp.set_defaults(func=cmd_heights)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
