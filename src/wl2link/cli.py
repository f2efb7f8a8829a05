"""Command-line front end: refine, distinguish, power-check, fixtures, predict.

Exit codes: 0 success, 1 usage error, 2 runtime error. Identical
invocations produce byte-identical JSON, except for ``predict``'s
``featurize_seconds``, which is a wall-clock timing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from .generate import erdos_renyi, ring_lattice
from .graph import load_edgelist, load_labels
from .linkpred import benchmark
from .harness import (
    Corpus,
    builtin_fixtures,
    fixtures_corpus,
    power_check,
    random_corpus,
)
from .refine import (
    RefinementError,
    TestKind,
    indistinguishable,
    refine_to_stable,
)

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands = ()  # the top-level parser's command names
    command_flags = {}  # the top-level parser's: flag -> the commands that take it

    def error(self, message):
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        # Name an unknown flag first, not its value read as the command or a missing
        # required flag; a command's parser has no commands, so checks all its args.
        for arg in itertools.takewhile(lambda arg: arg not in self.commands, args):
            flag = arg.partition("=")[0]
            if flag.startswith("--") and flag not in self._option_string_actions:
                if flag in self.command_flags:
                    names = ", ".join(self.command_flags[flag])
                    raise UsageError(f"{flag} is an option of {names}; put it after the command")
                if self.commands:
                    raise UsageError(f"{flag} is not an option of wl2link or of any command")
                raise UsageError(f"unrecognized arguments: {flag}")
        return super().parse_known_args(args, namespace)


def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected 'p,q', got {text!r}")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"non-integer pair {text!r}")
    return (p, q)


def _parse_options(spec: str, types: dict) -> dict:
    """The 'k=v,...' options after the ':' of ``spec``, each value read by
    ``types[k]``. An unknown key, a missing '=' or a bad value is a usage error."""
    options = {}
    rest = spec.partition(":")[2]
    for item in rest.split(",") if rest else ():
        k, eq, v = item.partition("=")
        if k not in types:
            raise UsageError(f"unknown option {k!r} in {spec!r}; valid: {', '.join(types)}")
        if not eq:
            raise UsageError(f"option {k!r} in {spec!r} needs a value")
        try:
            options[k] = types[k](v)
        except ValueError:
            raise UsageError(f"bad {types[k].__name__} {v!r} for {k!r} in {spec!r}") from None
    return options


def _parse_kind(name: str) -> TestKind:
    try:
        return TestKind.parse(name)
    except RefinementError as exc:
        raise UsageError(str(exc))


def _load_graph(path: str, labels_path: str = None):
    labels = None
    if labels_path is not None:
        labels = load_labels(Path(labels_path).read_text())
    return load_edgelist(Path(path).read_text(), labels)


def _emit(args, text: str):
    if not args.quiet:
        print(text)


# -- commands ----------------------------------------------------------------


def cmd_refine(args) -> int:
    kind = _parse_kind(args.test)
    g = _load_graph(args.graph, args.labels)
    mask = _parse_pair(args.mask) if args.mask else None
    result = refine_to_stable(kind, g, mask=mask, max_iters=args.max_iters)
    if args.output == "json":
        print(result.to_json())
        return 0
    _emit(args, f"test: {kind.value}")
    _emit(args, f"stable_at: {result.stable_at}")
    for t, cmap in enumerate(result.history):
        _emit(args, f"iteration {t}: {cmap.num_classes()} classes")
    if mask is not None:
        session = result.session
        target_color = session.ordered_key(mask)[0]
        # count read-outs as units too, as featurize does, so the class
        # always includes the target
        units = {**session.colors, **session.readouts}
        size = sum(1 for c in units.values() if c == target_color)
        _emit(args, f"target stable color class size: {size}")
    return 0


def cmd_distinguish(args) -> int:
    kind = _parse_kind(args.test)
    ga = _load_graph(args.graph_a)
    gb = _load_graph(args.graph_b)
    ea = _parse_pair(args.link_a)
    eb = _parse_pair(args.link_b)
    res = indistinguishable(kind, ea, ga, eb, gb, max_iters=args.max_iters)
    if args.output == "json":
        print(
            json.dumps(
                {
                    "test": kind.value,
                    "distinguished": res.distinguished,
                    "iteration": res.distinguished_at,
                    "iterations_run": res.iterations,
                    "stable": res.stable,
                }
            )
        )
    elif res.distinguished:
        _emit(args, f"distinguished at iteration {res.distinguished_at}")
    else:
        state = f"stable at {res.iterations}" if res.stable else "iteration cap reached"
        _emit(args, f"indistinguishable ({state})")
    return 0


def _build_corpus(spec: str) -> Corpus:
    parts = []
    for piece in spec.split("+"):
        piece = piece.strip()
        if piece == "fixtures":
            parts.append(fixtures_corpus())
        elif piece.partition(":")[0] == "random":
            parts.append(random_corpus(**_parse_options(piece, {"count": int, "seed": int})))
        elif piece == "default":
            parts.append(fixtures_corpus())
            parts.append(random_corpus())
        else:
            raise UsageError(
                f"unknown corpus spec {piece!r}; use default, fixtures, "
                "or random[:count=N,seed=S], joined with '+'"
            )
    return parts[0] if len(parts) == 1 else Corpus.merge(*parts)


def cmd_power_check(args) -> int:
    corpus = _build_corpus(args.corpus)
    kinds = None
    if args.tests:
        kinds = [_parse_kind(name) for name in args.tests.split(",")]
    report = power_check(corpus, kinds=kinds, max_iters=args.max_iters)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n")
        _emit(args, f"wrote {args.out}")
    if args.output == "json":
        print(text)
    else:
        _emit(args, f"instances: {report.num_instances}")
        _emit(args, f"instance pairs: {report.num_pairs}")
        for name, entry in sorted(report.implications.items()):
            status = "holds" if entry["holds"] else f"{entry['violations']} violations"
            _emit(args, f"{name}: {status}")
    return 0


def cmd_fixtures(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for fixture in builtin_fixtures():
        entry = {
            "name": fixture.name,
            "target_a": list(fixture.target_a),
            "target_b": list(fixture.target_b),
            "note": fixture.note,
            "expected": {},
            "files": {},
        }
        for side, g in (("a", fixture.graph_a), ("b", fixture.graph_b)):
            path = out / f"{fixture.name}-{side}.edgelist"
            lines = [f"# {fixture.name} side {side}, n={g.n}"]
            lines += [f"{u} {v}" for u, v in g.edge_list()]
            path.write_text("\n".join(lines) + "\n")
            entry["files"][side] = path.name
        for kind, expect in sorted(fixture.expected.items(), key=lambda kv: kv[0].value):
            verdict = indistinguishable(
                kind, fixture.target_a, fixture.graph_a, fixture.target_b, fixture.graph_b
            )
            if verdict.distinguished != expect:
                raise RefinementError(
                    f"fixture {fixture.name}: {kind.value} verdict "
                    f"{verdict.distinguished} != expected {expect}"
                )
            entry["expected"][kind.value] = {
                "distinguished": expect,
                "iteration": verdict.distinguished_at,
            }
        manifest.append(entry)
    manifest_path = out / "manifest.json"
    text = json.dumps(manifest, indent=2) + "\n"
    manifest_path.write_text(text)
    if args.output == "json":
        sys.stdout.write(text)
    else:
        _emit(args, f"wrote {len(manifest)} fixtures and {manifest_path}")
    return 0


def _generate_graph(spec: str):
    name = spec.partition(":")[0]
    try:
        if name == "ring":
            kw = _parse_options(spec, {"n": int, "k": int, "rewire": float, "seed": int})
            return ring_lattice(
                kw.get("n", 200), kw.get("k", 4), kw.get("rewire", 0.1), seed=kw.get("seed", 0)
            )
        if name == "er":
            kw = _parse_options(spec, {"n": int, "p": float, "seed": int})
            return erdos_renyi(kw.get("n", 200), kw.get("p", 0.03), seed=kw.get("seed", 0))
    except ValueError as exc:
        raise UsageError(f"bad generator spec {spec!r}: {exc}")
    raise UsageError(f"unknown generator {name!r}; use ring:... or er:...")


def cmd_predict(args) -> int:
    kind = _parse_kind(args.test)
    if bool(args.graph) == bool(args.generate):
        raise UsageError("predict needs exactly one of --graph or --generate")
    if args.graph:
        g = _load_graph(args.graph)
        dataset = os.path.basename(args.graph)
    else:
        g = _generate_graph(args.generate)
        dataset = args.generate
    report = benchmark(g, kind, split_seed=args.seed, width=args.width, dataset=dataset)
    if args.output == "json":
        print(report.to_json())
    else:
        _emit(args, f"dataset: {report.dataset} (n={report.n}, m={report.m})")
        _emit(args, f"test: {kind.value}")
        _emit(args, f"val AUC: {report.val_auc:.4f}")
        _emit(args, f"test AUC: {report.test_auc:.4f}")
        _emit(args, f"featurize seconds: {report.featurize_seconds:.2f}")
        _emit(args, f"isolated nodes: {report.isolated_nodes}")
    return 0


# -- entry point -------------------------------------------------------------


def _add_output_flags(parser, output, quiet):
    parser.add_argument("--output", choices=("json", "table"), default=output)
    parser.add_argument("--quiet", action="store_true", default=quiet)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: before the command, --out is the misplaced flag of
    # power-check and fixtures, not short for --output
    parser = _Parser(prog="wl2link", description=__doc__, allow_abbrev=False)
    _add_output_flags(parser, "table", False)
    # Every subparser takes the same two flags, so they may appear on either
    # side of the command; SUPPRESS keeps a subparser from clobbering values
    # parsed before the command name.
    common = argparse.ArgumentParser(add_help=False)
    _add_output_flags(common, argparse.SUPPRESS, argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], allow_abbrev=False, **kw)

    p = add_parser("refine", help="refine one graph to stability")
    p.add_argument("--graph", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--mask", default=None, help="target pair 'p,q'")
    p.add_argument("--labels", default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.set_defaults(func=cmd_refine)

    p = add_parser("distinguish", help="compare two (graph, link) instances")
    p.add_argument("--graph-a", required=True)
    p.add_argument("--link-a", required=True)
    p.add_argument("--graph-b", required=True)
    p.add_argument("--link-b", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--max-iters", type=int, default=None)
    p.set_defaults(func=cmd_distinguish)

    p = add_parser("power-check", help="verify the power partial order")
    p.add_argument("--corpus", default="default")
    p.add_argument("--tests", default=None, help="comma-separated test kinds")
    p.add_argument("--out", default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.set_defaults(func=cmd_power_check)

    p = add_parser("fixtures", help="write fixture edge lists + manifest")
    p.add_argument("--out", default="fixtures")
    p.set_defaults(func=cmd_fixtures)

    p = add_parser("predict", help="link-prediction AUC benchmark")
    p.add_argument("--graph", default=None)
    p.add_argument("--generate", help="ring:n=..,k=..,rewire=..,seed=.. or er:n=..,p=..,seed=..")
    p.add_argument("--test", required=True)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--seed", type=int, default=0, help="split seed")
    p.set_defaults(func=cmd_predict)

    # Before the command, a command's flag would be an unknown extra and its
    # value would read as the command name ("invalid choice: '3'"), so
    # _Parser.parse_known_args names the commands that take it.
    parser.command_flags = {}
    for name, command in sub.choices.items():
        for flag in command._option_string_actions:
            parser.command_flags.setdefault(flag, []).append(name)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
