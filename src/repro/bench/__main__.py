"""CLI: regenerate evaluation artifacts without pytest.

``python -m repro.bench --help`` lists the subcommands and
``python -m repro.bench COMMAND --help`` documents each one's flags.  A
first word that is not a subcommand runs artifacts:
``python -m repro.bench fig07 fig08 --jobs 2`` is
``python -m repro.bench run fig07 fig08 --jobs 2``.  The artifacts and
traced scenarios every subcommand accepts are declared once, in
:mod:`repro.bench.artifacts`.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import sys
import time

from repro.bench import check as check_mod
from repro.bench.artifacts import ARTIFACTS, SCENARIOS
from repro.bench.cache import ResultCache
from repro.bench.formats import format_rows
from repro.bench.runner import ShardIncomplete, SweepRunner
from repro.errors import ConfigurationError

DEFAULT_CACHE_DIR = ".bench_cache"
DEFAULT_JSON_OUT = "BENCH_results.json"

#: record fields a trajectory point carries into the result cache
_MERGE_FIELDS = ("wall_s", "sim_s", "events", "events_ff")


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _unknown(names, table, what: str) -> bool:
    """Print the exit-2 diagnostic for any of *names* not in *table*."""
    missing = [name for name in names if name not in table]
    if missing:
        print(f"unknown {what}: {', '.join(missing)}", file=sys.stderr)
        print("available:", ", ".join(table), file=sys.stderr)
    return bool(missing)


# ---------------------------------------------------------------------------
# run / list / merge
# ---------------------------------------------------------------------------

def _perf_history(json_out: str) -> list:
    """The perf history of previous runs of *json_out*, so the committed
    trajectory keeps its own before/after trail."""
    try:
        with open(json_out) as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        return []
    return list(previous.get("perf", {}).get("history", []))


def _write_trajectory(json_out: str, runner: SweepRunner, names, wall: float,
                      cache, jobs: int) -> None:
    from repro.bench.profile import perf_section

    history = _perf_history(json_out)
    trajectory = runner.trajectory()
    trajectory["cli"] = {
        "artifacts": names,
        "wall_s": wall,
        "cache_hits": 0 if cache is None else cache.hits,
        "cache_misses": 0 if cache is None else cache.misses,
    }
    perf = perf_section(runner.records, wall)
    # Every run appends itself, so the committed trajectory carries its
    # own before/after perf trail across changes.
    history.append({
        "wall_s": wall,
        "events": perf["events"],
        "events_ff": perf["events_ff"],
        "fidelity": perf["fidelity"],
        "jobs": jobs,
    })
    perf["history"] = history[-10:]
    trajectory["perf"] = perf
    _write_json(json_out, trajectory)
    print(f"wrote trajectory for {len(runner.records)} points "
          f"to {json_out}", file=sys.stderr)


def _print_summary(runner: SweepRunner, wall: float) -> None:
    from repro.bench.profile import perf_section

    records = runner.records
    perf = perf_section(records, wall)
    cached_n = sum(1 for r in records if r.cached)
    events_ff = perf["events_ff"]
    ff_note = f" (+{events_ff} fast-forwarded)" if events_ff else ""
    print(f"all: {len(records)} points ({cached_n} cached), "
          f"{perf['events']} events{ff_note} in {wall:.2f}s — "
          f"{perf['ns_per_event']:.0f} ns/event", file=sys.stderr)


def _sweep(names, cache, jobs: int, quick: bool, json_out, shard=None,
           profile_out=None, summary: bool = False) -> int:
    """Print each artifact's table from one runner; write the trajectory
    to *json_out* when given."""
    runner = SweepRunner(jobs=jobs, cache=cache, shard=shard)
    profiler = cProfile.Profile() if profile_out else None
    start = time.perf_counter()
    if profiler:
        profiler.enable()
    try:
        for name in names:
            artifact = ARTIFACTS[name]
            try:
                print(artifact.render(artifact.run(
                    runner=runner, **artifact.kwargs(quick))))
            except ShardIncomplete as exc:
                print(f"[shard {shard[0]}/{shard[1]}] {name}: partial — "
                      f"{exc.skipped} point(s) belong to other shards; "
                      "combine the shard trajectories with "
                      "`python -m repro.bench merge`")
            print()
    finally:
        runner.close()
        if profiler:
            profiler.disable()
            profiler.dump_stats(profile_out)
    wall = time.perf_counter() - start
    if profiler:
        print(f"pstats written to {profile_out} "
              f"(inspect: python -m pstats {profile_out})", file=sys.stderr)
    if json_out:
        _write_trajectory(json_out, runner, names, wall, cache, jobs)
    if summary:
        _print_summary(runner, wall)
    return 0


def _run(args) -> int:
    run_all = args.names == ["all"]
    names = list(ARTIFACTS) if run_all else args.names
    if _unknown(names, ARTIFACTS, "artifacts"):
        return 2
    json_out = args.json_out or (DEFAULT_JSON_OUT if run_all else None)
    if args.shard and json_out is None:
        # A shard run's only durable product is its trajectory; always
        # write one so `bench merge` has something to combine.
        json_out = "BENCH_shard{}of{}.json".format(*args.shard)
    cache = None if args.no_cache else ResultCache(args.cache)
    return _sweep(names, cache, args.jobs, args.quick, json_out,
                  shard=args.shard, profile_out=args.profile_out,
                  summary=run_all)


def _list(args) -> int:
    rows = [{"artifact": a.name,
             "quick": ", ".join(f"{k}={v}" for k, v in a.quick.items()),
             "tolerance": f"{a.tolerance:g}",
             "traced": "yes" if a.scenario else ""}
            for a in ARTIFACTS.values()]
    print(format_rows(rows, ["artifact", "quick", "tolerance", "traced"],
                      title="artifacts (python -m repro.bench --help "
                            "for the subcommands)"))
    print("\ntraced scenarios:", ", ".join(SCENARIOS))
    return 0


def _merge(args) -> int:
    """Import the executed points of trajectory JSONs (sharded or not)
    into the cache and render the complete artifacts."""
    cache = ResultCache(args.cache)
    artifacts: list = []
    imported = skipped = 0
    for path in args.shards:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot read trajectory {path}: {exc}", file=sys.stderr)
            return 2
        for name, art in doc.get("artifacts", {}).items():
            if name not in artifacts:
                artifacts.append(name)
            for point in art.get("points", []):
                if point.get("skipped"):
                    skipped += 1
                    continue
                if "value" not in point:
                    print(f"warning: {path}: point without a recorded "
                          "value; it will re-execute", file=sys.stderr)
                    continue
                record = {"value": point["value"]}
                record.update({field: point.get(field, 0)
                               for field in _MERGE_FIELDS})
                cache.put(point["key"], record)
                imported += 1
    print(f"merge: imported {imported} executed point(s) from "
          f"{len(args.shards)} trajectory file(s) ({skipped} skipped "
          f"entries); re-rendering {', '.join(artifacts)}", file=sys.stderr)
    if _unknown(artifacts, ARTIFACTS, "artifacts"):
        return 2
    return _sweep(artifacts, cache, args.jobs, args.quick, args.json_out)


# ---------------------------------------------------------------------------
# profile / validate-fidelity
# ---------------------------------------------------------------------------

def _profile(args) -> int:
    from repro.bench import profile as profile_mod

    report = profile_mod.profile_artifact(
        args.target, quick=args.quick, profile_out=args.profile_out,
        memory=args.memory, per_node=args.per_node)
    print(profile_mod.render_report(report))
    if args.target == "scale" and args.per_node:
        if profile_mod.record_scale_block(report, DEFAULT_JSON_OUT):
            print(f"recorded scale block in perf section of "
                  f"{DEFAULT_JSON_OUT}", file=sys.stderr)
    if args.json_out:
        _write_json(args.json_out, report)
        print(f"wrote profile report to {args.json_out}", file=sys.stderr)
    return 0


def _validate(args) -> int:
    from repro.bench import validate as validate_mod

    if args.explain:
        if not args.names:
            print("--explain needs traced scenario names; available: "
                  + ", ".join(SCENARIOS), file=sys.stderr)
            return 2
        if _unknown(args.names, SCENARIOS, "scenarios"):
            return 2
        reports = []
        for name in args.names:
            report = validate_mod.explain_divergence(name)
            print(validate_mod.render_explanation(report))
            print()
            reports.append(report)
        if args.json_out:
            _write_json(args.json_out,
                        {"schema": 1, "explanations": reports})
            print(f"wrote {len(reports)} divergence explanations to "
                  f"{args.json_out}", file=sys.stderr)
        return 0

    names = sorted(args.names) if args.names else list(ARTIFACTS)
    if _unknown(names, ARTIFACTS, "artifacts"):
        return 2
    reports = [validate_mod.validate_artifact(name, quick=args.quick)
               for name in names]
    print(validate_mod.render_validation(reports))
    if args.json_out:
        _write_json(args.json_out, {"schema": 1, "reports": reports})
        print(f"wrote {len(reports)} validation reports to {args.json_out}",
              file=sys.stderr)
    bad = [r for r in reports if not r["ok"]]
    if bad:
        print(f"FIDELITY MISMATCH: {len(bad)} artifact(s) out of "
              f"tolerance: {', '.join(r['artifact'] for r in bad)}",
              file=sys.stderr)
        return 1
    total_ff = sum(r["events_fast_forwarded"] for r in reports)
    print(f"validate-fidelity ok: {len(reports)} artifact(s), "
          f"{total_ff} events fast-forwarded within tolerance")
    return 0


# ---------------------------------------------------------------------------
# trace / critpath / check / diff
# ---------------------------------------------------------------------------

def _capture(args, **kwargs):
    """Replay ``args.scenario`` under a tracer; None (reported) when its
    ``--arg`` values are rejected."""
    from repro.obs import capture

    try:
        return capture.trace_artifact(args.scenario, **kwargs,
                                      **dict(args.scenario_args))
    except (ValueError, TypeError, ConfigurationError) as exc:
        print(exc, file=sys.stderr)
        return None


def _warn_dropped(cap) -> None:
    """Dropped spans never vanish silently: every CLI consumer says so."""
    dropped = cap.tracer.spans_dropped
    if dropped:
        print(f"warning: {dropped} span(s) dropped at ring-buffer "
              "capacity — attribution totals are INCOMPLETE (raise the "
              "tracer capacity or shrink the scenario)", file=sys.stderr)


def _write_flamegraph(cap, path: str) -> None:
    from repro.obs.critpath import write_flamegraph

    n = write_flamegraph(cap.tracer, path, cap.op_ids)
    print(f"wrote {n} collapsed stacks to {path}", file=sys.stderr)


def _trace(args) -> int:
    from repro.obs.export import (metrics_to_csv, render_phase_table,
                                  write_chrome_trace)

    cap = _capture(args)
    if cap is None:
        return 2
    _warn_dropped(cap)

    print(f"trace {cap.artifact}: {cap.description}")
    summary = cap.obs.summary()
    print(f"  {summary['spans']} spans over {len(cap.op_ids)} collectives, "
          f"{summary['metrics']} metrics "
          f"(unclosed={summary['unclosed_spans']}, "
          f"dropped={summary['spans_dropped']})")
    print()
    reports = cap.breakdowns()
    print(render_phase_table(reports))
    if args.trace_out:
        n = write_chrome_trace(cap.tracer, args.trace_out)
        print(f"wrote {n} Chrome trace events to {args.trace_out} "
              "(open at https://ui.perfetto.dev)", file=sys.stderr)
    if args.metrics_out:
        n = metrics_to_csv(cap.obs.registry, args.metrics_out)
        print(f"wrote {n} metric rows to {args.metrics_out}",
              file=sys.stderr)
    if args.json_out:
        doc = {"artifact": cap.artifact, "description": cap.description,
               "summary": summary, "ops": reports}
        _write_json(args.json_out, doc)
        print(f"wrote {len(reports)} per-op reports to "
              f"{args.json_out}", file=sys.stderr)
    if args.flamegraph_out:
        _write_flamegraph(cap, args.flamegraph_out)
    return 0


def _critpath(args) -> int:
    from repro.obs.critpath import (per_node_report, render_critpath,
                                    render_per_node)

    cap = _capture(args)
    if cap is None:
        return 2
    _warn_dropped(cap)

    print(f"critpath {cap.artifact}: {cap.description}")
    print()
    reports = cap.breakdowns()
    per_node = None
    if args.per_node:
        per_node = per_node_report(cap)
        print(render_per_node(per_node))
        print()
    else:
        for report in reports:
            print(render_critpath(report))
            print()
    if args.json_out:
        doc = {"artifact": cap.artifact, "description": cap.description,
               "ops": reports}
        if per_node is not None:
            doc["per_node"] = per_node
        _write_json(args.json_out, doc)
        print(f"wrote {len(reports)} critical-path reports to "
              f"{args.json_out}", file=sys.stderr)
    if args.flamegraph_out:
        _write_flamegraph(cap, args.flamegraph_out)
    return 0


def _check(args) -> int:
    path, fidelity = args.baseline, args.fidelity
    try:
        doc = check_mod.load_baseline(path)
    except OSError:
        doc = None
    recorded = check_mod.mode_view(doc, fidelity)["scenarios"] if doc else {}
    names = args.scenarios or list(recorded)
    if not names or not (recorded or args.update):
        where = (f"no baseline at {path}" if doc is None else
                 f"baseline at {path} has no '{fidelity}' section")
        print(f"{where}; create one with `python -m repro.bench check "
              f"SCENARIO ... --update --fidelity {fidelity}`",
              file=sys.stderr)
        return 2
    if _unknown(names, SCENARIOS, "scenarios"):
        return 2
    current = check_mod.collect(names, fidelity=fidelity)
    if args.update:
        check_mod.write_baseline(path, current, doc)
        print(f"wrote baseline for {len(current['scenarios'])} scenario(s) "
              f"[{fidelity}] to {path}")
        return 0
    baseline = check_mod.mode_view(doc, fidelity)
    baseline["scenarios"] = {name: metrics
                             for name, metrics in recorded.items()
                             if name in names}
    rows = check_mod.compare(baseline, current, default_tol=args.tolerance)
    print(check_mod.render_check_table(rows))
    if args.json_out:
        _write_json(args.json_out, check_mod.report_doc(rows, fidelity, path))
        print(f"wrote check report ({len(rows)} metrics) to "
              f"{args.json_out}", file=sys.stderr)
    bad = check_mod.violations(rows)
    if bad:
        from repro.obs.diff import render_check_attribution

        print("causal attribution of failing scenario(s):", file=sys.stderr)
        for scenario in sorted({row["scenario"] for row in bad}):
            base_m = baseline["scenarios"].get(scenario) or {}
            cur_m = current["scenarios"].get(scenario) or {}
            print(render_check_attribution(scenario, base_m, cur_m),
                  file=sys.stderr)
        print(f"REGRESSION: {len(bad)} metric(s) out of tolerance "
              f"[{fidelity}] (baseline: {path})", file=sys.stderr)
        return 1
    print(f"check ok: {len(rows)} metrics within tolerance "
          f"[{fidelity}] (baseline: {path})")
    return 0


def _diff(args) -> int:
    from repro.obs.diff import diff_files, render_diff

    try:
        doc = diff_files(args.a, args.b)
    except (OSError, ValueError) as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    print(render_diff(doc))
    if args.json_out:
        _write_json(args.json_out, doc)
        print(f"wrote diff ({len(doc['rows'])} deltas) to {args.json_out}",
              file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _shard(text: str):
    """``I/N`` -> ``(I, N)`` with ``0 <= I < N``."""
    index, _, count = text.partition("/")
    if not (index.isdigit() and count.isdigit() and int(index) < int(count)):
        raise argparse.ArgumentTypeError(
            f"wants I/N with 0 <= I < N, got {text!r}")
    return int(index), int(count)


def _scenario_arg(pair: str):
    """``KEY=VALUE`` -> ``(key, value)``; int/float values are coerced,
    everything else stays a string."""
    key, sep, value = pair.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"wants KEY=VALUE, got {pair!r}")
    for cast in (int, float):
        try:
            return key, cast(value)
        except ValueError:
            continue
    return key, value


def _parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation artifacts and "
                    "inspect the simulator that produces them.",
        epilog="A first word that is not a COMMAND runs artifacts: "
               "`python -m repro.bench fig07 fig08` is "
               "`python -m repro.bench run fig07 fig08`.  With no "
               "arguments the registry is listed.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, handler, description):
        p = sub.add_parser(name, help=description, description=description)
        p.set_defaults(handler=handler)
        return p

    def sweep_flags(p):
        p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                       help="worker processes for the sweep; rows are "
                            "identical at any N (default: %(default)s)")
        p.add_argument("--cache", default=DEFAULT_CACHE_DIR, metavar="DIR",
                       help="result cache; points are keyed by (artifact, "
                            "parameters, calibration), so a warm re-run "
                            "only re-renders (default: %(default)s)")
        p.add_argument("--quick", action="store_true",
                       help="run each artifact's declared CI-sized slice "
                            "(artifacts without one run at full size)")
        p.add_argument("--json", dest="json_out", nargs="?",
                       const=DEFAULT_JSON_OUT, metavar="OUT",
                       help="write the per-point trajectory to OUT "
                            f"(default when given: {DEFAULT_JSON_OUT})")

    def json_flag(p, what):
        p.add_argument("--json", dest="json_out", metavar="OUT",
                       help=f"write {what} as JSON to OUT")

    def scenario(p):
        p.add_argument("scenario", choices=SCENARIOS, metavar="SCENARIO",
                       help="traced scenario: %(choices)s")
        p.add_argument("--arg", dest="scenario_args", action="append",
                       type=_scenario_arg, default=[], metavar="KEY=VALUE",
                       help="scenario kwarg (repeatable), e.g. "
                            "--arg n_nodes=256 --arg slow_link=fpga5.down "
                            "throttles matching links on figX_scale")

    def flamegraph(p):
        p.add_argument("--flamegraph-out", metavar="PATH",
                       help="write collapsed-stack flamegraph lines")

    p = command("run", _run, "regenerate artifacts through the sweep engine")
    p.add_argument("names", nargs="+", metavar="ARTIFACT",
                   help="artifact names, or 'all' for every artifact "
                        f"(which writes {DEFAULT_JSON_OUT} by default): "
                        + ", ".join(ARTIFACTS))
    sweep_flags(p)
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache for this run")
    p.add_argument("--profile-out", metavar="PATH",
                   help="run under cProfile and dump pstats to PATH")
    p.add_argument("--shard", type=_shard, metavar="I/N",
                   help="execute only the points whose cache key hashes to "
                        "shard I of N; combine the shard trajectories "
                        "with 'merge'")

    command("list", _list, "list the artifact registry and traced scenarios")

    p = command("merge", _merge,
                "import the executed points of trajectories (sharded or "
                "not) into the cache and render the complete artifacts, "
                "row-identical to an unsharded run")
    p.add_argument("shards", nargs="+", metavar="TRAJECTORY.json")
    sweep_flags(p)

    p = command("profile", _profile,
                "wall time, real and fast-forwarded kernel events and ns per "
                "real event of one artifact (cold cache), or the "
                "cluster-scale profile")
    p.add_argument("target", choices=[*ARTIFACTS, "scale"],
                   metavar="TARGET", help="%(choices)s")
    p.add_argument("--quick", action="store_true",
                   help="the artifact's declared CI-sized slice; 128 nodes "
                        "for scale")
    p.add_argument("--memory", action="store_true",
                   help="attach tracemalloc and report current/peak (scale "
                        "always traces construction memory, so this has no "
                        "effect there)")
    p.add_argument("--per-node", action="store_true",
                   help="scale: report construction bytes per node and "
                        f"record the scale block in {DEFAULT_JSON_OUT}")
    p.add_argument("--profile-out", metavar="PATH",
                   help="run under cProfile and dump pstats to PATH")
    json_flag(p, "the profile report")

    p = command("validate-fidelity", _validate,
                "replay artifacts at packet and flow fidelity (cold, "
                "sequential) and diff the results against each artifact's "
                "tolerance; exit 1 on any deviation")
    p.add_argument("names", nargs="*", metavar="NAME",
                   help="artifacts (default: all) or, with --explain, "
                        "traced scenarios")
    p.add_argument("--quick", action="store_true",
                   help="run each artifact's declared CI-sized slice")
    json_flag(p, "the per-artifact reports")
    p.add_argument("--explain", action="store_true",
                   help="instead, replay the traced scenarios in both modes "
                        "and attribute the divergence per op and per link")

    p = command("trace", _trace,
                "replay a traced scenario and print per-collective phase "
                "breakdowns (uC / DMP / POE / wire)")
    scenario(p)
    p.add_argument("--trace-out", metavar="PATH",
                   help="write Chrome trace-event JSON (open at "
                        "https://ui.perfetto.dev)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the metrics registry as CSV")
    json_flag(p, "the per-op reports (phases and critical-path totals)")
    flamegraph(p)

    p = command("critpath", _critpath,
                "replay a traced scenario and print each collective's "
                "critical path with per-wait-cause totals")
    scenario(p)
    p.add_argument("--per-node", action="store_true",
                   help="instead, aggregate busy/blocked/critical time per "
                        "node and link and flag z-score stragglers")
    json_flag(p, "the critical-path reports")
    flamegraph(p)

    p = command("check", _check,
                "replay traced scenarios and diff their metrics against the "
                "committed baseline; exit 1 on any regression")
    p.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                   help="scenarios to replay (default: those the baseline "
                        "holds for the mode): " + ", ".join(SCENARIOS))
    p.add_argument("--baseline", default=check_mod.DEFAULT_BASELINE,
                   metavar="PATH", help="baseline file (default: %(default)s)")
    p.add_argument("--update", action="store_true",
                   help="write this collection into the baseline instead "
                        "of diffing")
    p.add_argument("--tolerance", type=float, metavar="X",
                   help="override the baseline's default relative tolerance")
    p.add_argument("--fidelity", choices=("packet", "flow"), default="packet",
                   help="collect and compare under this mode "
                        "(default: %(default)s)")
    json_flag(p, "the per-metric verdicts")

    p = command("diff", _diff,
                "rank the per-point or per-op deltas between two saved runs "
                "(trajectories, or trace/critpath JSONs) by regression "
                "magnitude")
    p.add_argument("a", metavar="A.json")
    p.add_argument("b", metavar="B.json")
    json_flag(p, "the full diff document")
    return parser, sub.choices


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _parser()
    if argv and argv[0] not in commands and argv[0] not in ("-h", "--help"):
        argv.insert(0, "run")
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # report against the subcommand's own usage
            commands[args.command].error(
                f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # usage errors exit 2, --help exits 0
        return exc.code
    if args.command is None:
        return _list(args)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
