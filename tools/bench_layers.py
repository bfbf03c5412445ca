"""Per-call timings of the slow layers of one point, on a fixed grid.

Times ``correlations.fourth_moment_from_kernel`` (regular and breakdown
points at N = 14, 50 and 100, gamma < 0 points at N = 50 and 100, a point
where one window stack breaks down at N = 50, one regular point at N =
200), ``var_jx`` (N = 50 to 1000, the gapless XX chain at T = 5 and N =
300, and a zero-mode point at N = 50), ``var_jy`` (N = 300),
``var_jx_slope`` and ``kernel`` (N = 50 to 1000), and at N = 50 the
per-point layers of a
``phase-diagram`` sweep: ``thermometry.ensemble``, ``var_jz`` (uniform and
half probe) and ``mean_jz_slope``, and one VAR_JX readout point at N = 50
(a fresh ``faraday.ReadoutPoint``'s ``snr_varjx``: its kernel, Var(J_x),
the slope and <J_x^4>, as one ``tscan-quartic`` row computes them), for
one or more source trees, and writes the medians to a JSON file together
with the core count and the BLAS in use.
Each grid row of each tree and repetition runs in a fresh process of its
own, with BLAS pinned to one thread, so that no row reads the allocator
and cache state that other rows left: the page faults and time of a call
depend on what was allocated before it in the same process (in
``BENCH_34.json``, timed after the other rows of their tree, the N=100
regular fourth-moment rows took 3971 or 5079 minor faults per call; in a
process of their own, 5502).  A count still moves by a few pages with the
layout of the process, which the length of the tree's path and the size
of its code change: the same files read 5499 or 5502 there.  A process
start costs 0.2-0.3 s, and a run of two trees and five repetitions, 320
processes, takes about 110 s on 2 cores.  In its process a row makes one
untimed warm-up call and then CALLS timed calls, and takes their median.
The warm-up call also builds what a tree memoizes per ring size (the
cos/sin tables, the plan of Schur windows of <J_x^4>), as the first point
of a sweep does.
The CPU speed a process gets on a shared machine swings by tens of percent
between runs, so each call is also divided by the mean duration of the
benchmark's fixed speed probe (``sweepbench.worker.speed_probe``, about 1
ms), timed just before and just after it: the "ref" statistics are per-call
times in probe units, as ``sweepbench`` reports them, next to the raw
seconds.  To compare a
change with its parent commit, export the parent next to the checkout and
pass both trees; for each repetition and row the trees run back to back,
in an order that flips every repetition:

    git archive --prefix=parent/ HEAD~1 | tar x -C /tmp
    python tools/bench_layers.py --tree parent=/tmp/parent/src --tree change=src \\
        --reps 5 --out BENCH.json

Every call gets its own ensemble and kernel, built outside the timed
region, so that nothing one call computes on first read is there for the
next.  Before ``fourth_moment_from_kernel`` the kernel's pair correlators
are filled by ``var_jx``, as a readout point does; ``var_jx`` itself is
timed on a fresh kernel.  The "warm" ``kernel`` rows time the kernel of an
ensemble after another ensemble's kernel, so the cos/sin tables of its ring
size are built already, as at every point of a sweep but the first; the
"cold" rows clear that memo first.  The
``ensemble`` row builds the mode table and the thermal record of a ring
size seen before, as at every point of a sweep but the first: the
records build every per-mode array up front (rotations, double angles,
reduced energies, fluctuation weights, 1 - 2 n_k and its slope), so the
J_z rows of a fresh ensemble time the mode sums alone.  Next to each time
the file records how many matrices the timed call handed to the
orthogonal-minor engine, ``xythermo.minors``, to the halving
(``_halving_minors``) or to one level of it (``_split``, which the pair
correlators enter through ``_complementary_minors``, as they entered it
directly before that call existed, so the counts are the same in both
trees): each call counts the product of its stack's leading dimensions,
1 for a single matrix, and a depth counter shared by the two leaves out
the calls that the halving makes of itself.  It also records the value the call
returned (sum of g_j^2 for a kernel, of n_k for an ensemble), and the
minor page faults of the timed call (the median over its calls of the
change in ``resource.getrusage(RUSAGE_SELF).ru_minflt``, None where the
``resource`` module is missing): a call that takes fresh pages from the
operating system shows there.  With the
pair correlators filled, a fourth-moment call that hands in any matrices
has met a breakdown and taken orthogonal minors for every gap class; it
hands in none where no elimination broke down, or where Hadamard's bound
left every class out.  Each
tree's values must repeat exactly over its calls and repetitions; the file
gives every value's relative difference from the first tree, and the run
prints the largest, so a speed change that moves the numbers shows next to
its timings.  For N = 50, 100 and 200 the file also records the bytes of
the store of Schur-complement snapshots that <J_x^4> keeps per point and
the bytes of the plan of Schur windows it builds once per ring size,
read at the regular rows of those sizes from the plan that the row's own
calls built (``_window_plan`` of the ring size, a cache hit), so that
every tree is measured through its own calls.  The run ends by printing
the last tree's rows as the README's layer-timings block
(``readme_table``), which goes between the README's
``<!-- layer-timings -->`` markers when the file is committed.
"""
from __future__ import annotations

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

try:
    import resource
except ImportError:  # not on every platform
    resource = None

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (layer, N, gamma, h/J, T); "breakdown" points are where the elimination of
# the pair matrix without row exchanges meets a zero pivot, so that every
# gap class takes orthogonal minors unless a bound certifies them
# negligible, as it does not at N = 14 on the gamma = -1, h/J = 0 line; at
# the "window breakdown" point, from the tscan-quartic benchmark, the pair
# matrix does not break down but one stack of its Schur windows does.  The
# "gapless" var_jx point has t_min = 2e-3 and det C = 1e-300 for the
# skew-circulant split of the pair correlators; at the "zero mode" point (N
# = 2 mod 4, gamma = 0, h/J = 0) C is singular to working precision and the
# whole pair matrix takes one halving
GRID = (
    ("fourth_moment_from_kernel", 14, -1.0, 0.0, 0.3, "breakdown"),
    ("fourth_moment_from_kernel", 50, 1.0, 0.5, 0.3, "regular"),
    ("fourth_moment_from_kernel", 50, -0.892, 0.767, 0.792, "regular"),
    ("fourth_moment_from_kernel", 50, -1.0, 0.0, 0.3, "breakdown"),
    ("fourth_moment_from_kernel", 50, -1.0, 0.0, 5.0, "breakdown"),
    ("fourth_moment_from_kernel", 50, 0.0, 2.0, 0.05, "breakdown"),
    ("fourth_moment_from_kernel", 50, 1.0, 0.5, math.inf, "breakdown"),
    ("fourth_moment_from_kernel", 50, -0.9653537597782795, 0.2609446655556303, 0.05,
     "window breakdown"),
    ("fourth_moment_from_kernel", 100, 1.0, 0.5, 0.3, "regular"),
    ("fourth_moment_from_kernel", 100, -0.892, 0.767, 0.792, "regular"),
    ("fourth_moment_from_kernel", 100, -1.0, 0.0, 0.3, "breakdown"),
    ("fourth_moment_from_kernel", 200, 1.0, 0.5, 0.3, "regular"),
    ("var_jx", 50, 1.0, 0.5, 0.3, "regular"),
    ("var_jx", 100, 1.0, 0.5, 0.3, "regular"),
    ("var_jx", 300, 1.0, 0.5, 0.3, "regular"),
    ("var_jx", 1000, 1.0, 0.5, 0.3, "regular"),
    ("var_jx", 300, 0.0, 0.0, 5.0, "gapless"),
    ("var_jx", 50, 0.0, 0.0, 0.126, "zero mode"),
    ("var_jy", 300, 1.0, 0.5, 0.3, "regular"),
    ("var_jx_slope", 50, 1.0, 0.5, 0.3, "regular"),
    ("var_jx_slope", 100, 1.0, 0.5, 0.3, "regular"),
    ("var_jx_slope", 300, 1.0, 0.5, 0.3, "regular"),
    ("kernel", 50, 1.0, 0.5, 0.3, "warm"),
    ("kernel", 300, 1.0, 0.5, 0.3, "warm"),
    ("kernel", 1000, 1.0, 0.5, 0.3, "warm"),
    ("kernel", 300, 1.0, 0.5, 0.3, "cold"),
    ("kernel", 1000, 1.0, 0.5, 0.3, "cold"),
    ("ensemble", 50, 1.0, 0.5, 0.3, "warm"),
    ("var_jz", 50, 1.0, 0.5, 0.3, "uniform"),
    ("var_jz", 50, 1.0, 0.5, 0.3, "half"),
    ("mean_jz_slope", 50, 1.0, 0.5, 0.3, "uniform"),
    ("VAR_JX point", 50, 1.0, 0.5, 0.3, "snr_varjx"),
)

# ring sizes at which the bytes of the window plan and of the snapshot
# store are recorded
PLAN_SIZES = (50, 100, 200)


# timed calls per grid row and repetition, after one warm-up call
CALLS = 5


def _key(layer, n, gamma, field, temp, kind):
    return f"{layer} N={n} ({gamma:g}, {field:g}, {temp:g}) {kind}"


def _minor_faults() -> int | None:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else None


def _time_row(layer, n, gamma, field, temp, kind) -> dict[str, dict]:
    # one grid row, in a process of its own with the tree on sys.path: the
    # median of CALLS timings after one warm-up call, in seconds and in
    # speed-probe units, the matrices one call handed to the orthogonal-minor
    # engine, the value it returned and the median of its minor page faults,
    # each keyed by the row's key as main merges them; at a regular
    # fourth-moment row of N in PLAN_SIZES also the plan bytes
    from sweepbench.worker import speed_probe
    from xythermo import correlations, faraday, minors, thermometry
    from xythermo.spectrum import ChainSpec

    key, count, depth = _key(layer, n, gamma, field, temp, kind), [0], [0]

    def entry(fn):
        # counts the matrices of a call from outside the engine only
        def wrapped(a):
            if not depth[0]:
                count[0] += math.prod(a.shape[:-2])
            depth[0] += 1
            try:
                return fn(a)
            finally:
                depth[0] -= 1
        return wrapped

    def prepare():
        # the call, with its argument built fresh and outside the timed region
        spec = ChainSpec(gamma=gamma, field_ratio=field, sites=n)
        if layer == "ensemble":
            return lambda: thermometry.ensemble(spec, temp)
        ens = thermometry.ensemble(spec, temp)
        if layer == "VAR_JX point":
            return lambda: faraday.ReadoutPoint(ens, faraday.FaradaySetup()).snr_varjx
        if layer in ("var_jz", "mean_jz_slope"):
            return lambda: getattr(correlations, layer)(ens, kind)
        if layer == "kernel":
            # another ensemble's kernel builds the tables of N, if memoized
            correlations.kernel(thermometry.ensemble(spec, temp))
            if kind == "cold":
                correlations._trig_tables.cache_clear()
            return lambda: correlations.kernel(ens)
        kern = correlations.kernel(ens)
        if layer == "fourth_moment_from_kernel":
            correlations.var_jx(kern)
        call = getattr(correlations, layer)
        return lambda: call(kern)

    def scalar(value):
        if layer == "kernel":
            return float(value.g @ value.g)
        if layer == "ensemble":
            return float(value.occupations.sum())
        return float(value)

    for name in ("_halving_minors", "_split"):
        setattr(minors, name, entry(getattr(minors, name)))
    prepare()()  # warm-up
    elapsed, ref, seen, fresh = [], [], set(), []
    for _ in range(CALLS):
        call = prepare()
        count[0] = 0
        before = speed_probe()
        paged = _minor_faults()
        start = perf_counter()
        value = call()
        elapsed.append(perf_counter() - start)
        if paged is not None:
            fresh.append(_minor_faults() - paged)
        ref.append(2.0 * elapsed[-1] / (before + speed_probe()))
        seen.add((count[0], scalar(value)))
    if len(seen) != 1:
        raise SystemExit(f"{key}: calls disagree: {sorted(seen)}")
    ((halvings, value),) = seen
    plan = {}
    if layer == "fourth_moment_from_kernel" and kind == "regular" and n in PLAN_SIZES:
        # the plan the calls built, a cache hit, and the snapshot store, whose
        # length is fixed by N: sum of k^2, k = 2 ... N-2, plus 2(N-2) spare
        # entries
        stacks = minors._window_plan(n, minors._DET_BATCH_ELEMENTS)
        plan[f"N={n}"] = {
            "snapshot_store": 8 * (sum(k * k for k in range(2, n - 1)) + 2 * (n - 2)),
            "window_plan": sum(getattr(stack, name).nbytes for stack in stacks
                               for name in ("t3", "t2", "offsets", "rows", "weights"))}
    return {"times": {key: statistics.median(elapsed)}, "refs": {key: statistics.median(ref)},
            "halvings": {key: halvings}, "values": {key: value},
            "faults": {key: statistics.median(fresh) if fresh else None}, "plan_bytes": plan}


def _median_or_none(values: list) -> float | None:
    # None where the repetitions could not count page faults
    return None if None in values else statistics.median(values)


def _relative_difference(value: float, base: float) -> float:
    if value == base:
        return 0.0
    return abs(value - base) / abs(base) if base else math.inf


def _relative_differences(values: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    # |v - v0| / |v0| of each tree's value against the first tree's v0
    base = next(iter(values.values()))
    return {label: {k: _relative_difference(v, base[k]) for k, v in vals.items()}
            for label, vals in values.items()}


def _blas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def readme_table(bench: dict, name: str) -> str:
    """The README's layer-timings block: one Markdown row per grid key of bench's last tree.

    bench is the JSON that main writes, name the file it was read from;
    each row gives the median and the min-max range of the per-call ref
    times over the repetitions, and the median minor page faults.
    """
    tree = list(bench["median_ref"])[-1]
    medians, lows, highs = (bench[stat][tree] for stat in ("median_ref", "min_ref", "max_ref"))
    faults = bench["median_minor_faults"][tree]
    lines = [f"Per-call times in ref units (one call of the benchmark's fixed speed probe, "
             f"about 1 ms) from `{name}`, tree `{tree}`: the median and range over "
             f"{bench['reps']} repetitions, each the median of {bench['calls']} calls; "
             f"{bench['nproc']} cores ({bench['machine']}), {bench['blas']} "
             f"{bench['blas_version']} with OPENBLAS_NUM_THREADS={bench['blas_threads']}, "
             f"numpy {bench['numpy']}, Python {bench['python']}.",
             "",
             "| layer, N (gamma, h/J, T) and point | median ref | min–max ref | minor faults |",
             "|---|---|---|---|"]
    for key, median in medians.items():
        fault = "–" if faults[key] is None else f"{faults[key]:g}"
        lines.append(f"| {key} | {median:.3g} | {lows[key]:.3g}–{highs[key]:.3g} | {fault} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a label and the src directory of one source tree (repeatable)")
    parser.add_argument("--reps", type=int, default=5, help="repetitions per tree (default 5)")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "ROW"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:  # one grid row of one tree, in a fresh process
        src, row = args.worker
        sys.path[:0] = [src, ROOT]
        print(json.dumps(_time_row(*GRID[int(row)]) | {"env": _blas()}))
        return 0
    if not args.tree or not args.out or args.reps < 1:
        parser.error("need at least one --tree, an --out file and --reps >= 1")

    trees = dict(t.split("=", 1) for t in args.tree)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # per tree and repetition, each field of the workers' output over the grid
    runs = {label: [collections.defaultdict(dict) for _ in range(args.reps)] for label in trees}
    for rep in range(args.reps):
        order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
        for row in range(len(GRID)):
            for label in order:
                proc = subprocess.run(
                    [sys.executable, __file__, "--worker", os.path.abspath(trees[label]),
                     str(row)], env=env, capture_output=True, text=True, check=True)
                for name, entries in json.loads(proc.stdout).items():
                    runs[label][rep][name].update(entries)
        print(f"rep {rep + 1}/{args.reps} done", file=sys.stderr, flush=True)
    times = {label: [r["times"] for r in reps] for label, reps in runs.items()}
    refs = {label: [r["refs"] for r in reps] for label, reps in runs.items()}
    halvings = {label: reps[0]["halvings"] for label, reps in runs.items()}
    values = {label: reps[0]["values"] for label, reps in runs.items()}
    for label, reps in runs.items():  # deterministic: every repetition agrees
        for name, first in (("halvings", halvings), ("values", values)):
            if any(r[name] != first[label] for r in reps):
                raise SystemExit(f"{name} of tree {label} differ between repetitions")
    differences = _relative_differences(values)
    result = {
        "what": "per-call seconds, and per-call time over the speed probe's (ref): the "
                "median of each repetition's timed calls after a warm-up call, each row "
                "and repetition in a fresh process, then median, min and max over "
                "repetitions that alternate the trees",
        "nproc": os.cpu_count(),
        "machine": os.uname().machine,
        "python": sys.version.split()[0],
        **next(iter(runs.values()))[0]["env"],
        "reps": args.reps,
        "calls": CALLS,
        **{stat: {label: {k: fn([r[k] for r in reps]) for k in reps[0]}
                  for label, reps in times.items()}
           for stat, fn in (("median_s", statistics.median), ("min_s", min), ("max_s", max))},
        **{stat: {label: {k: fn([r[k] for r in reps]) for k in reps[0]}
                  for label, reps in refs.items()}
           for stat, fn in (("median_ref", statistics.median), ("min_ref", min),
                            ("max_ref", max))},
        "median_minor_faults": {label: {k: _median_or_none([r["faults"][k] for r in reps])
                                        for k in reps[0]["faults"]}
                                for label, reps in runs.items()},
        "halving_matrices": halvings,
        "plan_bytes": {label: reps[0]["plan_bytes"] for label, reps in runs.items()},
        "values": values,
        "relative_difference_from_first_tree": differences,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for label, medians in result["median_s"].items():
        for k, v in medians.items():
            faults = result["median_minor_faults"][label][k]
            print(f"{label:>8}  {v * 1e3:10.4f} ms  {result['median_ref'][label][k]:9.4g} ref  "
                  f"{halvings[label][k]:6d} matrices  {faults if faults is not None else '-':>7} "
                  f"faults  {k}")
    for label, diffs in list(differences.items())[1:]:
        worst = max(diffs, key=diffs.get)
        print(f"{label:>8}  largest relative difference of a value from tree "
              f"{next(iter(trees))}: {diffs[worst]:.3g} ({worst})")
    print(readme_table(result, os.path.basename(args.out)), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
