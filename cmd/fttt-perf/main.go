// Command fttt-perf runs the repo's performance-regression harness
// (internal/perfbench): a fixed, seeded scenario suite over the hot
// paths — vector algebra, the division signature pass, the heuristic
// matcher, whole localizations, batched/parallel tracking and the
// serving round-trip — emitting machine-readable reports
// (BENCH_PR<N>.json) and judging them against the committed baseline
// with noise-tolerant thresholds. See DESIGN.md §11 for the
// methodology.
//
// Usage:
//
//	fttt-perf list                          # the scenario catalog
//	fttt-perf run -o BENCH_PR6.json         # full-depth run
//	fttt-perf run -quick -scenarios 'serve/' # short filtered run
//	fttt-perf compare                       # run (quick) + diff vs results/perf/baseline.json
//	fttt-perf compare -current BENCH_PR6.json -full
//	fttt-perf baseline                      # regenerate results/perf/baseline.json
//	fttt-perf run -profiles results/perf/profiles  # + cpu/heap pprof per scenario
//
// compare runs the suite at the baseline's GOMAXPROCS and refuses a
// -current report recorded at a different one.
//
// Exit status: 0 on success, 1 on usage or runtime errors (a GOMAXPROCS
// mismatch included), 2 when compare finds a regression (or a scenario
// missing from the current run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"time"

	"fttt/internal/perfbench"
)

const defaultBaseline = "results/perf/baseline.json"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 1
	}
	switch args[0] {
	case "list":
		return cmdList(stdout)
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "baseline":
		return cmdBaseline(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "fttt-perf: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `fttt-perf — FTTT performance-regression harness

subcommands:
  list       print the scenario catalog
  run        run the suite and write a JSON report (-o)
  compare    run the suite (or load -current) and diff against -baseline
  baseline   run the suite at full depth and (re)write the baseline

common flags (run / compare / baseline):
  -reps N          measured repetitions per scenario (default 3)
  -benchtime D     duration of one repetition (default 200ms; compare defaults to quick)
  -quick           short repetitions (25ms) for smoke runs
  -scenarios RE    only scenarios matching the regexp
  -profiles DIR    capture cpu/heap pprof profiles per scenario
  -label S         label recorded in the report
`)
}

// runFlags are the flags shared by run/compare/baseline.
type runFlags struct {
	fs        *flag.FlagSet
	reps      *int
	benchtime *time.Duration
	quick     *bool
	scenarios *string
	profiles  *string
	label     *string
}

func newRunFlags(name string) runFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return runFlags{
		fs:        fs,
		reps:      fs.Int("reps", 0, "measured repetitions per scenario (0 = default 3)"),
		benchtime: fs.Duration("benchtime", 0, "duration of one repetition (0 = default)"),
		quick:     fs.Bool("quick", false, "short repetitions (25ms) for smoke runs"),
		scenarios: fs.String("scenarios", "", "regexp selecting scenario names"),
		profiles:  fs.String("profiles", "", "directory for per-scenario cpu/heap pprof profiles"),
		label:     fs.String("label", "", "label recorded in the report"),
	}
}

func (rf runFlags) options(stderr io.Writer) (perfbench.Options, error) {
	opts := perfbench.Options{
		Reps:       *rf.reps,
		BenchTime:  *rf.benchtime,
		ProfileDir: *rf.profiles,
		Label:      *rf.label,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}
	if *rf.quick && opts.BenchTime == 0 {
		opts.BenchTime = 25 * time.Millisecond
	}
	if *rf.scenarios != "" {
		re, err := regexp.Compile(*rf.scenarios)
		if err != nil {
			return opts, fmt.Errorf("bad -scenarios regexp: %w", err)
		}
		opts.Filter = re
	}
	return opts, nil
}

func cmdList(stdout io.Writer) int {
	for _, sc := range perfbench.Suite() {
		fmt.Fprintf(stdout, "%-28s %-5s seed=%-3d %s\n", sc.Name, sc.Kind, sc.Seed, sc.Summary)
		fmt.Fprintf(stdout, "%-28s %-5s          ↳ %s\n", "", "", sc.MapsTo)
	}
	return 0
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	rf := newRunFlags("run")
	out := rf.fs.String("o", "", "write the JSON report here (default: stdout)")
	if err := rf.fs.Parse(args); err != nil {
		return 1
	}
	opts, err := rf.options(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "fttt-perf: %v\n", err)
		return 1
	}
	rep, err := perfbench.Run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "fttt-perf: %v\n", err)
		return 1
	}
	if *out == "" {
		if err := writeReport(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "fttt-perf: %v\n", err)
			return 1
		}
		return 0
	}
	if err := rep.WriteFile(*out); err != nil {
		fmt.Fprintf(stderr, "fttt-perf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %s (%d scenarios)\n", *out, len(rep.Scenarios))
	return 0
}

func writeReport(w io.Writer, rep *perfbench.Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	rf := newRunFlags("compare")
	baseline := rf.fs.String("baseline", defaultBaseline, "baseline report to judge against")
	current := rf.fs.String("current", "", "pre-recorded report to judge (skips running the suite)")
	threshold := rf.fs.Float64("threshold", 0, "fractional median-ns/op regression tolerated (0 = default 0.30)")
	allocThreshold := rf.fs.Float64("alloc-threshold", 0, "fractional allocs/op regression tolerated (0 = default 0.10)")
	full := rf.fs.Bool("full", false, "full-depth repetitions (compare defaults to -quick)")
	if err := rf.fs.Parse(args); err != nil {
		return 1
	}

	base, err := perfbench.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "fttt-perf: baseline: %v\n", err)
		return 1
	}

	// Timings taken at different GOMAXPROCS are not comparable (the
	// serving scenarios' goroutine handoffs wake other processors), so
	// compare runs the suite at the baseline's setting and refuses a
	// pre-recorded report taken at another.
	var cur *perfbench.Report
	if *current != "" {
		if cur, err = perfbench.ReadFile(*current); err != nil {
			fmt.Fprintf(stderr, "fttt-perf: current: %v\n", err)
			return 1
		}
		if base.GOMAXPROCS > 0 && cur.GOMAXPROCS != base.GOMAXPROCS {
			fmt.Fprintf(stderr, "fttt-perf: current report was recorded at GOMAXPROCS=%d but the baseline at GOMAXPROCS=%d; rerun it at the baseline's setting\n",
				cur.GOMAXPROCS, base.GOMAXPROCS)
			return 1
		}
	} else {
		if base.GOMAXPROCS > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(base.GOMAXPROCS))
			fmt.Fprintf(stderr, "fttt-perf: running at the baseline's GOMAXPROCS=%d\n", base.GOMAXPROCS)
		}
		opts, err := rf.options(stderr)
		if err != nil {
			fmt.Fprintf(stderr, "fttt-perf: %v\n", err)
			return 1
		}
		// compare runs are smoke runs unless -full/-benchtime says
		// otherwise: the thresholds are sized for short repetitions.
		if !*full && opts.BenchTime == 0 {
			opts.BenchTime = 25 * time.Millisecond
		}
		if cur, err = perfbench.Run(opts); err != nil {
			fmt.Fprintf(stderr, "fttt-perf: %v\n", err)
			return 1
		}
	}

	cmp := perfbench.Compare(base, cur, perfbench.CompareOptions{
		MaxRegression:      *threshold,
		MaxAllocRegression: *allocThreshold,
	})
	cmp.Format(stdout)
	if cmp.Failed() {
		fmt.Fprintf(stderr, "fttt-perf: %d regression(s): %v\n", len(cmp.Regressions), cmp.Regressions)
		return 2
	}
	fmt.Fprintln(stderr, "fttt-perf: no regressions")
	return 0
}

func cmdBaseline(args []string, stdout, stderr io.Writer) int {
	rf := newRunFlags("baseline")
	out := rf.fs.String("o", defaultBaseline, "baseline path to (re)write")
	if err := rf.fs.Parse(args); err != nil {
		return 1
	}
	opts, err := rf.options(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "fttt-perf: %v\n", err)
		return 1
	}
	if opts.Label == "" {
		opts.Label = "baseline"
	}
	rep, err := perfbench.Run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "fttt-perf: %v\n", err)
		return 1
	}
	if err := rep.WriteFile(*out); err != nil {
		fmt.Fprintf(stderr, "fttt-perf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %s (%d scenarios)\n", *out, len(rep.Scenarios))
	return 0
}
