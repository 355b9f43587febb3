// Command dgbench runs the reproduction experiment suite — one experiment
// per cell of the paper's Figure 1 plus lemma checks, ablations, the
// epoch-churn scenarios, and the SCALE-n family (decay broadcast at
// n = 10³–10⁵, exercising the engine's word-parallel delivery plan) — and
// prints the measured tables next to the paper's claims.
//
// Examples:
//
//	dgbench                    # quick suite (seconds)
//	dgbench -list              # print the experiment index, run nothing
//	dgbench -list -json        # machine-readable registry (IDs, task counts)
//	dgbench -all               # whole registry through one shared worker pool
//	dgbench -full              # full suite (minutes)
//	dgbench -run F1-online     # only matching experiment ids
//	dgbench -workers 4         # bound the trial worker pool (0 = GOMAXPROCS)
//	dgbench -cache DIR         # content-addressed result cache (see dgserved)
//	dgbench -csv               # tables as CSV
//	dgbench -markdown          # reference-table markdown output
//	dgbench -cpuprofile FILE   # CPU profile of the whole invocation (any mode)
//	dgbench -memprofile FILE   # heap profile after the invocation (any mode)
//
// Execution goes through the same run-service core as dgserved
// (internal/runsvc): the run is planned, partitioned against the result
// cache when -cache is set, and the delta executed; output is byte-identical
// to a cache-less run, and a repeated invocation over a warm cache executes
// zero tasks.
//
// The suite also runs sharded across machines. Every (experiment ×
// sweep-point × trial) task is independently seeded, so the work queue
// partitions deterministically: shard i of K runs only its own tasks and
// writes their raw results to a portable JSON artifact, and the merge
// reassembles the artifacts and replays the aggregation, producing output
// byte-identical to a single-machine run at the same seeds:
//
//	machine A:  dgbench -shard 1/2 -out shard_1.json
//	machine B:  dgbench -shard 2/2 -out shard_2.json
//	either:     dgbench -merge 'shard_*.json'      # == dgbench -all
//
// The merge reads the run configuration (seed, scale, trial count) from the
// artifacts themselves; all shards must run the same binary with the same
// -run/-full/-trials/-seed flags, and -merge validates that they did.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/runsvc"
	"repro/internal/shard"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dgbench:", err)
		os.Exit(1)
	}
}

// parseShardSpec parses "-shard i/K" (1-based: shard i of K machines). The
// whole spec must parse — trailing garbage like "1/2/3" is rejected, not
// truncated, because a typo here wastes an entire machine's run.
func parseShardSpec(spec string) (index, count int, err error) {
	i, k, ok := strings.Cut(spec, "/")
	if ok {
		index, err = strconv.Atoi(i)
		if err == nil {
			count, err = strconv.Atoi(k)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-shard %q: want i/K, e.g. -shard 1/2", spec)
	}
	if count < 1 || index < 1 || index > count {
		return 0, 0, fmt.Errorf("-shard %q: shard index must be in 1..%d", spec, count)
	}
	return index, count, nil
}

func run(w io.Writer, args []string) (err error) {
	fs := flag.NewFlagSet("dgbench", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "print the experiment index (ID and title) without running anything")
		jsonOut   = fs.Bool("json", false, "with -list: emit the machine-readable registry (IDs, task counts, trials)")
		full      = fs.Bool("full", false, "full-scale sweeps (minutes) instead of quick")
		quick     = fs.Bool("quick", true, "reduced sweeps for fast runs (ignored when -full is set)")
		all       = fs.Bool("all", false, "run every selected experiment concurrently through one shared worker pool")
		workers   = fs.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS; 1 forces sequential trials)")
		filter    = fs.String("run", "", "only run experiments whose id contains this substring")
		trials    = fs.Int("trials", 0, "trials per sweep point (0 = default)")
		csv       = fs.Bool("csv", false, "emit tables as CSV")
		markdown  = fs.Bool("markdown", false, "emit reference-table markdown")
		plot      = fs.Bool("plot", false, "render scaling curves as log-log ASCII plots")
		seed      = fs.Uint64("seed", 0, "base seed offset")
		cacheDir  = fs.String("cache", "", "content-addressed result cache directory (shared with dgserved)")
		shardSpec = fs.String("shard", "", "execute shard i/K of the task plan and write an artifact (requires -out)")
		out       = fs.String("out", "", "artifact path for -shard")
		merge     = fs.String("merge", "", "merge shard artifacts matching this glob and replay the aggregation")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
		memprof   = fs.String("memprofile", "", "write a heap profile, taken after the invocation and a collection, to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprof != "" {
		stop, perr := startCPUProfile(*cpuprof)
		if perr != nil {
			return perr
		}
		defer func() {
			if serr := stop(); err == nil {
				err = serr
			}
		}()
	}
	if *memprof != "" {
		write, perr := createMemProfile(*memprof)
		if perr != nil {
			return perr
		}
		defer func() {
			if werr := write(); err == nil {
				err = werr
			}
		}()
	}
	cfg := experiments.Config{
		Quick:    *quick && !*full,
		Trials:   *trials,
		BaseSeed: *seed,
		Workers:  *workers,
	}
	opts := report.Options{Markdown: *markdown, CSV: *csv, Plot: *plot}

	if *list {
		// -list is a mode flag like -shard and -merge: it runs nothing, so
		// combining it with an execution mode is a contradiction. The -run
		// filter composes with it; -json additionally admits the
		// configuration flags, because task counts depend on them.
		allowed := map[string]bool{"list": true, "run": true, "json": true, "cpuprofile": true, "memprofile": true}
		if *jsonOut {
			for _, name := range []string{"full", "quick", "trials", "seed"} {
				allowed[name] = true
			}
		}
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-list prints the experiment index without running anything; drop %s", strings.Join(conflict, " "))
		}
		selected, err := selectExperiments(*filter)
		if err != nil {
			return err
		}
		if *jsonOut {
			entries, err := runsvc.Catalog(cfg, selected)
			if err != nil {
				return err
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(entries)
		}
		for _, e := range selected {
			fmt.Fprintf(w, "%-28s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *jsonOut {
		return fmt.Errorf("-json is a -list output format; add -list")
	}
	if *merge != "" {
		// The merge reads its experiment selection and run configuration out
		// of the artifacts; any explicitly set flag besides the output format
		// would be silently overridden, so reject it instead.
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "merge", "csv", "markdown", "plot", "cpuprofile", "memprofile":
			default:
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-merge takes its experiment selection and configuration from the artifacts; drop %s", strings.Join(conflict, " "))
		}
		return runMerge(w, *merge, opts)
	}
	if *out != "" && *shardSpec == "" {
		return fmt.Errorf("-out is only written by -shard; drop it or add -shard i/K")
	}

	selected, err := selectExperiments(*filter)
	if err != nil {
		return err
	}

	if *shardSpec != "" {
		if *all {
			return fmt.Errorf("-shard already runs its tasks through one shared pool; drop -all")
		}
		if *out == "" {
			return fmt.Errorf("-shard requires -out (artifact path)")
		}
		// A shard writes an artifact, not tables; the formats come out of
		// the merge. Reject them here like -merge rejects run-config flags,
		// instead of silently ignoring them.
		if *markdown || *csv || *plot {
			return fmt.Errorf("-shard writes an artifact, not tables; pass -markdown/-csv/-plot to -merge instead")
		}
		index, count, err := parseShardSpec(*shardSpec)
		if err != nil {
			return err
		}
		return runShard(w, cfg, selected, index, count, *out)
	}

	// Both execution modes drive the run-service core: the service resolves
	// the spec, plans, partitions against the cache, executes the delta, and
	// merges — dgbench only selects, renders, and times.
	svc, err := runsvc.New(runsvc.Options{CacheDir: *cacheDir, MaxInFlight: 1})
	if err != nil {
		return err
	}
	defer svc.Close()
	spec := runsvc.Spec{
		Full:    !cfg.Quick,
		Trials:  *trials,
		Seed:    *seed,
		Workers: *workers,
	}

	if *all {
		// One shared pool: every (experiment × sweep-point × trial) triple of
		// the selection lands in the same work queue.
		spec.Experiments = experimentIDs(selected)
		start := time.Now()
		r, err := svc.RunSync(spec)
		if err != nil {
			return err
		}
		results, err := r.Results()
		if err != nil {
			return err
		}
		failed := 0
		for _, res := range results {
			if !res.Pass {
				failed++
			}
			report.Result(w, res, opts)
		}
		if !*csv && !*markdown {
			fmt.Fprintf(w, "shared pool: %d workers, %v total\n", cfg.EffectiveWorkers(), time.Since(start).Round(time.Millisecond))
			if *cacheDir != "" {
				fmt.Fprintf(w, "cache: %d tasks served, %d executed\n", r.CachedTasks(), r.ExecutedTasks())
			}
		}
		return report.Summary(w, len(results), failed)
	}

	ran, failed := 0, 0
	for _, e := range selected {
		perExp := spec
		perExp.Experiments = []string{e.ID}
		start := time.Now()
		r, err := svc.RunSync(perExp)
		if err != nil {
			return err
		}
		results, err := r.Results()
		if err != nil {
			return err
		}
		ran++
		if !results[0].Pass {
			failed++
		}
		perOpts := opts
		perOpts.Elapsed = time.Since(start)
		report.Result(w, results[0], perOpts)
	}
	return report.Summary(w, ran, failed)
}

// startCPUProfile starts a CPU profile written to path; stop ends it and
// closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		return nil
	}, nil
}

// createMemProfile creates path up front, so a bad path fails before the
// run; write collects garbage, writes the heap profile and closes the file.
func createMemProfile(path string) (write func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-memprofile: %w", err)
	}
	return func() error {
		runtime.GC()
		err := pprof.Lookup("heap").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		return nil
	}, nil
}

// selectExperiments resolves the -run substring filter against the
// registry, failing when nothing matches.
func selectExperiments(filter string) ([]experiments.Experiment, error) {
	var selected []experiments.Experiment
	for _, e := range experiments.All() {
		if filter != "" && !strings.Contains(e.ID, filter) {
			continue
		}
		selected = append(selected, e)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiment matches -run %q", filter)
	}
	return selected, nil
}

func experimentIDs(exps []experiments.Experiment) []string {
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// runShard executes one shard of the selection's task plan and writes the
// artifact: the plan itself, this shard's owned task records, and the run
// configuration the merge will replay under.
func runShard(w io.Writer, cfg experiments.Config, selected []experiments.Experiment, index, count int, outPath string) error {
	art, err := runsvc.ExecuteShardSpec(cfg, selected, index, count)
	if err != nil {
		return err
	}
	if err := shard.Write(outPath, art); err != nil {
		return err
	}
	total := 0
	for _, p := range art.Plan {
		total += p.Tasks
	}
	fmt.Fprintf(w, "shard %d/%d: ran %d of %d tasks across %d experiments → %s\n",
		index, count, len(art.Records), total, len(art.Plan), outPath)
	return nil
}

// runMerge loads every artifact matching the glob, validates that they tile
// one run's task plan exactly, replays the aggregation, and prints the
// results exactly as a single-machine run would.
func runMerge(w io.Writer, glob string, opts report.Options) error {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return fmt.Errorf("-merge %q: %w", glob, err)
	}
	if len(paths) == 0 {
		return fmt.Errorf("-merge %q matches no files", glob)
	}
	arts := make([]*shard.Artifact, len(paths))
	for i, p := range paths {
		if arts[i], err = shard.Read(p); err != nil {
			return err
		}
	}
	results, _, err := runsvc.MergeArtifacts(arts)
	if err != nil {
		return err
	}
	failed := 0
	for _, res := range results {
		if !res.Pass {
			failed++
		}
		report.Result(w, res, opts)
	}
	return report.Summary(w, len(results), failed)
}
