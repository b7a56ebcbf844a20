// Command icb-campaign inspects the durable campaign ledgers that icb
// -journal-dir writes — it lists runs, diffs two runs for regressions, and
// renders cross-run trends — and, with serve, aggregates a live fleet of
// icb workers into one merged dashboard.
//
// Usage:
//
//	icb-campaign list <journal-dir>...
//	icb-campaign diff [-tolerance 0.05] <journal-dir>
//	icb-campaign diff <journal-dir> <run-id-old> <run-id-new>
//	icb-campaign diff -baseline baseline.json <journal-dir>
//	icb-campaign trend [-json] <journal-dir>...
//	icb-campaign serve [-http addr] [-peers url,...] [-journal-dir dir] [-interval 2s] [-events file]
//
// diff compares the two most recent comparable runs (same config hash) by
// default, a named pair when two run ids are given, or the newest run
// against a checked-in baseline RunRecord with -baseline — the shape CI
// gates use. Exit status is machine-readable: 0 clean, 1 at least one
// regression found, 2 usage or I/O error.
//
// serve polls each worker's /api/snapshot and /metrics, merges them into a
// fleet-wide view, and serves the standard dashboard UI (plus /metrics,
// /healthz, /readyz) over the merged snapshot. Workers are named
// explicitly with -peers and/or discovered from a shared -journal-dir,
// where every icb -http -journal-dir worker advertises itself under
// <dir>/peers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"icb/internal/obs"
	"icb/internal/obs/dash"
	"icb/internal/obs/fleet"
	"icb/internal/obs/health"
	"icb/internal/obs/journal"
	"icb/internal/obs/logx"
)

// log carries structured diagnostics to stderr; listings, diffs, and trend
// tables stay on stdout as program output. Configured in run from
// -log-json / -log-level; logOpts is shared with the serve FlagSet so the
// flags are accepted both before and after the subcommand.
var (
	log     = slog.Default()
	logOpts logx.Options
)

func main() { os.Exit(run()) }

func run() int {
	flag.Usage = usage
	logOpts.Flags(flag.CommandLine)
	flag.Parse()
	log = logx.New("icb-campaign", logOpts)
	if flag.NArg() < 1 {
		usage()
		return 2
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "list":
		return list(args)
	case "diff":
		return diff(args)
	case "trend":
		return trend(args)
	case "serve":
		return serve(args)
	}
	log.Error("unknown command", "command", cmd)
	usage()
	return 2
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `usage:
  icb-campaign list <journal-dir>...
  icb-campaign diff [-tolerance F] [-baseline FILE] <journal-dir> [run-old run-new]
  icb-campaign trend [-json] <journal-dir>...
  icb-campaign serve [-http ADDR] [-peers URL,...] [-journal-dir DIR] [-interval D] [-events FILE]

exit status: 0 clean, 1 regression found (diff), 2 usage or I/O error
`)
}

// serve runs the fleet aggregator: poll every worker dashboard, merge the
// snapshots, and serve the merged view until SIGINT/SIGTERM.
func serve(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	httpAddr := fs.String("http", "127.0.0.1:8090", "serve the merged fleet dashboard on this address")
	peersFlag := fs.String("peers", "", "comma-separated worker dashboard base URLs (e.g. http://127.0.0.1:8081,http://127.0.0.1:8082)")
	jrnlDir := fs.String("journal-dir", "", "shared journal directory: discover workers advertised under <dir>/peers and serve its run history on /api/runs")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	events := fs.String("events", "", "append fleet NDJSON events (fleet_snapshot, peer_status) to this file")
	logOpts.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log = logx.New("icb-campaign", logOpts)
	if fs.NArg() > 0 {
		log.Error("serve: unexpected arguments", "args", fmt.Sprint(fs.Args()))
		return 2
	}
	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 && *jrnlDir == "" {
		log.Error("serve needs -peers and/or -journal-dir to find workers")
		usage()
		return 2
	}

	var nd *obs.NDJSON
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			log.Error("cannot create events file", "path", *events, "err", err)
			return 2
		}
		nd = obs.NewNDJSON(f)
		defer func() {
			if err := nd.Close(); err != nil {
				log.Error("event stream flush failed", "err", err)
			}
			f.Close()
		}()
	}

	// The dashboard serves the aggregator's merged snapshot; the poll
	// callbacks bridge fleet events onto NDJSON and SSE. ds is assigned
	// before the first poll round (Run is called last), so the closures'
	// forward references are safe.
	probe := health.New(0)
	var ds *dash.Server
	agg := fleet.New(fleet.Options{
		Peers:      peers,
		JournalDir: *jrnlDir,
		Interval:   *interval,
		Log:        log,
		OnFleetSnapshot: func(ev obs.FleetSnapshotEvent) {
			probe.Beat()
			if nd != nil {
				nd.FleetSnapshot(ev)
			}
			ds.Publish("fleet_snapshot", ev)
		},
		OnPeerStatus: func(ev obs.PeerStatusEvent) {
			if nd != nil {
				nd.PeerStatus(ev)
			}
			ds.Publish("peer_status", ev)
		},
	})
	ds = dash.NewWithSource(agg.Merged)
	if *jrnlDir != "" {
		ds.SetJournalDirs([]string{*jrnlDir})
	}
	// Ready once at least one poll round has completed: before that the
	// merged view is empty, not a fleet.
	probe.AddReadyCheck(func() error {
		if agg.Rounds() == 0 {
			return fmt.Errorf("no poll round completed yet")
		}
		return nil
	})
	ds.Mount("/healthz", probe.Healthz())
	ds.Mount("/readyz", probe.Readyz())

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		log.Error("fleet dashboard listen failed", "addr", *httpAddr, "err", err)
		return 2
	}
	srv := &http.Server{Handler: ds.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Error("fleet dashboard server failed", "err", err)
		}
	}()
	log.Info("fleet dashboard serving",
		"url", fleet.BaseURL(ln.Addr().String()),
		"peers", len(peers), "journal_dir", *jrnlDir, "interval", interval.String())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	probe.MarkStarted()
	agg.Run(ctx) // blocks; polls immediately, then every interval
	probe.MarkDone()
	log.Info("fleet aggregator stopping")
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), time.Second)
	defer shutdownCancel()
	srv.Shutdown(shutdownCtx)
	return 0
}

// readDirs loads and concatenates the ledgers of every named journal
// directory, in start-time order.
func readDirs(dirs []string) ([]obs.RunRecord, error) {
	var runs []obs.RunRecord
	for _, dir := range dirs {
		rs, err := journal.ReadRuns(dir)
		if err != nil {
			return nil, err
		}
		runs = append(runs, rs...)
	}
	sort.SliceStable(runs, func(i, j int) bool {
		return runs[i].StartUnixNS < runs[j].StartUnixNS
	})
	return runs, nil
}

func list(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	runs, err := readDirs(args)
	if err != nil {
		log.Error("cannot read journal", "err", err)
		return 2
	}
	if len(runs) == 0 {
		fmt.Println("no runs recorded")
		return 0
	}
	fmt.Printf("%-42s %-19s %-10s %-8s %10s %8s %6s %s\n",
		"RUN", "START", "PROGRAM", "CONFIG", "EXECS", "SECS", "BUGS", "NOTES")
	for i := range runs {
		r := &runs[i]
		var notes []string
		if r.Resumed {
			notes = append(notes, "resumed")
		}
		if r.Interrupted {
			notes = append(notes, "interrupted")
		}
		if r.Exhausted {
			notes = append(notes, "exhausted")
		}
		if r.BoundCompleted >= 0 {
			notes = append(notes, fmt.Sprintf("bound<=%d", r.BoundCompleted))
		}
		fmt.Printf("%-42s %-19s %-10s %-8s %10d %8.2f %6d %s\n",
			r.RunID,
			time.Unix(0, r.StartUnixNS).UTC().Format("2006-01-02T15:04:05"),
			r.Program, short(r.ConfigHash), r.Executions,
			float64(r.DurationNS)/1e9, len(r.Bugs), strings.Join(notes, ","))
	}
	return 0
}

func short(h string) string {
	if len(h) > 8 {
		return h[:8]
	}
	return h
}

func diff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	tol := fs.Float64("tolerance", 0.05, "fractional slack on deterministic metrics before a change counts as a regression")
	baseline := fs.String("baseline", "", "compare the newest run against this RunRecord JSON file instead of a prior ledger entry")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	args = fs.Args()
	if len(args) != 1 && len(args) != 3 {
		usage()
		return 2
	}
	runs, err := journal.ReadRuns(args[0])
	if err != nil {
		log.Error("cannot read journal", "dir", args[0], "err", err)
		return 2
	}
	var old, cur *obs.RunRecord
	switch {
	case *baseline != "":
		data, err := os.ReadFile(*baseline)
		if err != nil {
			log.Error("cannot read baseline", "err", err)
			return 2
		}
		old = &obs.RunRecord{}
		if err := json.Unmarshal(data, old); err != nil {
			log.Error("corrupt baseline", "path", *baseline, "err", err)
			return 2
		}
		if len(runs) == 0 {
			log.Error("no runs to compare against the baseline", "dir", args[0])
			return 2
		}
		cur = &runs[len(runs)-1]
	case len(args) == 3:
		old, cur = findRun(runs, args[1]), findRun(runs, args[2])
		if old == nil || cur == nil {
			log.Error("run id not found", "dir", args[0])
			return 2
		}
	default:
		// The two most recent runs sharing the newest run's config.
		if len(runs) < 2 {
			log.Error("diff needs two runs", "dir", args[0], "runs", len(runs))
			return 2
		}
		cur = &runs[len(runs)-1]
		for i := len(runs) - 2; i >= 0; i-- {
			if runs[i].ConfigHash == cur.ConfigHash {
				old = &runs[i]
				break
			}
		}
		if old == nil {
			log.Error("no earlier run shares the newest run's config", "config", cur.ConfigHash, "run", cur.RunID)
			return 2
		}
	}
	regs, err := journal.Diff(old, cur, *tol)
	if err != nil {
		log.Error("diff failed", "err", err)
		return 2
	}
	fmt.Printf("comparing %s -> %s (config %s, tolerance %.0f%%)\n",
		old.RunID, cur.RunID, short(cur.ConfigHash), *tol*100)
	if len(regs) == 0 {
		fmt.Println("no regressions")
		return 0
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %s: %s\n", r.Metric, r.Detail)
	}
	return 1
}

func findRun(runs []obs.RunRecord, id string) *obs.RunRecord {
	for i := range runs {
		if runs[i].RunID == id {
			return &runs[i]
		}
	}
	return nil
}

func trend(args []string) int {
	fs := flag.NewFlagSet("trend", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "print the trend points as a JSON array instead of a table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	args = fs.Args()
	if len(args) < 1 {
		usage()
		return 2
	}
	runs, err := readDirs(args)
	if err != nil {
		log.Error("cannot read journal", "err", err)
		return 2
	}
	points := journal.Trend(runs)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(points); err != nil {
			log.Error("trend encoding failed", "err", err)
			return 2
		}
		return 0
	}
	if len(points) == 0 {
		fmt.Println("no runs recorded")
		return 0
	}
	fmt.Printf("%-42s %-8s %10s %10s %8s %9s %6s %10s %7s\n",
		"RUN", "CONFIG", "EXECS", "EXECS/S", "STATES", "ΔSTATES", "BUGS", "1ST-BUG@", "ATLAS")
	for _, p := range points {
		firstBug := "-"
		if p.FirstBugExecution > 0 {
			firstBug = fmt.Sprintf("%d", p.FirstBugExecution)
			if p.DeltaFirstBugExecution != 0 {
				firstBug += fmt.Sprintf("(%+d)", p.DeltaFirstBugExecution)
			}
		}
		fmt.Printf("%-42s %-8s %10d %10.0f %8d %+9d %6d %10s %7d\n",
			p.RunID, short(p.ConfigHash), p.Executions, p.ExecsPerSec,
			p.States, p.DeltaStates, p.Bugs, firstBug, p.AtlasSites)
	}
	return 0
}
