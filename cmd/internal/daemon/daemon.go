// Package daemon is the lifecycle served and fleetd share — flags, boot
// restore, instrumentation, SIGTERM/SIGINT, checkpoints and final flush —
// and the instrumentation wiring they share with shardd.
package daemon

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smartexp3/internal/core"
	"smartexp3/internal/obsv"
	"smartexp3/internal/serve"
)

// Main runs run on the command line and exits 1 if it fails.
func Main(name string, run func(args []string) error) {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// Obs holds the instrumentation flags every daemon takes.
type Obs struct {
	debug    *string
	logEvery *time.Duration
}

// RegisterObs defines -debug-addr and -metrics-log-every on fs.
func RegisterObs(fs *flag.FlagSet) *Obs {
	return &Obs{
		debug:    fs.String("debug-addr", "", "serve /metrics, /varz and /debug/pprof/ on this address (empty disables)"),
		logEvery: fs.Duration("metrics-log-every", 0, "emit a structured metrics-delta log line at this interval (0 disables)"),
	}
}

// Registry returns a new registry if a flag will read it, else nil.
func (o *Obs) Registry() *obsv.Registry {
	if *o.debug == "" && *o.logEvery <= 0 {
		return nil
	}
	return obsv.NewRegistry()
}

// ServeDebug serves reg on -debug-addr, if set, and logs where. The
// returned function closes the debug listener.
func (o *Obs) ServeDebug(reg *obsv.Registry, logf func(string, ...any)) (func() error, error) {
	if *o.debug == "" {
		return func() error { return nil }, nil
	}
	ds, err := obsv.ListenAndServe(*o.debug, reg)
	if err != nil {
		return nil, err
	}
	logf("debug endpoints on http://%s/ (/metrics, /varz, /debug/pprof/)", ds.Addr())
	return ds.Close, nil
}

// LogDeltas logs reg's counter deltas every -metrics-log-every, if set,
// until stop closes (with one last line then); a nil stop never closes.
func (o *Obs) LogDeltas(reg *obsv.Registry, stop <-chan struct{}) {
	if *o.logEvery > 0 {
		dl := obsv.NewDeltaLogger(reg, slog.New(slog.NewTextHandler(os.Stderr, nil)))
		go dl.Run(*o.logEvery, stop)
	}
}

// Flags are the flags served and fleetd share.
type Flags struct {
	*Obs
	alg, snapshot   *string
	seed            *int64
	shards, maxArms *int
	every           *time.Duration
	quiet           *bool
	logger          *log.Logger
}

// Register defines the shared flags on fs. Log lines carry fs's name.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		Obs:      RegisterObs(fs),
		alg:      fs.String("alg", "smart", "policy to serve: exp3|block|hybrid|smartnr|smart"),
		seed:     fs.Int64("seed", 1, "root seed; device d draws from ChildSeed(seed, d)"),
		shards:   fs.Int("state-shards", 0, "device-map shard count (default: 4×GOMAXPROCS, rounded to a power of two)"),
		maxArms:  fs.Int("max-arms", 0, "per-request arm-set bound (default 1024)"),
		snapshot: fs.String("snapshot", "", "state file: restored at boot if present, written on SIGTERM/SIGINT"),
		every:    fs.Duration("snapshot-every", 0, "also checkpoint the state file at this interval (requires -snapshot)"),
		quiet:    fs.Bool("quiet", false, "suppress log lines"),
		logger:   log.New(os.Stderr, fs.Name()+": ", log.LstdFlags),
	}
}

// Logf logs one line under the command's name unless -quiet is set.
func (f *Flags) Logf(format string, args ...any) {
	if !*f.quiet {
		f.logger.Printf(format, args...)
	}
}

// SnapshotPath returns -snapshot, empty when there is no state file.
func (f *Flags) SnapshotPath() string { return *f.snapshot }

// Daemon is one decision daemon's store, server and instrumentation.
type Daemon struct {
	*Flags
	Store    *serve.Store
	Server   *serve.Server
	Registry *obsv.Registry // nil unless an instrumentation flag reads it
}

// Open checks -alg and -snapshot-every, builds the store from the flags
// plus cfg's command-specific fields (served's EvictAfter), restores
// -snapshot if the file exists, and builds the server.
func (f *Flags) Open(cfg serve.Config) (*Daemon, error) {
	// The EXP3 family, AlgEXP3 through AlgSmartEXP3, is what has policy
	// state the serve layer can snapshot (and a fleet migrate).
	alg, ok := core.ParseAlgorithm(*f.alg)
	if !ok || alg > core.AlgSmartEXP3 {
		return nil, fmt.Errorf("unknown algorithm %q (want exp3|block|hybrid|smartnr|smart)", *f.alg)
	}
	if *f.every > 0 && *f.snapshot == "" {
		return nil, fmt.Errorf("-snapshot-every requires -snapshot")
	}
	cfg.Algorithm, cfg.Seed, cfg.Shards, cfg.MaxArms = alg, *f.seed, *f.shards, *f.maxArms
	store, err := serve.NewStore(cfg)
	if err != nil {
		return nil, err
	}
	if *f.snapshot != "" {
		switch err := store.LoadFile(*f.snapshot); {
		case err == nil:
			f.Logf("restored %d device sessions from %s", store.Devices(), *f.snapshot)
		case errors.Is(err, os.ErrNotExist):
			f.Logf("no snapshot at %s, starting fresh", *f.snapshot)
		default:
			return nil, err
		}
	}
	d := &Daemon{Flags: f, Store: store, Registry: f.Registry()}
	var opts serve.ServerOptions
	if d.Registry != nil {
		store.Instrument(d.Registry)
		opts.Metrics = serve.NewServerMetrics(d.Registry)
	}
	d.Server = serve.NewServer(store, opts)
	return d, nil
}

// Plane is an accept loop a daemon runs beside its decision wire, such as
// fleetd's control plane.
type Plane struct {
	Listener net.Listener
	Serve    func(net.Listener) error
	Close    func() // tears down the live connections
}

// Chore is a command's periodic task. It runs on the lifecycle goroutine,
// so it never overlaps a checkpoint or the final flush.
type Chore struct {
	Every time.Duration // 0 disables
	Run   func()
}

// Serve answers the decision wire on ln, and each extra plane on its own
// listener, until SIGTERM or SIGINT or until an accept loop fails for
// good, checkpointing every -snapshot-every and running chore meanwhile.
// It then closes every listener and connection, waits for the accept
// loops to drain, flushes the store to -snapshot and returns the failed
// accept loop's error, if any.
func (d *Daemon) Serve(ln net.Listener, chore Chore, extra ...Plane) error {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)
	planes := append([]Plane{{ln, d.Server.Serve, d.Server.Close}}, extra...)
	errs := make(chan error, len(planes))
	for _, p := range planes {
		go func() { errs <- p.Serve(p.Listener) }()
	}
	stop := make(chan struct{})
	d.LogDeltas(d.Registry, stop)
	var checkpoint, choreTick <-chan time.Time
	if *d.every > 0 {
		t := time.NewTicker(*d.every)
		defer t.Stop()
		checkpoint = t.C
	}
	if chore.Every > 0 {
		t := time.NewTicker(chore.Every)
		defer t.Stop()
		choreTick = t.C
	}

	var err error
	running := len(planes)
loop:
	for {
		select {
		case sig := <-sigCh:
			d.Logf("caught %v, flushing state", sig)
			break loop
		case err = <-errs:
			running--
			break loop
		case <-checkpoint:
			if err := d.Store.SaveFile(*d.snapshot); err != nil {
				d.Logf("checkpoint failed: %v", err)
			} else {
				d.Logf("checkpointed %d device sessions to %s", d.Store.Devices(), *d.snapshot)
			}
		case <-choreTick:
			chore.Run()
		}
	}
	close(stop)
	for _, p := range planes {
		p.Listener.Close()
		p.Close()
	}
	for ; running > 0; running-- {
		<-errs
	}
	if *d.snapshot != "" {
		if ferr := d.Store.SaveFile(*d.snapshot); ferr != nil {
			return errors.Join(err, ferr)
		}
		d.Logf("flushed %d device sessions to %s", d.Store.Devices(), *d.snapshot)
	}
	return err
}
