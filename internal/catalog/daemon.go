package catalog

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Daemon is the part of a command line, a startup and a shutdown that the
// coordinator and the worker daemon share: the catalog flags, the
// program-prefixed output, the one way a daemon's registry is built, and
// the serve-until-signalled tail.
type Daemon struct {
	// Info writes program-prefixed lines to stdout (-quiet silences it once
	// Catalog has run), Err to stderr; Err.Fatalf exits with status 1.
	Info, Err *log.Logger

	scale, problems        *string
	power, validate, quiet *bool
}

// NewDaemon declares the shared flags on fs for the program called name.
// Call Catalog once fs has been parsed.
func NewDaemon(name string, fs *flag.FlagSet) *Daemon {
	return &Daemon{
		Info:  log.New(os.Stdout, name+": ", 0),
		Err:   log.New(os.Stderr, name+": ", 0),
		scale: fs.String("dataset", "dse", "dataset scale: full, dse, or test"),
		power: fs.Bool("power", false, "add power as a third objective"),
		problems: fs.String("problems", "",
			"directory of declarative problem specs (*.json, docs/SCENARIOS.md) to load at startup"),
		validate: fs.Bool("validate", false,
			"build the problem catalog (builtins plus -problems specs), print it, and exit without serving"),
		quiet: fs.Bool("quiet", false,
			"suppress informational output and bridge-evaluator failure chatter (fatal errors still print)"),
	}
}

// Catalog builds the daemon's registry: the builtin problems of the
// -dataset scale, then every spec of the -problems directory. Bridge
// evaluators (exec: / http: spec bindings) report measurement failures
// through Err; -quiet and -validate silence them. Under -validate it
// prints the catalog and exits 0 instead of returning. A catalog that
// cannot be built is fatal.
func (d *Daemon) Catalog() *Registry {
	var bridgeLogf func(format string, args ...any)
	if *d.quiet {
		d.Info.SetOutput(io.Discard)
	} else if !*d.validate {
		bridgeLogf = d.Err.Printf
	}
	reg := NewRegistry(bridgeLogf)
	if err := reg.RegisterBuiltins(*d.scale, *d.power); err != nil {
		d.Err.Fatalf("registering builtin problems: %v", err)
	}
	if *d.problems != "" {
		n, err := reg.LoadDir(*d.problems)
		if err != nil {
			d.Err.Fatalf("loading problem specs: %v", err)
		}
		d.Info.Printf("loaded %d problem specs from %s", n, *d.problems)
	}
	if *d.validate {
		problems := reg.Problems()
		for _, p := range problems {
			fmt.Printf("  %-28s %d params, %d objectives, size %d\n",
				p.Name, p.Space.Dim(), len(p.Objectives), p.Space.Size())
		}
		fmt.Printf("%scatalog valid (%d problems)\n", d.Err.Prefix(), len(problems))
		os.Exit(0)
	}
	return reg
}

// Serve runs srv until SIGINT or SIGTERM, then calls drain — what the daemon
// must finish or refuse before its listener may close — and shuts srv down;
// the two share one 10 s deadline. A listener that fails is fatal.
func (d *Daemon) Serve(srv *http.Server, drain func(ctx context.Context)) {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Release the handler so a second signal kills the process
		// instead of being swallowed during the drain below.
		stop()
	case err := <-errc:
		d.Err.Fatalf("%v", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drain(shutdownCtx)
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		d.Err.Printf("http shutdown: %v", err)
	}
}
