package catalog

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Daemon is the part of a command line, a startup and a shutdown that the
// coordinator and the worker daemon share: the catalog flags, the
// program-prefixed output, the one way a daemon's catalog is built, and
// the serve-until-signalled tail with its optional profiling listener.
type Daemon struct {
	// Info writes program-prefixed lines to stdout (-quiet silences it once
	// Catalog has run), Err to stderr; Err.Fatalf exits with status 1.
	Info, Err *log.Logger

	stdout                 io.Writer
	scale, problems, pprof *string
	power, validate, quiet *bool
}

// NewDaemon declares the shared flags on fs for the program called name,
// whose standard output is stdout. Call Catalog once fs has been parsed.
func NewDaemon(name string, fs *flag.FlagSet, stdout io.Writer) *Daemon {
	return &Daemon{
		Info:   log.New(stdout, name+": ", 0),
		Err:    log.New(os.Stderr, name+": ", 0),
		stdout: stdout,
		scale:  fs.String("dataset", "dse", "dataset scale: full, dse, or test"),
		power:  fs.Bool("power", false, "add power as a third objective"),
		problems: fs.String("problems", "",
			"directory of declarative problem specs (*.json, docs/SCENARIOS.md) to load at startup"),
		validate: fs.Bool("validate", false,
			"build the problem catalog (builtins plus -problems specs), print it, and exit without serving"),
		quiet: fs.Bool("quiet", false,
			"suppress informational output and bridge-evaluator failure chatter (fatal errors still print)"),
		pprof: fs.String("pprof", "",
			"serve net/http/pprof's /debug/pprof/ on this address, a listener of its own, while the daemon serves (empty: none)"),
	}
}

// Catalog builds what the daemon serves at startup: the builtin problems of
// the -dataset scale, then every spec of the -problems directory, as one
// catalog (a later name replaces an earlier one). It points the process
// logger, which carries the bridge evaluators' failure lines, at stderr
// with the program prefix, or at nothing under -quiet. Under -validate it
// prints the catalog to stdout and returns a nil list: the daemon is done
// and exits 0.
func (d *Daemon) Catalog() ([]Problem, error) {
	log.SetFlags(0)
	log.SetPrefix(d.Err.Prefix())
	log.SetOutput(d.Err.Writer())
	if *d.quiet {
		d.Info.SetOutput(io.Discard)
		log.SetOutput(io.Discard)
	}
	problems, err := builtins(*d.scale, *d.power)
	if err != nil {
		return nil, fmt.Errorf("registering builtin problems: %w", err)
	}
	if *d.problems != "" {
		specs, err := fromDir(*d.problems)
		if err != nil {
			return nil, fmt.Errorf("loading problem specs: %w", err)
		}
		d.Info.Printf("loaded %d problem specs from %s", len(specs), *d.problems)
		problems = append(problems, specs...)
	}
	if problems, err = byName(problems); err != nil {
		return nil, err
	}
	if *d.validate {
		for _, p := range problems {
			fmt.Fprintf(d.stdout, "  %-28s %d params, %d objectives, size %d\n",
				p.Name, p.Space.Dim(), len(p.Objectives), p.Space.Size())
		}
		fmt.Fprintf(d.stdout, "%scatalog valid (%d problems)\n", d.Err.Prefix(), len(problems))
		return nil, nil
	}
	return problems, nil
}

// Serve runs srv until SIGINT or SIGTERM, then calls drain — what the daemon
// must finish or refuse before its listener may close — and shuts srv down;
// the two share one 10 s deadline. With -pprof set, the profiling listener
// serves alongside and closes when Serve returns. It returns the error of a
// listener that fails.
func (d *Daemon) Serve(srv *http.Server, drain func(ctx context.Context)) error {
	if *d.pprof != "" {
		ln, err := servePprof(*d.pprof)
		if err != nil {
			return err
		}
		defer ln.Close()
		d.Info.Printf("profiling on http://%s/debug/pprof/", ln.Addr())
	}
	srv.ErrorLog = d.Err // not the process logger, which -quiet silences
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
		return err
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drain(shutdownCtx)
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		d.Err.Printf("http shutdown: %v", err)
	}
	return nil
}

// servePprof serves, on a listener of its own at addr, never on the API's
// mux, the profiling endpoints net/http/pprof registers on
// http.DefaultServeMux (which nothing else serves), until the returned
// listener is closed. The daemons import that package for its handlers;
// this one does not, so the programs that link the catalog without serving
// a daemon do not carry the profiler.
func servePprof(addr string) (net.Listener, error) {
	index := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/debug/pprof/"}}
	if _, pattern := http.DefaultServeMux.Handler(index); pattern == "" {
		return nil, errors.New("-pprof: this program does not link net/http/pprof")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	go http.Serve(ln, http.DefaultServeMux)
	return ln, nil
}
