package core

import (
	"context"
	"errors"
	"io"

	"repro/internal/par"
	"repro/internal/param"
)

// Backend evaluates one batch of configurations. It is the seam every
// evaluation transport plugs into: the default LocalBackend calls the
// run's Evaluator in-process, worker.Pool fans batches out to remote
// worker daemons over HTTP, and future backends (SSH fleets, k8s jobs,
// device farms) implement the same contract.
//
// The engine resolves its memo-cache *before* calling the backend and
// stores results *after* it returns, so remote and local evaluations
// memoize identically; a backend only ever sees genuine cache misses.
type Backend interface {
	// EvaluateBatch evaluates cfgs and returns exactly one objective
	// vector per configuration, at the matching position. The result
	// order is the contract that keeps seeded runs deterministic across
	// backends: however a batch is sharded, retried, or hedged, position
	// i of the result must hold the objectives of cfgs[i].
	//
	// On cancellation or partial failure implementations return the
	// results that did complete — nil entries mark configurations that
	// were not evaluated — together with a non-nil error. Measurements
	// are too expensive to discard, so the engine retains every non-nil
	// entry even on an error return.
	EvaluateBatch(ctx context.Context, cfgs []param.Config) ([][]float64, error)
}

// LocalBackend is the default in-process Backend: it evaluates a batch by
// calling Eval for each configuration, bounded to Workers concurrent calls
// (the engine passes its own Workers budget when it wraps a bare
// Evaluator). The Evaluator must be safe for concurrent use. An Evaluator
// that is a batchHolder is held for each batch's whole length.
type LocalBackend struct {
	// Eval measures one configuration; required.
	Eval Evaluator
	// Workers bounds concurrent Eval calls; ≤ 0 selects GOMAXPROCS.
	Workers int
}

// batchHolder is an Evaluator that keeps what it measures with — an exec
// bridge's program — up from Hold until the returned release, so a batch
// evaluated one configuration at a time does not restart it between them.
type batchHolder interface {
	Hold() (release func())
}

// Retire retires a replaced or released evaluator that is an io.Closer —
// an exec bridge: its program stops now and runs again only while a batch
// or session that captured ev measures with it (Hold keeps it up for the
// rest of such a batch). Both daemons' Register and the coordinator's
// shutdown call it.
func Retire(ev Evaluator) {
	if c, ok := ev.(io.Closer); ok {
		_ = c.Close() // the exec bridge's Close always returns nil
	}
}

// EvaluateBatch implements Backend. Cancellation is checked before each
// evaluation: once the context is done no further Eval calls start, and the
// evaluations that did complete are returned alongside the context error.
func (b *LocalBackend) EvaluateBatch(ctx context.Context, cfgs []param.Config) ([][]float64, error) {
	if b.Eval == nil {
		return nil, errors.New("core: LocalBackend with nil Evaluator")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := b.Workers
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	if h, ok := b.Eval.(batchHolder); ok {
		release := h.Hold()
		defer release()
	}
	out := make([][]float64, len(cfgs))
	par.ForWorkers(len(cfgs), workers, func(i int) {
		if ctx.Err() != nil {
			return
		}
		out[i] = append([]float64(nil), b.Eval.Evaluate(cfgs[i])...)
	})
	return out, ctx.Err()
}
