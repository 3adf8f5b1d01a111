// Ordered worker-pool pipeline (Sec 5.3 spirit: keep the hardware busy
// without allocating per-item goroutines or queues). RunOrdered is the
// substrate of the TimeStore snapshot (de)serialization and log-replay
// pipelines: a sequential producer fans jobs out to a bounded worker pool
// and a sequential consumer receives the results in submission order, so
// CPU-heavy per-item work (encode, CRC, decode) parallelizes while the
// order-sensitive edges (file I/O, graph apply) stay single-threaded.
package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// ErrStop is returned by a RunOrdered consumer to halt the pipeline early;
// RunOrdered then reports success (nil), mirroring a scan callback that
// returns false.
var ErrStop = errors.New("pool: stop")

// DefaultWorkers is the worker count used when a stage is configured with
// less than one worker.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

type result[R any] struct {
	val R
	err error
}

// RunOrdered runs a three-stage pipeline: produce emits jobs sequentially
// (emit reports false when the pipeline is shutting down and emission must
// stop), `workers` goroutines transform jobs concurrently, and consume
// receives the results on the calling goroutine in exact emission order.
//
// The first error — from produce, work, or consume — stops the pipeline
// and is returned; consume may return ErrStop to end early with a nil
// error. In-flight results are bounded to ~2×workers jobs, so memory stays
// flat regardless of how many jobs the producer emits.
//
// Cancellation is cooperative: the producer stops emitting and the
// consumer stops consuming as soon as ctx is done, and the context's error
// is returned. The worker stage is not interrupted mid-item — jobs are
// small by construction (bounded batches), so cancellation latency is one
// job, not one pipeline. A context that can never be cancelled
// (ctx.Done() == nil) adds no per-item overhead.
//
// With workers <= 1 the pipeline runs fully inline on the calling
// goroutine with no goroutines or channels — byte- and order-identical to
// the concurrent execution, just sequential.
func RunOrdered[J, R any](ctx context.Context, workers int,
	produce func(emit func(J) bool) error,
	work func(J) (R, error),
	consume func(R) error) error {
	if ctx.Done() == nil {
		return runOrdered(workers, produce, work, consume)
	}
	err := runOrdered(workers,
		func(emit func(J) bool) error {
			return produce(func(j J) bool {
				if ctx.Err() != nil {
					return false
				}
				return emit(j)
			})
		},
		work,
		func(r R) error {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return consume(r)
		})
	if err != nil {
		return err
	}
	return ctx.Err()
}

// runOrdered is the pipeline itself, blind to cancellation.
func runOrdered[J, R any](workers int,
	produce func(emit func(J) bool) error,
	work func(J) (R, error),
	consume func(R) error) error {
	if workers <= 1 {
		return runOrderedInline(produce, work, consume)
	}

	type job struct {
		val J
		res chan result[R]
	}
	jobs := make(chan job, workers)
	tickets := make(chan chan result[R], 2*workers)
	done := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				v, err := work(j.val)
				j.res <- result[R]{v, err} // buffered: never blocks
			}
		}()
	}

	perrCh := make(chan error, 1)
	go func() {
		defer close(jobs)
		defer close(tickets)
		perrCh <- produce(func(jv J) bool {
			// The ticket goes out before the job so the consumer sees
			// results in emission order no matter which worker finishes
			// first.
			res := make(chan result[R], 1)
			select {
			case tickets <- res:
			case <-done:
				return false
			}
			select {
			case jobs <- job{val: jv, res: res}:
			case <-done:
				return false
			}
			return true
		})
	}()

	var cerr error
	for res := range tickets {
		if cerr != nil {
			continue // unwind: drop remaining tickets without waiting
		}
		r := <-res
		if r.err != nil {
			cerr = r.err
			close(done)
			continue
		}
		if err := consume(r.val); err != nil {
			cerr = err
			close(done)
		}
	}
	wg.Wait()
	perr := <-perrCh
	if cerr == ErrStop {
		cerr = nil
	}
	if cerr != nil {
		return cerr
	}
	return perr
}

func runOrderedInline[J, R any](produce func(emit func(J) bool) error,
	work func(J) (R, error), consume func(R) error) error {
	var cerr error
	perr := produce(func(j J) bool {
		r, err := work(j)
		if err != nil {
			cerr = err
			return false
		}
		if err := consume(r); err != nil {
			cerr = err
			return false
		}
		return true
	})
	if cerr == ErrStop {
		cerr = nil
	}
	if cerr != nil {
		return cerr
	}
	return perr
}
