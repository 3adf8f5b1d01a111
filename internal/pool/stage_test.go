package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunOrderedPreservesOrder runs jobs with adversarial per-job delays
// (earlier jobs slower) and verifies results still arrive in emission order.
func TestRunOrderedPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 200
			var got []int
			err := RunOrdered(context.Background(), workers,
				func(emit func(int) bool) error {
					for i := 0; i < n; i++ {
						if !emit(i) {
							return nil
						}
					}
					return nil
				},
				func(i int) (int, error) {
					// Early jobs sleep longer, so completion order inverts
					// emission order unless reordering works.
					if i < 8 {
						time.Sleep(time.Duration(8-i) * time.Millisecond)
					}
					return i * 2, nil
				},
				func(r int) error {
					got = append(got, r)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("consumed %d results, want %d", len(got), n)
			}
			for i, v := range got {
				if v != i*2 {
					t.Fatalf("out of order at %d: got %d", i, v)
				}
			}
		})
	}
}

func TestRunOrderedWorkerError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		consumed := 0
		err := RunOrdered(context.Background(), workers,
			func(emit func(int) bool) error {
				for i := 0; i < 100; i++ {
					if !emit(i) {
						return nil
					}
				}
				return nil
			},
			func(i int) (int, error) {
				if i == 10 {
					return 0, boom
				}
				return i, nil
			},
			func(r int) error {
				if r >= 10 {
					t.Errorf("consumed result %d after the failing job", r)
				}
				consumed++
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if consumed != 10 {
			t.Errorf("workers=%d: consumed %d results before error, want 10", workers, consumed)
		}
	}
}

func TestRunOrderedConsumerStop(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var produced atomic.Int64
		consumed := 0
		err := RunOrdered(context.Background(), workers,
			func(emit func(int) bool) error {
				for i := 0; i < 1_000_000; i++ {
					if !emit(i) {
						return nil
					}
					produced.Add(1)
				}
				return nil
			},
			func(i int) (int, error) { return i, nil },
			func(r int) error {
				consumed++
				if consumed == 5 {
					return ErrStop
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: ErrStop must surface as nil, got %v", workers, err)
		}
		if consumed != 5 {
			t.Errorf("workers=%d: consumed %d, want 5", workers, consumed)
		}
		// Backpressure: the producer cannot have raced far past the
		// consumer before the stop propagated.
		if p := produced.Load(); p > 5+4*int64(workers)+2 {
			t.Errorf("workers=%d: producer emitted %d jobs past a stop at 5", workers, p)
		}
	}
}

func TestRunOrderedConsumerError(t *testing.T) {
	bad := errors.New("consume failed")
	err := RunOrdered(context.Background(), 4,
		func(emit func(int) bool) error {
			for i := 0; i < 100; i++ {
				if !emit(i) {
					return nil
				}
			}
			return nil
		},
		func(i int) (int, error) { return i, nil },
		func(r int) error {
			if r == 3 {
				return bad
			}
			return nil
		})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want consume failure", err)
	}
}

func TestRunOrderedProducerError(t *testing.T) {
	bad := errors.New("produce failed")
	got := 0
	err := RunOrdered(context.Background(), 4,
		func(emit func(int) bool) error {
			emit(1)
			emit(2)
			return bad
		},
		func(i int) (int, error) { return i, nil },
		func(r int) error { got++; return nil })
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want produce failure", err)
	}
	if got != 2 {
		t.Errorf("emitted results before the failure must still be consumed: got %d", got)
	}
}

func TestRunOrderedEmpty(t *testing.T) {
	err := RunOrdered(context.Background(), 4,
		func(emit func(int) bool) error { return nil },
		func(i int) (int, error) { return i, nil },
		func(r int) error { t.Error("no jobs, no results"); return nil })
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers must be positive")
	}
}

// TestRunOrderedCtxCancel cancels the context partway through a long
// emission and checks the pipeline stops promptly with ctx's error instead
// of draining all jobs.
func TestRunOrderedCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var consumed atomic.Int64
	err := RunOrdered(ctx, 4,
		func(emit func(int) bool) error {
			for i := 0; i < 1_000_000; i++ {
				if i == 100 {
					cancel()
				}
				if !emit(i) {
					return nil
				}
			}
			return nil
		},
		func(i int) (int, error) { return i, nil },
		func(r int) error { consumed.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := consumed.Load(); n >= 1_000_000 {
		t.Errorf("consumed %d jobs after cancel", n)
	}
}

// TestRunOrderedCtxUncancellable checks the fast path: a context that can
// never fire runs every job and returns the plain pipeline result.
func TestRunOrderedCtxUncancellable(t *testing.T) {
	var sum int
	err := RunOrdered(context.Background(), 4,
		func(emit func(int) bool) error {
			for i := 1; i <= 100; i++ {
				if !emit(i) {
					return nil
				}
			}
			return nil
		},
		func(i int) (int, error) { return i, nil },
		func(r int) error { sum += r; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if sum != 5050 {
		t.Errorf("sum = %d, want 5050", sum)
	}
}

// TestRunOrderedCtxStop checks that a consumer returning ErrStop still maps
// to a nil error under the ctx wrapper.
func TestRunOrderedCtxStop(t *testing.T) {
	// A cancellable (but never cancelled) context forces the slow path.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var consumed int
	err := RunOrdered(ctx, 2,
		func(emit func(int) bool) error {
			for i := 0; i < 100; i++ {
				if !emit(i) {
					return nil
				}
			}
			return nil
		},
		func(i int) (int, error) { return i, nil },
		func(r int) error {
			consumed++
			if consumed == 5 {
				return ErrStop
			}
			return nil
		})
	if err != nil {
		t.Fatalf("ErrStop leaked: %v", err)
	}
	if consumed != 5 {
		t.Errorf("consumed %d, want 5", consumed)
	}
}
